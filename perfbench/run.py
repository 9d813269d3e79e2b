"""Benchmark of the ``sda`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload cv-dense --seed 3 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 3
    python3 perfbench/selftest.py

A workload is one ``sda`` CLI command on synthetic block-structured problems
made by ``sda.synth.make_block_dataset`` (feature table and disease DAG
included). A run at ``--seed n`` makes the workload's ``n_inputs`` problems
from the seeds n, n + 1000, n + 2000, ... and gives each command its
problem's seed. The loop is closed with a single client: one command at a
time, each in a fresh child process (``child.py``) with the BLAS thread
count pinned to ``BLAS_THREADS``. Whole passes over the inputs repeat, at
least ``MIN_PASSES`` of them and more while another fits in ``--seconds``,
and every command's outputs are checked. ``wall_s``, ``setup_s`` and ``ref_s``
(the child's start-up to the end of ``import numpy``, before any ``sda``
code) are the median over the inputs of each input's fastest command;
``wall_per_ref`` is ``wall_s / ref_s`` and ``peak_rss_mb`` the median over
all commands.

With ``--trace 1`` the first input runs ``TRACE_REPEATS`` times plain and as
often, alternating, with every public ``sda`` function wrapped
(``tracer.py``); the per-layer metrics come from the fastest traced
command's spans, and the end-to-end metrics are only ever taken with
tracing off.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs, outputs,
child logs, spans and a result file with the environment go under
``.perfbench/`` in the repository root. The exit code is 0 when every check
passed, 1 when one failed, 2 when the ``sda`` sources are missing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One BLAS thread keeps runs steady on a shared two-core machine; the
# pipeline's hot loops are Python-bound, so two threads measured no faster.
BLAS_THREADS = 1
# Every report's mean fold ROC-AUC must be above chance, and the median over
# an untraced run's reports above MEDIAN_AUC_FLOOR: one small problem's AUC
# spreads too widely (0.6-0.8 at 80x24) for a tighter floor on each report.
CHANCE_FLOOR = 0.5
MEDIAN_AUC_FLOOR = 0.6
# On a shared host the same command runs up to 1.6x slower when a neighbour
# is busy, in episodes of seconds to minutes. Each input runs once per pass,
# its repeats about 8 s apart, and only its fastest run counts: a time that
# busy episodes inflated in every repeat is rare, while a slower program is
# slower in all of them. Episodes that span a whole run slow the start-up of
# the interpreter and numpy in the same process just as much, so the
# end-to-end time metric is wall_per_ref: wall_s in units of that start-up,
# which runs no sda code. wall_s itself is printed and kept in the results.
MIN_PASSES = 3
# Plain and traced commands of a traced run; the fastest of each is compared,
# for the same reason.
TRACE_REPEATS = 3
# Every child is killed this long after the run started, so the run ends
# within the 180 s a run may take.
RUN_LIMIT_S = 170.0
N_BLOCKS = 5
TOP_K = 10
RANKINGS_HEADER = "disease_id,snorna_id,score,rank"
# Input j of a run at seed n is made from, and run with, seed n + j * SEED_STRIDE.
SEED_STRIDE = 1000


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_snornas: int
    n_diseases: int
    within: float
    across: float
    command: str
    settings: tuple[str, ...]
    # Inputs per run, each run once per pass. The program's cost varies by
    # about 10% from input to input, so a run's wall_s is a median over them.
    n_inputs: int

    @property
    def writes_report(self) -> bool:
        return self.command in ("run-all", "evaluate")

    @property
    def writes_rankings(self) -> bool:
        return self.command in ("run-all", "rank")


# cv-dense runs the evaluation layer: five CV folds, each a GBDT fit, an SMO
# fit and scoring, with the pair space small. rank-sparse is bound by k-means
# over the pair space and a GBDT fit, with one SMO fit, and then encodes and
# scores every candidate pair. Problems are small (about 1 s a command) so
# that a run repeats each input many times within the time budget: at
# 200x60 / 400x120 one command takes 10-14 s on a two-core host. A run-all
# workload with the 4x4 (C, gamma) grid is left out: its cost varies by 25%
# from input to input with the SMO's convergence, too much for a steady
# median over the few inputs a run can afford, and below 60x20 some of its
# inputs score a ROC-AUC under the chance floor.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cv-dense", 80, 24, 0.35, 0.01, "evaluate", ("svm_c=10.0", "svm_gamma=0.1"),
            n_inputs=10,
        ),
        Workload(
            "rank-sparse", 160, 48, 0.10, 0.002, "rank", ("svm_c=10.0", "svm_gamma=0.1"),
            n_inputs=10,
        ),
    )
}

# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _source_files() -> list[Path]:
    return sorted(p for p in (SRC / "sda").rglob("*.py") if "__pycache__" not in p.parts)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in _source_files():
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sda_lines": sum(len(p.read_text().splitlines()) for p in _source_files()),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# inputs


@dataclasses.dataclass
class Inputs:
    seed: int
    paths: dict
    snorna_ids: list[str]
    disease_ids: list[str]
    known: set[tuple[str, str]]


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    from sda.synth import make_block_dataset, write_dataset_files

    am, ft, dag = make_block_dataset(
        n_snornas=workload.n_snornas,
        n_diseases=workload.n_diseases,
        n_blocks=N_BLOCKS,
        within=workload.within,
        across=workload.across,
        seed=seed,
    )
    paths = write_dataset_files(str(directory), am, ft, dag)
    known = {
        (am.snorna_ids[s], am.disease_ids[d])
        for s, d in zip(*am.entries.nonzero())
    }
    return Inputs(seed, paths, list(am.snorna_ids), list(am.disease_ids), known)


def input_seeds(workload: Workload, seed: int) -> list[int]:
    """Seeds of the inputs one run uses; the first is the run's own seed."""
    return [seed + SEED_STRIDE * j for j in range(workload.n_inputs)]


def sda_args(workload: Workload, inputs: Inputs) -> list[str]:
    args = [
        workload.command,
        "--set", f"association_path={inputs.paths['association']}",
        "--set", f"feature_path={inputs.paths['features']}",
        "--set", f"dag_path={inputs.paths['dag']}",
        "--seed", str(inputs.seed),
        "--top-k", str(TOP_K),
    ]
    for item in workload.settings:
        args += ["--set", item]
    return args


# ---------------------------------------------------------------------------
# child runs


@dataclasses.dataclass
class Rep:
    mode: str
    inputs: Inputs
    out_dir: Path
    returncode: int
    wall_s: float
    setup_s: float | None
    ref_s: float | None
    peak_rss_mb: float
    trace: dict | None = None
    problems: list[str] = dataclasses.field(default_factory=list)
    quality: dict = dataclasses.field(default_factory=dict)
    digests: dict = dataclasses.field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "input_seed": self.inputs.seed,
            "returncode": self.returncode,
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "ref_s": self.ref_s,
            "peak_rss_mb": self.peak_rss_mb,
            "quality": self.quality,
            "digests": self.digests,
            "problems": self.problems,
        }


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(
    mode: str, workload: Workload, inputs: Inputs, rep_dir: Path, deadline: float
) -> Rep:
    """Run one command in a fresh process and time it from outside."""
    out_dir = rep_dir / "out"
    out_dir.mkdir(parents=True)
    sidecar = rep_dir / "child.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), str(sidecar), mode, "--",
        *sda_args(workload, inputs), "--output-dir", str(out_dir),
    ]
    with open(rep_dir / "stdout.txt", "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    record = {}
    if sidecar.is_file():
        record = json.loads(sidecar.read_text())
    first_call = record.get("first_call")
    numpy_imported = record.get("numpy_imported")
    rep = Rep(
        mode=mode,
        inputs=inputs,
        out_dir=out_dir,
        returncode=proc.returncode,
        wall_s=wall,
        setup_s=None if first_call is None else first_call - start,
        ref_s=None if numpy_imported is None else numpy_imported - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        trace=record.get("trace"),
    )
    if rep.returncode != 0:
        rep.problems.append(f"exit code {rep.returncode}")
    elif rep.setup_s is None:
        rep.problems.append("no pipeline call recorded")
    else:
        check_outputs(workload, rep)
    return rep


# ---------------------------------------------------------------------------
# output checks


def _block(ident: str) -> int:
    return int(ident[3:]) % N_BLOCKS


def check_report(path: Path, problems: list[str], quality: dict) -> None:
    try:
        report = json.loads(path.read_text())
        roc, auprc = float(report["mean"]["roc_auc"]), float(report["mean"]["auprc"])
        n_folds = len(report["folds"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"report.json unreadable: {exc!r}")
        return
    quality["cv_roc_auc"] = roc
    quality["cv_auprc"] = auprc
    if n_folds != 5:
        problems.append(f"report.json has {n_folds} folds, expected 5")
    if not roc > CHANCE_FLOOR:
        problems.append(f"mean ROC-AUC {roc:.4f} not above the floor {CHANCE_FLOOR}")


def check_rankings(path: Path, inputs: Inputs, problems: list[str], quality: dict) -> None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rows = [
                (d, s, float(score), int(rank))
                for d, s, score, rank in csv.reader(fh)
            ]
    except (OSError, ValueError) as exc:
        problems.append(f"rankings.csv unreadable: {exc!r}")
        return
    if header != RANKINGS_HEADER:
        problems.append(f"rankings.csv header is {header!r}")
    if rows != sorted(rows, key=lambda r: (r[0], r[3])):
        problems.append("rankings.csv is not sorted by disease, then rank")
    n_known = {d: 0 for d in inputs.disease_ids}
    for _, d in inputs.known:
        n_known[d] += 1
    by_disease: dict[str, list] = {}
    for row in rows:
        by_disease.setdefault(row[0], []).append(row)
    if set(by_disease) - set(inputs.disease_ids):
        problems.append("rankings.csv names unknown diseases")
    for d in inputs.disease_ids:
        mine = by_disease.get(d, [])
        expect = list(range(1, min(TOP_K, len(inputs.snorna_ids) - n_known[d]) + 1))
        if [r[3] for r in mine] != expect:
            problems.append(f"rankings.csv: disease {d} does not have ranks 1..{len(expect)}")
            break
        scores = [r[2] for r in mine]
        if scores != sorted(scores, reverse=True):
            problems.append(f"rankings.csv: disease {d} scores do not fall with rank")
            break
    leaked = [(s, d) for d, s, _, _ in rows if (s, d) in inputs.known]
    if leaked:
        problems.append(f"rankings.csv lists {len(leaked)} known positive(s), e.g. {leaked[0]}")
    if rows:
        hits = sum(_block(s) == _block(d) for d, s, _, _ in rows)
        quality["topk_block_precision"] = hits / len(rows)
        candidates = len(inputs.snorna_ids) * len(inputs.disease_ids) - len(inputs.known)
        within = sum(
            _block(s) == _block(d)
            for s in inputs.snorna_ids
            for d in inputs.disease_ids
            if (s, d) not in inputs.known
        )
        quality["topk_block_base_rate"] = within / candidates


def check_outputs(workload: Workload, rep: Rep) -> None:
    """Fill ``rep.problems``, ``rep.quality`` and ``rep.digests``."""
    names = []
    if workload.writes_report:
        names.append("report.json")
        check_report(rep.out_dir / "report.json", rep.problems, rep.quality)
    if workload.writes_rankings:
        names.append("rankings.csv")
        check_rankings(rep.out_dir / "rankings.csv", rep.inputs, rep.problems, rep.quality)
    for name in names:
        path = rep.out_dir / name
        if path.is_file():
            rep.digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()


def check_determinism(workload: Workload, reps: list[Rep], ledger_path: Path) -> None:
    """Every run of one input, in this process or an earlier one on the same
    sources, must write byte-identical outputs."""
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    setting = hashlib.sha256(
        f"{workload!r}|blas={BLAS_THREADS}|src={source_digest()}".encode()
    ).hexdigest()
    for rep in reps:
        if not rep.digests:
            continue
        key = f"{workload.name}|seed={rep.inputs.seed}|{setting}"
        reference = ledger.setdefault(key, rep.digests)
        if rep.digests != reference:
            rep.problems.append(f"output digests {rep.digests} differ from {reference}")
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# one benchmark run


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` at ``seed`` and return the result.

    Untraced, every input of the run is run once per pass; after
    ``MIN_PASSES`` passes, another starts only if it would end, at the pace
    of the last one, within ``seconds``. Traced, the first input runs
    ``TRACE_REPEATS`` times plain and traced in turn, and the per-layer
    metrics come from the fastest traced run.
    """
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    run_dir = WORK / f"{workload.name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = [
        make_inputs(workload, s, run_dir / f"input-seed{s}")
        for s in input_seeds(workload, seed)
    ]

    def child(mode: str, inp: Inputs, name: str) -> Rep:
        return run_child(mode, workload, inp, run_dir / name, deadline)

    reps: list[Rep] = []
    traced_reps: list[Rep] = []
    if trace:
        for i in range(TRACE_REPEATS):
            reps.append(child("run", inputs[0], f"rep{i}"))
            traced_reps.append(child("trace", inputs[0], f"traced{i}"))
    else:
        loop_start = time.monotonic()
        passes, last_pass_s = 0, 0.0
        while passes < MIN_PASSES or time.monotonic() - loop_start + last_pass_s <= seconds:
            pass_start = time.monotonic()
            for inp in inputs:
                reps.append(child("run", inp, f"rep{len(reps)}"))
            passes += 1
            last_pass_s = time.monotonic() - pass_start
    timed = reps + traced_reps
    check_determinism(workload, timed, WORK / "digests.json")

    setups = [r.setup_s for r in reps if r.setup_s is not None]
    fastest = {"wall_s": {}, "setup_s": {}, "ref_s": {}}
    for r in reps:
        for name, per_input in fastest.items():
            value = getattr(r, name)
            if value is not None:
                per_input[r.inputs.seed] = min(value, per_input.get(r.inputs.seed, value))
    fastest = {name: list(per_input.values()) for name, per_input in fastest.items()}
    wall_s = statistics.median(fastest["wall_s"])
    ref_s = statistics.median(fastest["ref_s"]) if fastest["ref_s"] else wall_s
    result = {
        "workload": workload.name,
        "seed": seed,
        "input_seeds": [inp.seed for inp in inputs],
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "attempted": len(timed),
        "failed": sum(1 for r in timed if r.problems),
        "problems": sorted({p for r in timed for p in r.problems}),
        "end_to_end": {
            "wall_per_ref": wall_s / ref_s,
            "setup_s": statistics.median(fastest["setup_s"]) if setups else 0.0,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        },
        "wall_s": wall_s,
        "ref_s": ref_s,
        "samples": {
            "wall_s": [r.wall_s for r in reps],
            "ref_s": [r.ref_s for r in reps if r.ref_s is not None],
            "setup_s": setups,
            "peak_rss_mb": [r.peak_rss_mb for r in reps],
        },
        "fastest_per_input": fastest,
        "quality": {},
        "reps": [r.summary() for r in timed],
    }
    for key in ("cv_roc_auc", "cv_auprc", "topk_block_precision", "topk_block_base_rate"):
        values = [r.quality[key] for r in reps if key in r.quality]
        if values:
            result["quality"][key] = statistics.median(values)
    median_auc = result["quality"].get("cv_roc_auc")
    if not trace and median_auc is not None and not median_auc > MEDIAN_AUC_FLOOR:
        result["problems"].append(
            f"median ROC-AUC {median_auc:.4f} not above the floor {MEDIAN_AUC_FLOOR}"
        )
        result["failed"] += 1
    if traced_reps:
        from tracer import layer_metrics

        traced = min(traced_reps, key=lambda r: r.wall_s)
        if any(r.trace is None for r in traced_reps):
            result["problems"].append("a traced run recorded no spans")
            result["failed"] += 1
        else:
            result["trace_record"] = traced.trace
            per_layer = layer_metrics(traced.trace)
            per_layer["trace.wall_s"] = traced.wall_s
            # Both in units of their own start-up time, so that host speed
            # between the plain and the traced command cancels out.
            per_layer["trace.overhead_s"] = (
                traced.wall_s / traced.ref_s - wall_s / ref_s
            ) * traced.ref_s
            result["per_layer"] = per_layer
            (run_dir / "trace.json").write_text(json.dumps(traced.trace) + "\n")
    result["run_s"] = time.monotonic() - run_start
    (run_dir / "result.json").write_text(
        json.dumps({k: v for k, v in result.items() if k != "trace_record"}, indent=1) + "\n"
    )
    return result


# ---------------------------------------------------------------------------
# reporting


def _fmt(values: list[float]) -> str:
    if not values:
        return "n=0"
    return (
        f"median {statistics.median(values):.4f}  min {min(values):.4f}  "
        f"max {max(values):.4f}  n={len(values)}"
    )


def print_result(result: dict, units: dict) -> None:
    print(
        f"== {result['workload']}  seed {result['seed']}  inputs {result['input_seeds']}  "
        f"({result['run_s']:.1f} s)"
    )
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for rep in result["reps"]:
        quality = " ".join(f"{k}={v:.4f}" for k, v in sorted(rep["quality"].items()))
        print(
            f"  {rep['mode']:<5} input {rep['input_seed']:<6} wall {rep['wall_s']:8.3f} s  "
            f"rss {rep['peak_rss_mb']:7.1f} MB  {quality}"
        )
        for name, digest in sorted(rep["digests"].items()):
            print(f"        sha256 {name} {digest}")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<22}{value:>12.4f} {units[name]}")
    for name in ("wall_s", "ref_s"):
        print(f"  {name:<22}{result[name]:>12.4f} s     median of the fastest per input")
    for name, values in result["samples"].items():
        print(f"  {name + ' samples':<34}{_fmt(values)}")
    for name, value in sorted(result["quality"].items()):
        print(f"  {name:<22}{value:>12.4f}       median over the runs")
    print(f"  runs {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if result.get("trace_record"):
        from tracer import format_tables

        print(format_tables(result["trace_record"]))
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<30}{value:>16.4f} {units[name]}")


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sda" / "cli.py").is_file():
        print(f"sda sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = load_units()
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_result(result, units)
        results.append(result)

    def metrics_of(result: dict) -> dict:
        values = result.get("per_layer", {}) if args.trace else result["end_to_end"]
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()
        }
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(not r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
