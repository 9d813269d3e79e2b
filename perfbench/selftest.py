"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload's command on a miniature version of its problem (30
snoRNAs x 10 diseases), plain and traced, through the same code as
``run.py``: the child process, the output checks, the determinism ledger and
the tracer's per-layer metrics. It also feeds the output and determinism
checks broken files and changed digests, which they must reject. Takes about
20 seconds; exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run
from tracer import function_table

MINI = dict(n_snornas=30, n_diseases=10, within=0.9, across=0.01, n_inputs=2)
SEED = 5


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_workload(workload: run.Workload, metric_names: dict) -> None:
    plain = run.measure(workload, seed=SEED, seconds=0.0, trace=False)
    check(not plain["problems"], f"{workload.name}: {plain['problems']}")
    check(plain["failed"] == 0, f"{workload.name}: {plain['failed']} failed runs")
    check(plain["input_seeds"] == [SEED, SEED + run.SEED_STRIDE],
          f"{workload.name}: input seeds {plain['input_seeds']}")
    check(len(plain["samples"]["wall_s"]) == workload.n_inputs * run.MIN_PASSES,
          f"{workload.name}: not {run.MIN_PASSES} runs per input")
    for seed, fastest in zip(plain["input_seeds"], plain["fastest_per_input"]["wall_s"]):
        walls = [r["wall_s"] for r in plain["reps"] if r["input_seed"] == seed]
        check(fastest == min(walls), f"{workload.name}: input {seed} fastest is not its minimum")
    fastest = {k: statistics.median(v) for k, v in plain["fastest_per_input"].items()}
    check(plain["end_to_end"]["wall_per_ref"] == fastest["wall_s"] / fastest["ref_s"],
          f"{workload.name}: wall_per_ref is not the ratio of the median fastest times")
    check(0 < fastest["ref_s"] < fastest["setup_s"] < fastest["wall_s"],
          f"{workload.name}: start-up, set-up and wall times out of order {fastest}")
    check(set(plain["end_to_end"]) == metric_names["end_to_end"],
          f"{workload.name}: end-to-end metrics {sorted(plain['end_to_end'])}")
    check(all(v > 0 for v in plain["end_to_end"].values()),
          f"{workload.name}: a zero end-to-end metric {plain['end_to_end']}")

    traced = run.measure(workload, seed=SEED, seconds=0.0, trace=True)
    check(not traced["problems"], f"{workload.name} traced: {traced['problems']}")
    reps = traced["reps"]
    check([r["mode"] for r in reps] == ["run"] * run.TRACE_REPEATS + ["trace"] * run.TRACE_REPEATS,
          f"{workload.name}: traced run reps")
    check(reps[0]["digests"] and all(r["digests"] == reps[0]["digests"] for r in reps),
          f"{workload.name}: tracing changed the outputs")
    layers = traced["per_layer"]
    check(set(layers) == metric_names["per_layer"],
          f"{workload.name}: per-layer metrics differ from BENCHMARK.json: "
          f"{sorted(set(layers) ^ metric_names['per_layer'])}")
    for name in ("svm.smo_fits", "svm.decision_rows", "boost.encode_rows",
                 "sampling.kmeans_iters", "similarity.calls"):
        check(layers[name] > 0, f"{workload.name}: {name} is {layers[name]}")
    expected_fits = {"evaluate": 5, "rank": 1}[workload.command]
    check(layers["boost.fits"] == expected_fits,
          f"{workload.name}: {layers['boost.fits']} GBDT fits, expected {expected_fits}")
    check(0 < layers["boost.distinct_leaf_ratio"] <= 1,
          f"{workload.name}: distinct leaf ratio {layers['boost.distinct_leaf_ratio']}")
    for name, row in function_table(traced["trace_record"]).items():
        check(row["self_s"] <= row["total_s"] + 1e-9, f"{name}: self time above total time")


def check_rejects_bad_outputs(workload: run.Workload) -> None:
    """The output checks must flag each kind of broken output file."""
    good = run.WORK / f"{workload.name}-seed{SEED}" / "rep0" / "out" / "rankings.csv"
    header, *rows = good.read_text().splitlines()
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        inputs = run.make_inputs(workload, SEED, tmp / "data")
        disease, _, score, rank = rows[0].split(",")
        leaked = next(s for s, d in sorted(inputs.known) if d == disease)
        broken = {
            "header": (["disease,snorna,score,rank"] + rows, "header"),
            "order": ([header] + rows[::-1], "sorted"),
            "missing rank": ([header] + rows[1:], "ranks"),
            "known positive": (
                [header, f"{disease},{leaked},{score},{rank}"] + rows[1:], "known positive"
            ),
        }
        for name, (lines, expect) in broken.items():
            path = tmp / "rankings.csv"
            path.write_text("\n".join(lines) + "\n")
            problems: list[str] = []
            run.check_rankings(path, inputs, problems, {})
            check(any(expect in p for p in problems),
                  f"rankings check missed a bad {name}: {problems}")
        report = tmp / "report.json"
        report.write_text(json.dumps({"mean": {"roc_auc": 0.5, "auprc": 0.5}, "folds": [{}] * 5}))
        problems = []
        run.check_report(report, problems, {})
        check(any("floor" in p for p in problems), "report check accepted a chance-level ROC-AUC")

        changed = run.Rep(
            "run", inputs, tmp, 0, 1.0, 0.1, 0.05, 1.0, digests={"rankings.csv": "0" * 64}
        )
        run.check_determinism(workload, [changed], run.WORK / "digests.json")
        check(any("differ" in p for p in changed.problems),
              "determinism check accepted outputs that changed between runs")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metric_names = {kind: {m["name"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")

    saved = run.WORK, run.TRACE_REPEATS
    run.WORK, run.TRACE_REPEATS = saved[0] / "selftest", 2
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    try:
        for workload in run.WORKLOADS.values():
            mini = dataclasses.replace(workload, name=f"mini-{workload.name}", **MINI)
            check_workload(mini, metric_names)
            if mini.writes_rankings:
                check_rejects_bad_outputs(mini)
            print(f"selftest {workload.name}: ok")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
        run.WORK, run.TRACE_REPEATS = saved
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
