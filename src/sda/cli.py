"""Command-line interface.

    sda prepare   --config cfg.txt            similarity matrices + balanced set
    sda evaluate  --config cfg.txt            cross-validated metrics report
    sda rank      --config cfg.txt --top-k K  ranked candidate associations
    sda run-all   --config cfg.txt            prepare + evaluate + rank
    sda holdout   --config cfg.txt            held-out positive recovery check

One parser serves every command: the command word and the options
``-v``, ``--config``, ``--seed``, ``--top-k``, ``--mode``, ``--strict``,
``--output-dir`` and ``--set KEY=VALUE`` (repeatable) are accepted in any
order, options before the command word too.

Every command is built from three stages, prepare, evaluate and rank; each
stage prints its lines and returns the paths it wrote. ``main`` checks the
command's targets (``pipeline.ARTIFACTS``) before any stage runs, writes
``effective-config.txt`` and prints one ``wrote <path>`` line per path.

``main`` freezes the heap (``gc.freeze()``) once it has parsed its
arguments, so the garbage collector, at interpreter exit too, skips numpy
and the ``sda`` modules. A program that calls ``main`` in-process and keeps
running should call ``gc.unfreeze()`` afterwards, as ``tests/conftest.py``
does.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys

from . import pipeline
from .config import MODES, PipelineConfig, effective_config_text, load_config
from .errors import ConfigError, DataError, NumericError
from .model import Model, SvmParams
from .util import atomic_write_text

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sda",
        description="snoRNA-disease association prediction pipeline",
        epilog="commands:\n" + "\n".join(
            f"  {name:<10}{help_text}" for name, (_, _, help_text) in _COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--top-k", type=int, dest="top_k", help="ranked pairs per disease")
    parser.add_argument("--mode", choices=MODES, help="similarity handling across folds")
    parser.add_argument("--strict", action="store_true", help="treat warnings as errors")
    parser.add_argument("--output-dir", dest="output_dir", help="artifact directory")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides: dict[str, object] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.top_k is not None:
        overrides["top_k"] = args.top_k
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.strict:
        overrides["strict"] = True
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    return load_config(args.config, overrides)


# The three stages. Each prints its lines and returns the paths it wrote.


def _prepare(cfg: PipelineConfig, write: bool) -> tuple[pipeline.PreparedData, list[str]]:
    prepared = pipeline.prepare(cfg)
    paths = pipeline.write_prepared(prepared, cfg.output_dir) if write else []
    am = prepared.am
    print(
        f"dataset {cfg.dataset_name}: {am.n_snornas} snoRNAs x {am.n_diseases} diseases, "
        f"{am.n_known} known associations, balanced set {len(prepared.pairs)} pairs "
        f"(k={prepared.k_used})"
    )
    return prepared, paths


def _evaluate(
    prepared: pipeline.PreparedData, cfg: PipelineConfig, params: SvmParams
) -> list[str]:
    report = pipeline.evaluate(prepared, cfg, params)
    print(
        f"mode={report.mode} mean roc_auc={report.mean['roc_auc']:.4f} "
        f"auprc={report.mean['auprc']:.4f} accuracy={report.mean['accuracy']:.4f} "
        f"f1={report.mean['f1']:.4f}"
    )
    return pipeline.write_report(report, cfg.output_dir)


def _rank(prepared: pipeline.PreparedData, cfg: PipelineConfig, model: Model) -> list[str]:
    predictions, exhausted = pipeline.rank_candidates(prepared, cfg, model)
    for disease_id in exhausted:
        print(f"disease '{disease_id}' has no unknown pairs; zero rows ranked")
    print(f"ranked top {cfg.top_k} per disease: {len(predictions)} rows")
    return pipeline.write_rankings(predictions, cfg.output_dir)


def cmd_prepare(cfg: PipelineConfig) -> list[str]:
    return _prepare(cfg, write=True)[1]


def cmd_evaluate(cfg: PipelineConfig) -> list[str]:
    prepared, _ = _prepare(cfg, write=False)
    return _evaluate(prepared, cfg, pipeline.resolve_svm_params(prepared, cfg))


def cmd_rank(cfg: PipelineConfig) -> list[str]:
    prepared, _ = _prepare(cfg, write=False)
    return _rank(prepared, cfg, pipeline.fit_model(prepared, cfg))


def cmd_run_all(cfg: PipelineConfig) -> list[str]:
    stage = "prepare"
    try:
        prepared, paths = _prepare(cfg, write=True)
        stage = "evaluate"
        # the ranking model's (C, gamma) also serves the CV
        model = pipeline.fit_model(prepared, cfg)
        paths += _evaluate(prepared, cfg, model.params)
        stage = "rank"
        paths += _rank(prepared, cfg, model)
    except (ConfigError, DataError, NumericError) as exc:
        raise type(exc)(f"[stage: {stage}] {exc}") from exc
    return paths


def cmd_holdout(cfg: PipelineConfig) -> list[str]:
    result = pipeline.holdout_inference_check(cfg)
    print(
        f"held out {result['n_held_out']} positives: mean percentile "
        f"{result['mean_percentile']:.2f}, {result['fraction_in_top_k']:.2%} in top "
        f"{result['top_k']}"
    )
    if result["excluded_diseases"]:
        print(f"excluded diseases: {', '.join(result['excluded_diseases'])}")
    return pipeline.write_holdout(result, cfg.output_dir)


# each command, the stages whose artifacts (``pipeline.ARTIFACTS``) it
# writes, and its line in ``--help``
_COMMANDS = {
    "prepare": (
        cmd_prepare, ("prepare",), "build similarity matrices and the balanced pair set"
    ),
    "evaluate": (
        cmd_evaluate, ("evaluate",), "run stratified cross-validation and write the report"
    ),
    "rank": (cmd_rank, ("rank",), "train on the full balanced set and rank unknown pairs"),
    "run-all": (
        cmd_run_all, ("prepare", "evaluate", "rank"), "prepare, evaluate, and rank in one run"
    ),
    "holdout": (
        cmd_holdout, ("holdout",), "hold out known positives and check their recovery"
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    # Everything alive here (numpy, the sda modules, argparse) lives until the
    # process ends: the collector need not walk it again, neither during the
    # run nor in the collections at exit, which walked all of it.
    gc.freeze()
    try:
        cfg = _config_from_args(args)
        command, stages, _ = _COMMANDS[args.command]
        # a target that is a directory fails before any stage runs
        for stage in stages:
            for name in pipeline.ARTIFACTS[stage]:
                path = os.path.join(cfg.output_dir, name)
                if os.path.isdir(path):
                    raise ConfigError(f"cannot write {path}: Is a directory")
        atomic_write_text(
            os.path.join(cfg.output_dir, "effective-config.txt"), effective_config_text(cfg)
        )
        for path in command(cfg):
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 1
    except DataError as exc:
        log.error("data error: %s", exc)
        return 2
    except NumericError as exc:
        log.error("numeric error: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
