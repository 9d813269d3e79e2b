"""One timed ``sda`` command, run in a fresh process by ``run.py``.

    python3 child.py SIDECAR MODE -- SDA_ARGS...

MODE is ``run`` (the plain command) or ``trace`` (the command with every
public ``sda`` function wrapped by ``tracer.Tracer``). The child writes
SIDECAR (JSON) when it ends: the ``time.monotonic()`` readings once numpy is
imported, before any ``sda`` code runs, and at the first pipeline call, which
``run.py`` turns into ``ref_s`` (interpreter start and importing numpy) and
``setup_s`` (that, importing ``sda.cli`` and resolving the config), and in
trace mode the recorded spans.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    sidecar, mode, sep = sys.argv[1:4]
    if sep != "--" or mode not in ("run", "trace"):
        raise SystemExit("usage: child.py SIDECAR run|trace -- SDA_ARGS...")
    argv = sys.argv[4:]
    record: dict = {"first_call": None}

    import numpy  # noqa: F401

    record["numpy_imported"] = time.monotonic()
    from sda import cli, pipeline

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def stamped(fn):
        def first_pipeline_call(*args, **kwargs):
            if record["first_call"] is None:
                record["first_call"] = time.monotonic()
            return fn(*args, **kwargs)

        return first_pipeline_call

    # cli reaches the pipeline only through these module attributes.
    pipeline.prepare = stamped(pipeline.prepare)
    pipeline.holdout_inference_check = stamped(pipeline.holdout_inference_check)

    try:
        rc = cli.main(argv)
    finally:
        if tracer is not None:
            record["trace"] = tracer.record()
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
