"""One benchmark repetition in a fresh interpreter; ``run.py`` launches it.

Protocol on stdout: the line ``ready`` once ``repro`` and the workload
modules are imported and the kernel backend is resolved (the parent
times launch-to-ready as ``setup_s``), then one JSON line with what the
repetition measured.  ``--setup-only`` stops after ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.atpg.backends import resolve_backend

    backend = resolve_backend().name
    import workloads
    from stats import Tally

    print("ready", flush=True)

    ctx = workloads.Context(
        seed=args.seed,
        workdir=Path(args.workdir),
        first=args.first,
    )
    if args.setup_only:
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = "absent"
        print(json.dumps({
            "python": sys.version.split()[0],
            "numpy": numpy_version,
            "backend": backend,
        }))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    result = {"traced": bool(args.trace)}
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        with contextlib.ExitStack() as stack:
            if args.trace:
                import layers
                from repro.observability import Tracer, use_tracer

                tracer = Tracer()
                stack.enter_context(layers.instrumented())
                stack.enter_context(use_tracer(tracer))
            start = time.perf_counter()
            outcome = workload.run(ctx)
            run_s = time.perf_counter() - start
            # The whole process so far: start-up, set-up and the timed
            # region, but not the gates below.
            cpu_s = _cpu_seconds()
        if tracer is not None:
            result["layers"] = layers.layer_metrics(tracer, run_s)
            result["layers"].update(layers.disk_metrics(ctx.workdir))
            result["layer_units"] = layers.PER_LAYER
        result.update(run_s=run_s, cpu_s=cpu_s, peak_rss_mb=_peak_rss_mb())
        workload.check(ctx, outcome, tally)
        result["digest"] = workload.digest(outcome)
    except Exception:  # a crashed repetition is a failed operation, reported
        traceback.print_exc()
        tally.ops("repetition", 1, 1)
    result.update(
        attempted=tally.attempted, failed=tally.failed, failures=tally.failures
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
