"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload soc_atpg_cold --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Every repetition runs in a fresh interpreter (``rep.py``) with its own
cache, journal and store directories under ``.perfbench_work/``, closed
loop with one caller and ``workers=1``.  Repetitions continue while
the next one, as long as the last, would end within ``--seconds`` of
wall time (at least MIN_REPS of them).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.
The last line of standard output is one JSON object; the exit code is
0 only when every correctness gate held.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import Tally, tail_percentile  # noqa: E402

WORKLOADS = ("soc_atpg_cold", "tam_sweep", "population_sweep")

#: The end-to-end metrics: name -> unit.  ``error_rate`` is reported as
#: ``failed``/``attempted`` in the result line and in the printed table.
END_TO_END: Dict[str, str] = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

MIN_REPS = 3  # per run
MIN_TRACE_REPS = 4  # per trace run: two traced, two untraced
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0

#: Variables that would point the program at state outside the run's
#: own directories, or change what it computes.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_POPULATION_N", "REPRO_POPULATION_SHARD")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed gate)."""


def git_commit(root: Path) -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(workdir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # No temp files outside the checkout.
    env["TMPDIR"] = str(workdir)
    return env


def launch(args: List[str], env: Dict[str, str]) -> Tuple[float, dict]:
    """Run ``rep.py`` once; (launch-to-ready seconds, its JSON result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    # A hung repetition is killed; the reads below then see end of file.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(
            f"repetition failed (exit {proc.returncode}): {' '.join(args)}"
        )
    return setup_s, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workroot: Path) -> dict:
    """One run of one workload: every repetition plus the run's tally."""
    rundir = workroot / workload
    rundir.mkdir(parents=True)
    env = child_env(rundir)
    base = ["--workload", workload, "--seed", str(seed)]

    def rep_args(name: str) -> List[str]:
        return base + ["--workdir", str(rundir / name)]

    # Untimed: compiles bytecode on a fresh checkout and proves the
    # package imports; its report gives the host facts.
    _, host = launch(rep_args("warmup") + ["--setup-only"], env)

    tally = Tally()
    reps: List[dict] = []
    setups: List[float] = []
    start = time.perf_counter()
    minimum = MIN_TRACE_REPS if trace else MIN_REPS
    last = 0.0  # wall seconds of the previous repetition, launch to cleanup
    while len(reps) < minimum or time.perf_counter() - start + last <= seconds:
        launched = time.perf_counter()
        index = len(reps)
        args = rep_args(f"rep{index}") + ["--trace", str(int(trace and index % 2))]
        if index == 0:
            args.append("--first")
        setup_s, rep = launch(args, env)
        shutil.rmtree(rundir / f"rep{index}", ignore_errors=True)
        last = time.perf_counter() - launched
        setups.append(setup_s)
        reps.append(rep)
        tally.attempted += rep["attempted"]
        tally.failed += rep["failed"]
        tally.failures.extend(rep["failures"])
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(launch(rep_args("setup") + ["--setup-only"], env)[0])

    digests = {rep.get("digest") for rep in reps}
    tally.check("every repetition produced the same outputs",
                len(digests) == 1 and None not in digests)
    return {"host": host, "reps": reps, "setups": setups, "tally": tally}


def end_to_end(run: dict) -> Dict[str, List[float]]:
    reps = [rep for rep in run["reps"] if not rep["traced"] and "run_s" in rep]
    if not reps:
        raise BenchError("no repetition completed its timed region")
    samples = {
        name: [rep[name] for rep in reps] for name in ("run_s", "cpu_s", "peak_rss_mb")
    }
    samples["setup_s"] = run["setups"]
    return {name: samples[name] for name in END_TO_END}


def per_layer(run: dict) -> Dict[str, float]:
    traced = [rep for rep in run["reps"] if rep["traced"] and "layers" in rep]
    plain = [rep["run_s"] for rep in run["reps"] if not rep["traced"] and "run_s" in rep]
    if not traced or not plain:
        raise BenchError("a trace run needs traced and untraced repetitions")
    values = {
        name: statistics.median([rep["layers"][name] for rep in traced])
        for name in traced[0]["layers"]
    }
    values["trace_overhead_s"] = (
        statistics.median([rep["run_s"] for rep in traced]) - statistics.median(plain)
    )
    return values


def report(workload: str, seed: int, trace: bool, run: dict) -> Dict[str, dict]:
    """Print the run's table; return its metrics in result-line form."""
    host, tally = run["host"], run["tally"]
    print(f"perfbench {workload}: seed={seed} trace={int(trace)} "
          f"repetitions={len(run['reps'])} workers=1")
    print(f"  host: cpus={os.cpu_count()} python={host['python']} "
          f"numpy={host['numpy']} backend={host['backend']} "
          f"commit={git_commit(ROOT)} seed={seed}")
    metrics: Dict[str, dict] = {}
    if trace:
        units = next(rep["layer_units"] for rep in run["reps"] if "layer_units" in rep)
        for name, value in per_layer(run).items():
            unit = units[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<32} {value:>16.6g} {unit}")
    else:
        for name, samples in end_to_end(run).items():
            unit = END_TO_END[name]
            value = statistics.median(samples)
            tail = tail_percentile(samples)
            tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "p- (n <= 10)"
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<12} median {value:>10.4f} {unit:<3} "
                  f"{tail_text:<16} n={len(samples)}")
    print(f"  error_rate   {tally.error_rate:.4f} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=3,
                        help="input seed (default 3, the Tables 1-2 seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="wall seconds of repetitions per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_CHAOS"):
        print("perfbench: refusing to run with REPRO_CHAOS set; injected "
              "faults would pass as error_rate", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workroot = ROOT / ".perfbench_work" / str(os.getpid())
    results: Dict[str, Dict[str, dict]] = {}
    total = Tally()
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace), workroot)
            results[name] = report(name, args.seed, bool(args.trace), run)
            total.attempted += run["tally"].attempted
            total.failed += run["tally"].failed
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass

    metrics = results[names[0]] if len(names) == 1 else results
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
