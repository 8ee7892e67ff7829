"""The benchmark workloads: inputs from a seed, a timed body, gates.

Each workload drives the same public entry points ``repro experiments``
uses, closed loop with one caller and ``workers=1``:

``soc_atpg_cold``
    Tables 1-2: SOC1 and SOC2 elaborated from the seed, every unique
    core profile plus the glue and the flattened monolithic netlist
    through ``Runtime(workers=1)`` with an empty on-disk result cache
    and a fresh run journal, then ``decompose`` and the TDV tables.
``tam_sweep``
    The tam experiment's 360-point ITC'02 grid plus a seeded block of
    SOCs from ``population_spec``, through ``SweepEngine`` and a
    ``ParetoFront``.
``population_sweep``
    The population experiment at N = POPULATION_N with its aggregators,
    journaling shards into a ``ShardStore`` under the journal directory.

A repetition keeps its result cache in ``workdir/cache`` and its run
journal, with any shard store under it, in ``workdir/journal``.

A workload is ``run`` (the timed region: input generation, the job set
and the TDV evaluation), ``check`` (untimed correctness gates counted
into a :class:`~stats.Tally`) and ``digest`` (a hash of the outputs,
which must agree across repetitions).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict

import repro.tam
from repro.atpg.compiled import CompiledCircuit
from repro.atpg.faults import collapse_faults
from repro.atpg.faultsim import fault_coverage
from repro.core import sweep as core_sweep
from repro.core.serialization import atpg_result_to_dict
from repro.core.tdv import tdv_monolithic
from repro.experiments import iscas_socs
from repro.experiments import population as population_experiment
from repro.experiments import tam as tam_experiment
from repro.runtime import AtpgResultCache, RunJournal, Runtime
from repro.sweeps import Axis, ParetoFront, SweepEngine, SweepSpec, derive_seed
from repro.synth.population import population_spec
from repro.tam import TamProblem, cooptimize

from stats import Tally

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The seed Tables 1-2 are printed with; at this seed the SOC workloads'
#: output must equal the committed ``repro experiments table1/table2``
#: output byte for byte.
TABLES_SEED = 3

#: Population size: a few seconds of cheap points, so the sweep
#: engine's per-shard overhead is visible next to the TDV model.
POPULATION_N = 10000

#: SOCs in the seeded synthetic block appended to the ITC'02 tam grid:
#: 3 x 36 = 108 points, under a third of the grid's 360.  Latin sampling
#: puts each SOC in its own third of every population axis.
TAM_SYNTHETIC_SOCS = 3


@dataclass
class Context:
    """What one repetition knows about its run."""

    seed: int
    workdir: Path  # this repetition's private directory
    first: bool  # the run's first measured repetition


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Context], Any]
    check: Callable[[Context, Any, Tally], None]
    digest: Callable[[Any], str]


def _sha(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


# -- SOC ATPG (Tables 1-2) ---------------------------------------------------


def run_soc_tables(seed: int, cache_dir: Path, journal_dir: Path):
    """SOC1 then SOC2 through one runtime, printing what the CLI prints."""
    runtime = Runtime(
        workers=1,
        cache=AtpgResultCache(cache_dir),
        journal=RunJournal(journal_dir),
    )
    tables = {}
    for table in (1, 2):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            experiment = iscas_socs.run(table=table, seed=seed, runtime=runtime)
        tables[table] = (experiment, printed.getvalue())
    return runtime, tables


def soc_digest(outcome) -> str:
    """The printed tables plus every ATPG result, serialized."""
    _runtime, tables = outcome
    parts = []
    for experiment, printed in tables.values():
        parts.append(printed)
        unique = dict.fromkeys(
            profile for _instance, profile in experiment.design.instances
        )
        by_profile = {
            profile: experiment.core_results[instance]
            for instance, profile in experiment.design.instances
        }
        results = [by_profile[profile] for profile in unique]
        results += [experiment.glue_result, experiment.mono_result]
        parts.extend(
            json.dumps(atpg_result_to_dict(result), sort_keys=True)
            for result in results
        )
    return _sha(*parts)


def check_soc_tables(seed: int, outcome, tally: Tally) -> None:
    """Gates on the job set, the cache and the printed tables."""
    runtime, tables = outcome
    manifest = runtime.manifest
    tally.ops("atpg jobs", manifest.job_count, len(manifest.failed_jobs))
    stats = runtime.cache.stats
    tally.ops("cache lookups", stats.lookups, stats.quarantined)
    for table, (experiment, printed) in tables.items():
        mono = experiment.monolithic_patterns
        biggest = experiment.max_core_patterns
        tally.check(
            f"table{table}: Eq. 2 holds", mono > biggest,
            f"mono {mono} vs max core {biggest}",
        )
        modular = experiment.decomposition.tdv_modular
        monolithic = tdv_monolithic(experiment.soc, mono)
        tally.check(
            f"table{table}: modular TDV < monolithic TDV", modular < monolithic,
            f"{modular} vs {monolithic}",
        )
        if seed == TABLES_SEED:
            reference = REFERENCE_DIR / f"table{table}_seed{seed}.txt"
            tally.check(
                f"table{table}: output equals `repro experiments table{table}`",
                printed.rstrip("\n") == reference.read_text().rstrip("\n"),
            )


def check_monolithic_coverage(outcome, tally: Tally) -> None:
    """Re-simulate each monolithic test set against the full fault list."""
    _runtime, tables = outcome
    for table, (experiment, _printed) in tables.items():
        result = experiment.mono_result
        circuit = CompiledCircuit(experiment.design.monolithic)
        faults = collapse_faults(circuit)
        coverage = fault_coverage(
            circuit, [pattern.assignments for pattern in result.test_set], faults
        )
        detected = round(coverage * len(faults))
        tally.check(
            f"table{table}: monolithic coverage confirmed by re-simulation",
            len(faults) == result.fault_count
            and detected == result.detected_count,
            f"{detected}/{len(faults)} vs claimed "
            f"{result.detected_count}/{result.fault_count}",
        )


def _cold_run(ctx: Context):
    return run_soc_tables(ctx.seed, ctx.workdir / "cache", ctx.workdir / "journal")


def _cold_check(ctx: Context, outcome, tally: Tally) -> None:
    check_soc_tables(ctx.seed, outcome, tally)
    if ctx.first:
        check_monolithic_coverage(outcome, tally)


# -- TAM sweep ---------------------------------------------------------------


def synthetic_tam_population(seed: int) -> SweepSpec:
    """The tam block's SOCs: a profile-matched population of
    TAM_SYNTHETIC_SOCS, drawn the way the population experiment draws."""
    return population_spec(TAM_SYNTHETIC_SOCS, derive_seed(seed, "tam"))


@functools.lru_cache(maxsize=None)
def _synthetic_cores(population_seed: int, index: int, chain_count: int):
    point = list(population_spec(TAM_SYNTHETIC_SOCS, population_seed).points())[index]
    params = point.params
    soc = core_sweep.synthetic_soc(
        name=f"syn{index}",
        core_count=int(params["core_count"]),
        mean_patterns=max(1, round(params["mean_patterns"])),
        pattern_spread=params["pattern_spread"],
        scan_cells_per_core=max(1, round(params["scan_cells_per_core"])),
        io_per_core=max(2, round(params["io_per_core"])),
        seed=point.seed,
        core_seed_streams=True,
    )
    return tuple(
        repro.tam.core_specs_from_soc(soc, default_chain_count=chain_count)
    )


def evaluate_synthetic_tam_point(point) -> Dict[str, Any]:
    """``evaluate_tam_point`` for a synthetic SOC named by its index."""
    params = point.params
    strategy = params["strategy"]
    problem = TamProblem(
        cores=_synthetic_cores(
            params["population_seed"], params["soc"],
            tam_experiment.WRAPPER_STRATEGIES[strategy],
        ),
        tam_width=params["tam_width"],
    )
    result = cooptimize(problem, scheduler=params["scheduler"])
    result.schedule.verify()
    record = result.as_record()
    record["soc"] = f"syn{params['soc']}"
    record["strategy"] = strategy
    record["verified"] = True
    return record


def synthetic_tam_spec(seed: int) -> SweepSpec:
    return SweepSpec(
        name="tam_synthetic",
        axes=(
            Axis.grid("population_seed", [synthetic_tam_population(seed).seed]),
            Axis.grid("soc", list(range(TAM_SYNTHETIC_SOCS))),
            Axis.grid("strategy", list(tam_experiment.WRAPPER_STRATEGIES)),
            Axis.grid("scheduler", list(tam_experiment.DEFAULT_SCHEDULERS)),
            Axis.grid("tam_width", list(tam_experiment.DEFAULT_TAM_WIDTHS)),
        ),
        seed=seed,
    )


def _tam_run(ctx: Context):
    runtime = Runtime(workers=1)
    front_path = ctx.workdir / "tam_front.json"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        itc02 = tam_experiment.run(runtime=runtime, front_path=str(front_path))
    front = ParetoFront(
        fields=("tam_width", "makespan", "delivered_bits"),
        keep=("soc", "strategy", "scheduler"),
    )
    synthetic = SweepEngine(
        runtime, shard_size=tam_experiment.DEFAULT_SHARD_SIZE
    ).run(
        synthetic_tam_spec(ctx.seed),
        evaluate_synthetic_tam_point,
        aggregators=(front,),
        collect=True,
    )
    return {
        "itc02": itc02,
        "itc02_front": front_path.read_text(),
        "itc02_report": printed.getvalue(),
        "synthetic": synthetic,
    }


def check_tam_records(label: str, records, expected: int, tally: Tally) -> None:
    """Per-point invariants: verified, above the lower bound, binpack <= greedy."""
    greedy = {
        (r["soc"], r["strategy"], r["tam_width"]): r["makespan"]
        for r in records if r["scheduler"] == "greedy"
    }
    bad = 0
    for record in records:
        cell = (record["soc"], record["strategy"], record["tam_width"])
        ok = record.get("verified") is True and record["makespan"] >= record["lower_bound"]
        if record["scheduler"] == "binpack":
            ok = ok and cell in greedy and record["makespan"] <= greedy[cell]
        bad += not ok
    tally.ops(f"{label} sweep points", expected, bad + max(0, expected - len(records)))


def _tam_check(ctx: Context, outcome, tally: Tally) -> None:
    for label in ("itc02", "synthetic"):
        result = outcome[label]
        check_tam_records(label, result.records or [], result.point_count, tally)
    tally.check(
        "itc02 grid has 360 points", outcome["itc02"].point_count == 360,
        str(outcome["itc02"].point_count),
    )
    tally.check(
        "itc02 Pareto front equals `repro experiments tam --tam-front`",
        outcome["itc02_front"] == (REFERENCE_DIR / "tam_front.json").read_text(),
    )
    tally.check(
        "tam experiment acceptance checks all PASS",
        "FAIL" not in outcome["itc02_report"]
        and outcome["itc02_report"].count(": PASS") == 4,
    )


def _tam_digest(outcome) -> str:
    return _sha(
        outcome["itc02_front"],
        outcome["itc02_report"],
        json.dumps(outcome["synthetic"].records, sort_keys=True),
    )


# -- population sweep --------------------------------------------------------


def _population_run(ctx: Context):
    runtime = Runtime(workers=1, journal=RunJournal(ctx.workdir / "journal"))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        result = population_experiment.run(
            seed=ctx.seed, runtime=runtime, samples=POPULATION_N
        )
    return result


def check_population(aggregates: Dict[str, Dict[str, Any]], expected: int, tally: Tally) -> None:
    regression = aggregates["regression(reduction_pct ~ nsd)"]
    seen = regression["count"]
    tally.ops("population sweep points", expected, max(0, expected - seen))
    tally.check(f"population has {expected} records", seen == expected, str(seen))
    pearson = regression["pearson"]
    tally.check(
        f"Pearson r >= {population_experiment.MIN_PEARSON:.2f}",
        pearson >= population_experiment.MIN_PEARSON,
        f"r = {pearson:+.3f}",
    )


def _population_check(ctx: Context, result, tally: Tally) -> None:
    check_population(result.aggregates, POPULATION_N, tally)
    shards = ctx.workdir / "journal" / "sweeps" / "population" / "shards"
    shard_files = list(shards.glob("shard-*.json"))
    tally.check(
        "every shard journaled", len(shard_files) == result.shard_count,
        f"{len(shard_files)}/{result.shard_count}",
    )


def _population_digest(result) -> str:
    return _sha(json.dumps(result.aggregates, sort_keys=True))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "soc_atpg_cold", run=_cold_run, check=_cold_check, digest=soc_digest,
        ),
        Workload(
            "tam_sweep", run=_tam_run, check=_tam_check, digest=_tam_digest,
        ),
        Workload(
            "population_sweep", run=_population_run, check=_population_check,
            digest=_population_digest,
        ),
    )
}
