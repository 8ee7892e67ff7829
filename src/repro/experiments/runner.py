"""The experiment registry runner behind ``repro experiments <name>``.

Experiments map one-to-one to the paper's tables and figures:

===============  ======================================================
``cone-example`` Section 3 worked example (Figures 1-2)
``table1``       SOC1 from ISCAS'89-profile cores (Table 1, Figure 4)
``table2``       SOC2 from ISCAS'89-profile cores (Table 2, Figure 5)
``table3``       p34392 per-core TDV (Table 3, Figure 3)
``table4``       all ten ITC'02 SOCs (Table 4)
``correlation``  reduction vs pattern-count variation (Section 5.2)
``ablation``     idle bits / wrapper overhead / granularity
``extensions``   BIST / compression / abort-on-fail follow-on studies
``tam``          wrapper/TAM co-optimization design space (ROADMAP 3)
``population``   Section 5.2's correlation at N=1000+ synthetic SOCs
``all``          everything above, in order
===============  ======================================================

The table is not maintained by hand: each experiment module registers
its entry point with :func:`repro.experiments.registry.experiment`,
and ``EXPERIMENTS`` is derived from that registry at import time.

Every experiment executes its ATPG through :mod:`repro.runtime`: the
shared ``--workers`` / ``--cache-dir`` / ``--no-cache`` flags control
parallel fan-out and the content-addressed result cache, and a run
manifest (job count, cache hit rate, ATPG wall-clock) is printed to
stderr so table output on stdout stays byte-identical across serial,
parallel and warm-cache runs.  The resilience flags (``--deadline``,
``--retries``, ``--on-error``) harden long campaigns, and ``--run-dir``
/ ``--resume`` journal completed jobs so a killed run picks up where
it stopped — with byte-identical output.

``--seed`` is threaded into every experiment uniformly.  Left unset,
each experiment keeps its historical default seed (it used to be
silently dropped for everything except tables 1-2); the analytic
experiments (table3/table4, correlation's benchmark half, ablation)
have no stochastic component and ignore it by construction.

The flag plumbing itself (``add_runtime_arguments`` & co.) lives in
the shared registry :mod:`repro.flags`; the historical names are
re-exported here so pre-consolidation imports keep working.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Mapping, Optional, Sequence

from ..flags import (  # noqa: F401 — re-exported for back-compat
    add_experiment_arguments,
    add_runtime_arguments,
    experiment_options,
    maybe_profile,
    report_runtime,
    runtime_from_args,
)
from ..observability import register_counter
from ..runtime.session import Runtime, ensure_runtime
from . import (  # noqa: F401 — importing registers each experiment
    ablation,
    cone_example,
    correlation,
    extensions,
    iscas_socs,
    itc02_tables,
    population,
    tam,
)
from .registry import get as get_experiment
from .registry import names as experiment_names

EXPERIMENTS = experiment_names()

EXPERIMENT_RUNS = register_counter("experiments.runs", "experiments executed")


def _accepted_options(
    run: Any, options: Optional[Mapping[str, Any]]
) -> Dict[str, Any]:
    """The subset of ``options`` the experiment's ``run`` accepts.

    Experiment-specific flags (``--tam-widths``, ...) are threaded by
    keyword; an experiment that doesn't take one simply doesn't get it,
    so ``all`` runs apply each option only where it belongs.
    """
    if not options:
        return {}
    parameters = inspect.signature(run).parameters
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    ):
        return dict(options)
    return {key: value for key, value in options.items() if key in parameters}


def run_experiment(
    name: str,
    seed: Optional[int] = None,
    runtime: Optional[Runtime] = None,
    options: Optional[Mapping[str, Any]] = None,
) -> None:
    """Run one experiment, threading seed and runtime into it.

    The whole experiment runs under the runtime's tracer (if any), so
    even its non-runtime work lands inside one ``experiment`` span.
    ``options`` carries experiment-specific keyword arguments; only
    those the experiment accepts are passed.  An unknown name raises
    ValueError.
    """
    entry = get_experiment(name)
    runtime = ensure_runtime(runtime)
    extra = _accepted_options(entry.run, options)
    with runtime.activate() as tracer:
        with tracer.span("experiment", name=name):
            tracer.count(EXPERIMENT_RUNS)
            entry.run(seed=seed, runtime=runtime, **extra)


def run_experiments(
    names: Sequence[str],
    seed: Optional[int] = None,
    runtime: Optional[Runtime] = None,
    options: Optional[Mapping[str, Any]] = None,
) -> None:
    """Run several experiments, each followed by a blank line.

    Experiments sharing one underlying runner (``table3``/``table4``,
    which both print the combined ITC'02 report) run once per group,
    not once per name — the behavior both CLIs used to hand-roll.
    """
    seen = set()
    for name in names:
        key = get_experiment(name).dedupe_key
        if key in seen:
            continue
        seen.add(key)
        run_experiment(name, seed=seed, runtime=runtime, options=options)
        print()

