"""Power-constrained test scheduling.

Scan testing toggles far more logic than mission mode, so concurrent
core tests are bounded by a power budget as well as by TAM wires —
the scheduling dimension of Iyengar & Chakrabarty (VTS 2001) and
Larsson & Peng (ATS 2001), which the paper's related-work section
cites as one of modular testing's enablers.

Power here is a scalar per core; the default estimator scales with the
toggling volume (scan cells shifting every cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, ScheduleError
from .types import CoreTestSpec, Schedule, ScheduledTest


@dataclass(frozen=True)
class CorePower:
    """Test-mode power rating of one core, in arbitrary consistent units."""

    name: str
    power: float

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ConfigError(f"core {self.name!r}: power must be >= 0")


def default_power_model(specs: Sequence[CoreTestSpec]) -> Dict[str, float]:
    """Shift-toggle proxy: power proportional to switching cells.

    Every scan cell plus wrapper cell toggles each shift cycle; the
    proxy is their count, which tracks the peak-power estimates used in
    the scheduling literature closely enough for ordering purposes.
    """
    return {
        spec.name: float(
            sum(spec.scan_chains) + spec.input_cells + spec.output_cells
        )
        for spec in specs
    }


def schedule_power_constrained(
    specs: Sequence[CoreTestSpec],
    tam_width: int,
    power_budget: float,
    power: Optional[Dict[str, float]] = None,
    preferred_width: int = 4,
) -> Schedule:
    """Greedy shelf scheduling under both wire and power budgets.

    Longest test first; each test starts at the earliest time where
    ``preferred_width`` wires are free *and* the concurrent power stays
    within budget.  Any single core above the budget is rejected — no
    schedule can run it.
    """
    if power is None:
        power = default_power_model(specs)
    width = min(preferred_width, tam_width)
    if width < 1:
        raise ConfigError(f"preferred_width must be >= 1, got {preferred_width}")
    for spec in specs:
        if power[spec.name] > power_budget:
            raise ConfigError(
                f"core {spec.name!r} alone exceeds the power budget "
                f"({power[spec.name]} > {power_budget})"
            )

    durations = {spec.name: spec.test_time_cycles(width) for spec in specs}
    ordered = sorted(specs, key=lambda s: -durations[s.name])
    placed: List[ScheduledTest] = []
    wire_free = [0] * tam_width

    def power_at(instant: int, extra: float) -> float:
        active = sum(
            power[test.core]
            for test in placed
            if test.start <= instant < test.end
        )
        return active + extra

    for spec in ordered:
        duration = durations[spec.name]
        # Candidate start times: wire availabilities and test boundaries.
        candidates = sorted(
            set(wire_free) | {test.end for test in placed} | {0}
        )
        chosen_start = None
        for start in candidates:
            free_wires = [w for w in range(tam_width) if wire_free[w] <= start]
            if len(free_wires) < width:
                continue
            boundaries = [start] + [
                test.start for test in placed if start < test.start < start + duration
            ]
            if all(
                power_at(instant, power[spec.name]) <= power_budget
                for instant in boundaries
            ):
                chosen_start = start
                break
        if chosen_start is None:  # pragma: no cover - candidates include maxima
            chosen_start = max(wire_free)
        free_wires = sorted(
            (w for w in range(tam_width) if wire_free[w] <= chosen_start),
        )[:width]
        end = chosen_start + duration
        for wire in free_wires:
            wire_free[wire] = end
        placed.append(ScheduledTest(spec.name, width, chosen_start, end))

    schedule = Schedule(tam_width=tam_width, tests=placed)
    schedule.verify()
    verify_power(schedule, power, power_budget)
    return schedule


def verify_power(
    schedule: Schedule, power: Dict[str, float], power_budget: float
) -> None:
    """Check the power budget holds at every instant of the schedule.

    Raises :class:`~repro.errors.ScheduleError` (an ``AssertionError``
    subclass, so legacy handlers still catch it) on the first violation.
    """
    events: List[Tuple[int, float]] = []
    for test in schedule.tests:
        events.append((test.start, power[test.core]))
        events.append((test.end, -power[test.core]))
    events.sort()
    active = 0.0
    for _time, delta in events:
        active += delta
        if active > power_budget + 1e-9:
            raise ScheduleError(
                f"power budget {power_budget} exceeded ({active:.1f} active)"
            )


def peak_power(schedule: Schedule, power: Dict[str, float]) -> float:
    """The schedule's maximum instantaneous power."""
    events: List[Tuple[int, float]] = []
    for test in schedule.tests:
        events.append((test.start, power[test.core]))
        events.append((test.end, -power[test.core]))
    events.sort()
    active = 0.0
    peak = 0.0
    for _time, delta in events:
        active += delta
        peak = max(peak, active)
    return peak
