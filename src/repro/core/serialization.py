"""JSON serialization of analysis results and SOC descriptions.

Machine-readable output for pipelines: every analysis dataclass gets a
plain-dict form, SOCs round-trip through JSON, and experiment tables can
be dumped for external plotting.  The schema is flat and stable — field
names match the dataclasses.
"""

from __future__ import annotations

import json
import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..soc.model import Core, Soc
from .analysis import SocAnalysis, analyze
from .decomposition import Decomposition, decompose
from .tdv import TdvSummary, summarize

SCHEMA_VERSION = 1


def soc_to_dict(soc: Soc) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "name": soc.name,
        "top": soc.top_name,
        "cores": [
            {
                "name": core.name,
                "inputs": core.inputs,
                "outputs": core.outputs,
                "bidirs": core.bidirs,
                "scan_cells": core.scan_cells,
                "patterns": core.patterns,
                "children": list(core.children),
            }
            for core in soc
        ],
    }


def soc_from_dict(data: Dict[str, Any]) -> Soc:
    cores = [
        Core(
            name=entry["name"],
            inputs=entry.get("inputs", 0),
            outputs=entry.get("outputs", 0),
            bidirs=entry.get("bidirs", 0),
            scan_cells=entry.get("scan_cells", 0),
            patterns=entry.get("patterns", 0),
            children=list(entry.get("children", [])),
        )
        for entry in data["cores"]
    ]
    return Soc(data["name"], cores, top=data.get("top"))


def summary_to_dict(summary: TdvSummary) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "soc": summary.soc_name,
        "core_count": summary.core_count,
        "monolithic_patterns": summary.monolithic_patterns,
        "tdv_monolithic": summary.tdv_monolithic,
        "tdv_modular": summary.tdv_modular,
        "tdv_penalty": summary.tdv_penalty,
        "tdv_benefit": summary.tdv_benefit,
        "chip_io_residual": summary.chip_io_residual,
        "modular_change_fraction": summary.modular_change_fraction,
        "reduction_ratio": summary.reduction_ratio,
    }


def decomposition_to_dict(decomposition: Decomposition) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "soc": decomposition.soc_name,
        "monolithic_patterns": decomposition.monolithic_patterns,
        "tdv_monolithic": decomposition.tdv_monolithic,
        "tdv_modular": decomposition.tdv_modular,
        "penalty": decomposition.penalty,
        "benefit_strict": decomposition.benefit_strict,
        "benefit_identity": decomposition.benefit_identity,
        "residual": decomposition.residual,
        "per_core": [
            {
                "core": entry.core_name,
                "patterns": entry.patterns,
                "scan_cells": entry.scan_cells,
                "isocost": entry.isocost,
                "penalty": entry.penalty,
                "benefit": entry.benefit,
                "modular_tdv": entry.modular_tdv,
            }
            for entry in decomposition.per_core
        ],
    }


def analysis_report(
    soc: Soc, monolithic_patterns: Optional[int] = None
) -> Dict[str, Any]:
    """The full analysis of one SOC as one JSON-ready dict."""
    summary = summarize(soc, monolithic_patterns=monolithic_patterns)
    decomposition = decompose(soc, monolithic_patterns=monolithic_patterns)
    analysis: SocAnalysis = analyze(soc)
    return {
        "schema": SCHEMA_VERSION,
        "soc": soc_to_dict(soc),
        "summary": summary_to_dict(summary),
        "decomposition": decomposition_to_dict(decomposition),
        "pattern_variation": analysis.pattern_variation,
    }


def table4_report(results: List) -> Dict[str, Any]:
    """The Table 4 reproduction (list of Table4Result) as a dict."""
    rows = []
    for result in results:
        rows.append({
            "soc": result.soc.name,
            "cores": len(result.soc) - 1,
            "norm_stdev": result.variation,
            "measured": summary_to_dict(result.summary),
            "published": {
                "norm_stdev": result.published.norm_stdev,
                "tdv_opt_mono": result.published.tdv_opt_mono,
                "tdv_penalty": result.published.tdv_penalty,
                "tdv_benefit": result.published.tdv_benefit,
                "tdv_modular": result.published.tdv_modular,
                "modular_percent": result.published.modular_percent,
            },
        })
    return {"schema": SCHEMA_VERSION, "table4": rows}


def dumps(data: Dict[str, Any], indent: int = 2) -> str:
    return json.dumps(data, indent=indent, sort_keys=True)


def dumps_spliced(payload: Dict[str, Any], encoded: Dict[str, str]) -> str:
    """``json.dumps(payload, sort_keys=True)`` plus the fields of
    ``encoded``, whose values are already compact JSON text."""
    items = {key: json.dumps(value, sort_keys=True) for key, value in payload.items()}
    items.update(encoded)
    return "{%s}" % ", ".join(f"{json.dumps(k)}: {items[k]}" for k in sorted(items))


def loads_soc(text: str) -> Soc:
    return soc_from_dict(json.loads(text))


# -- ATPG results -------------------------------------------------------------
#
# The runtime cache (repro.runtime.cache) persists AtpgResult values on
# disk through these converters.  Pattern assignments are keyed by
# compiled net id — deterministic for a given netlist, so they survive
# the round-trip as long as the cache key covers the netlist content
# (it does: see repro.runtime.cache.netlist_fingerprint).  The atpg
# imports are function-local: repro.core is imported by the top-level
# package and must stay independent of the ATPG stack at module scope.


def test_pattern_to_dict(pattern) -> Dict[str, Any]:
    """One TestPattern as {net id (str): 0/1}; unlisted inputs are X."""
    return {str(net_id): value for net_id, value in pattern.assignments.items()}


def test_pattern_from_dict(data: Dict[str, Any]):
    from ..atpg.patterns import TestPattern

    return TestPattern({int(net_id): value for net_id, value in data.items()})


def test_set_to_dict(test_set) -> Dict[str, Any]:
    return {
        "circuit": test_set.circuit_name,
        "patterns": [test_pattern_to_dict(p) for p in test_set.patterns],
    }


def test_set_from_dict(data: Dict[str, Any]):
    from ..atpg.patterns import TestSet

    return TestSet(
        circuit_name=data["circuit"],
        patterns=[test_pattern_from_dict(p) for p in data["patterns"]],
    )


def fault_to_dict(fault) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"net": fault.net, "stuck_at": fault.stuck_at}
    if fault.gate_index is not None:
        entry["gate_index"] = fault.gate_index
        entry["pin"] = fault.pin
    return entry


def fault_from_dict(data: Dict[str, Any]):
    from ..atpg.faults import Fault

    return Fault(
        net=data["net"],
        stuck_at=data["stuck_at"],
        gate_index=data.get("gate_index"),
        pin=data.get("pin"),
    )


def _result_fields(result, test_set: Any) -> Dict[str, Any]:
    """The layout of one AtpgResult, with its test set given apart."""
    return {
        "schema": SCHEMA_VERSION,
        "circuit": result.circuit_name,
        "test_set": test_set,
        "fault_count": result.fault_count,
        "detected_count": result.detected_count,
        "untestable": [fault_to_dict(f) for f in result.untestable],
        "aborted": [fault_to_dict(f) for f in result.aborted],
        "random_pattern_count": result.random_pattern_count,
        "deterministic_pattern_count": result.deterministic_pattern_count,
        "pre_compaction_count": result.pre_compaction_count,
    }


def atpg_result_to_dict(result) -> Dict[str, Any]:
    """One AtpgResult as a JSON-ready dict (schema-versioned)."""
    return _result_fields(result, test_set_to_dict(result.test_set))


def _pattern_template(net_ids) -> Tuple[str, Callable[[Dict[int, int]], tuple]]:
    """A ``%``-format rendering of any pattern over these net ids, keys in
    ``sort_keys`` order (as strings, so ``"10"`` precedes ``"2"``), and
    the getter of its values in that order."""
    order = sorted(net_ids, key=str)
    template = "{%s}" % ", ".join('"%d": %%d' % net_id for net_id in order)
    if len(order) > 1:
        return template, operator.itemgetter(*order)
    return template, lambda assignments: tuple(assignments[n] for n in order)


def _test_set_json(test_set) -> str:
    templates: Dict[tuple, Tuple[str, Callable]] = {}
    parts = []
    for pattern in test_set.patterns:
        assignments = pattern.assignments
        shape = tuple(assignments)
        if shape not in templates:
            templates[shape] = _pattern_template(shape)
        template, getter = templates[shape]
        values = getter(assignments)
        # Only plain int 0/1 values (no bool, no float) take the template.
        if {*values} <= {0, 1} and {*map(type, values)} <= {int}:
            parts.append(template % values)
        else:
            parts.append(json.dumps(test_pattern_to_dict(pattern), sort_keys=True))
    return '{"circuit": %s, "patterns": [%s]}' % (
        json.dumps(test_set.circuit_name),
        ", ".join(parts),
    )


def atpg_result_json(result) -> str:
    """``json.dumps(atpg_result_to_dict(result), sort_keys=True)``, byte
    for byte, without building a dict per pattern: the patterns are
    rendered through one template per distinct net-id set."""
    return dumps_spliced(
        _result_fields(result, None), {"test_set": _test_set_json(result.test_set)}
    )


def atpg_result_from_dict(data: Dict[str, Any]):
    from ..atpg.engine import AtpgResult

    return AtpgResult(
        circuit_name=data["circuit"],
        test_set=test_set_from_dict(data["test_set"]),
        fault_count=data["fault_count"],
        detected_count=data["detected_count"],
        untestable=[fault_from_dict(f) for f in data["untestable"]],
        aborted=[fault_from_dict(f) for f in data["aborted"]],
        random_pattern_count=data["random_pattern_count"],
        deterministic_pattern_count=data["deterministic_pattern_count"],
        pre_compaction_count=data["pre_compaction_count"],
    )
