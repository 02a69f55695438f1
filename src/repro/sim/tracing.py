"""Trace analysis: frontend delivery traces and transient CFGs.

Figure 3 of the paper illustrates the frontend resteer inside a transient
window (DSB delivery collapsing to MITE after the clear); Figure 4 draws
the control-flow graph of the transient execution with the trigger and
not-trigger paths.  Both are derived here from a run's uop records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.uarch.core import RunResult
from repro.uarch.uop import UopRecord

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class FrontendTraceEntry:
    """One dispatched instruction as the frontend saw it."""

    cycle: int
    pc: int
    mnemonic: str
    source: str  # dsb | mite | ms
    transient: bool
    squashed: bool


def frontend_trace(result: RunResult) -> List[FrontendTraceEntry]:
    """Per-instruction frontend delivery trace (requires record_trace)."""
    if result.records is None:
        raise ValueError("run was not traced; pass record_trace=True")
    return [
        FrontendTraceEntry(
            cycle=record.dispatch_cycle,
            pc=record.pc,
            mnemonic=str(record.instruction),
            source=record.source,
            transient=record.transient,
            squashed=record.squashed,
        )
        for record in result.records
    ]


def delivery_source_histogram(result: RunResult, transient_only: bool = False) -> Dict[str, int]:
    """Uops delivered per frontend source (the IDQ story of Table 3)."""
    if result.records is None:
        raise ValueError("run was not traced; pass record_trace=True")
    histogram: Dict[str, int] = {"dsb": 0, "mite": 0, "ms": 0}
    for record in result.records:
        if transient_only and not record.transient:
            continue
        histogram[record.source] += record.uop_count
    return histogram


def control_flow_graph(result: RunResult) -> nx.DiGraph:
    """The executed control-flow graph, annotated like Figure 4.

    Nodes are instruction addresses with ``mnemonic`` and per-path uop
    counters (``committed_visits`` / ``transient_visits``); edges carry
    ``committed`` / ``transient`` traversal counts.  Squashed records are
    the transient path.  ``networkx`` is imported here, on first use, so
    that no other command pays for loading it.
    """
    import networkx as nx

    if result.records is None:
        raise ValueError("run was not traced; pass record_trace=True")
    graph = nx.DiGraph()
    previous: Optional[UopRecord] = None
    for record in result.records:
        if not graph.has_node(record.pc):
            graph.add_node(
                record.pc,
                mnemonic=str(record.instruction),
                committed_visits=0,
                transient_visits=0,
            )
        key = "transient_visits" if record.squashed or record.transient else "committed_visits"
        graph.nodes[record.pc][key] += 1
        if previous is not None:
            edge = (previous.pc, record.pc)
            if not graph.has_edge(*edge):
                graph.add_edge(*edge, committed=0, transient=0)
            edge_key = "transient" if record.squashed or record.transient else "committed"
            graph.edges[edge][edge_key] += 1
        previous = record
    return graph


def transient_uop_count(result: RunResult) -> int:
    """Uops issued on squashed paths (Figure 4's UOPS_ISSUED.ANY story)."""
    if result.records is None:
        raise ValueError("run was not traced; pass record_trace=True")
    return sum(record.uop_count for record in result.records if record.squashed)


def render_pipeline(result: RunResult, width: int = 72) -> str:
    """An ASCII pipeline diagram of a traced run (gem5-pipeview style).

    One row per instruction: ``D`` dispatch, ``x`` executing, ``R``
    retire, ``~`` in flight, dots elsewhere.  Squashed (transient) rows
    are marked with ``!``.  Long runs are compressed to *width* columns.
    """
    if result.records is None:
        raise ValueError("run was not traced; pass record_trace=True")
    if not result.records:
        return "(empty run)"
    t0 = result.start_cycle
    t1 = max(
        max(r.ready_cycle for r in result.records),
        max((r.retire_cycle or 0) for r in result.records),
        result.end_cycle,
    )
    span = max(1, t1 - t0)
    scale = max(1, (span + width - 1) // width)

    def column(cycle: int) -> int:
        return min(width - 1, (cycle - t0) // scale)

    lines = [
        f"cycles {t0}..{t1} ({span} total, {scale} per column); "
        f"D=dispatch x=execute R=retire !=squashed"
    ]
    for record in result.records:
        row = ["."] * width
        start_col = column(record.start_cycle)
        ready_col = column(record.ready_cycle)
        for col in range(start_col, ready_col + 1):
            row[col] = "x"
        row[column(record.dispatch_cycle)] = "D"
        if record.retire_cycle is not None:
            row[column(record.retire_cycle)] = "R"
        marker = "!" if record.squashed else " "
        label = str(record.instruction)[:24]
        lines.append(f"{record.seq:3d}{marker}{label:24} |{''.join(row)}|")
    return "\n".join(lines)


def path_summary(result: RunResult) -> Dict[str, int]:
    """Counts Figure 4 reports: issued, squashed, redirects, flushes."""
    if result.records is None:
        raise ValueError("run was not traced; pass record_trace=True")
    return {
        "uops_issued": sum(record.uop_count for record in result.records),
        "uops_squashed": transient_uop_count(result),
        "redirects": len(result.events.redirects),
        "flushes": len(result.events.flushes),
        "nested_redirects": sum(
            1 for event in result.events.redirects if event.nested_in_transient
        ),
    }
