"""The Array-Value-Propagation Graph (paper §5.2, Figure 7).

One directed subgraph per array over the program's region sequence.  Each
node is an outermost region (parallel loop or master block); its
attribute for an array is

* **Valid** — the array is used (read or written) in the region;
* **Propagate** — not used here, but used in some later region;
* **Invalid** — not used here nor in any later region.

The two §5.2 optimizations fall out of the attributes:

1. an edge from a Valid node to an Invalid successor carries no
   communication — collects for an array that is dead afterwards are
   eliminated;
2. communication across Propagate nodes is *delayed* until the next Valid
   node — equivalently, scatter happens only at regions that actually use
   the array, and only when slave copies are stale.

The executable scatter/collect planner enforces these rules with exact
validity masks; this module builds the descriptive graph (used for
reporting, Figure 7's reproduction, and the planner's liveness queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.compiler.analysis.access import AccessRecord, record_accesses
from repro.compiler.frontend.symtab import SymbolTable
from repro.compiler.postpass.spmd import (
    IfRegion,
    ParRegion,
    Region,
    SeqBlock,
    SeqLoop,
)

__all__ = ["VALID", "PROPAGATE", "INVALID", "AvpgNode", "Avpg", "build_avpg"]

VALID = "Valid"
PROPAGATE = "Propagate"
INVALID = "Invalid"


def _array_uses(record: AccessRecord, arrays: Set[str]) -> Dict[str, Tuple[bool, bool]]:
    """array -> (reads, writes) within a recorded statement list."""
    uses: Dict[str, Tuple[bool, bool]] = {}
    for tag, acc in record.events:
        if tag == "array" and acc.ref.name in arrays:
            r, w = uses.get(acc.ref.name, (False, False))
            uses[acc.ref.name] = (r or acc.kind == "r", w or acc.kind == "w")
    return uses


@dataclass
class AvpgNode:
    """One region in the flattened execution sequence."""

    index: int
    region_id: int
    label: str
    kind: str  # "par" | "seq"
    #: Indices of enclosing SeqLoop levels (for back-edge liveness).
    loop_path: Tuple[int, ...]
    #: array -> (reads, writes)
    uses: Dict[str, Tuple[bool, bool]] = field(default_factory=dict)
    #: array -> Valid | Propagate | Invalid
    attrs: Dict[str, str] = field(default_factory=dict)


@dataclass
class Avpg:
    nodes: List[AvpgNode]
    arrays: List[str]
    #: arrays the program must still hold correct values for at exit.
    live_out: Set[str] = field(default_factory=set)

    def node_for_region(self, region_id: int) -> Optional[AvpgNode]:
        for n in self.nodes:
            if n.region_id == region_id:
                return n
        return None

    def attr(self, region_id: int, array: str) -> str:
        node = self.node_for_region(region_id)
        if node is None:
            raise KeyError(f"no AVPG node for region {region_id}")
        return node.attrs[array]

    def reads_after(self, region_id: int, array: str) -> bool:
        """Is the array read at or after any point reachable from the end
        of this region (successor nodes, back edges, program exit)?"""
        if array in self.live_out:
            return True
        node = self.node_for_region(region_id)
        if node is None:
            raise KeyError(f"no AVPG node for region {region_id}")
        for other in self.nodes:
            if other.index > node.index and other.uses.get(array, (False, False))[0]:
                return True
            # Back edge: a node in a shared enclosing loop re-executes.
            if (
                other.index <= node.index
                and other.loop_path
                and node.loop_path[: len(other.loop_path)] == other.loop_path
                and other.uses.get(array, (False, False))[0]
            ):
                return True
        return False

    def to_dot(self) -> str:
        """Graphviz rendering of the per-array subgraphs (Figure 7 style).

        One row of nodes per array; fill encodes the attribute (Valid
        solid, Propagate striped, Invalid hollow); eliminated edges are
        drawn dashed-red.
        """
        fills = {VALID: "black", PROPAGATE: "gray", INVALID: "white"}
        lines = ["digraph avpg {", "  rankdir=TB;", "  node [shape=circle];"]
        eliminated = set(self.eliminated_edges())
        for arr in self.arrays:
            lines.append(f"  subgraph cluster_{arr} {{")
            lines.append(f'    label="Array {arr}";')
            for n in self.nodes:
                attr = n.attrs[arr]
                font = "white" if attr == VALID else "black"
                lines.append(
                    f'    {arr}_{n.index} [label="{n.label}" '
                    f'style=filled fillcolor={fills[attr]} '
                    f'fontcolor={font}];'
                )
            for a, b in zip(self.nodes, self.nodes[1:]):
                style = (
                    ' [style=dashed color=red label="eliminated"]'
                    if (a.index, b.index, arr) in eliminated
                    else ""
                )
                lines.append(f"    {arr}_{a.index} -> {arr}_{b.index}{style};")
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines)

    def eliminated_edges(self) -> List[Tuple[int, int, str]]:
        """(from-node index, to-node index, array) pairs whose boundary
        carries no communication (Valid -> Invalid rule)."""
        out = []
        for a, b in zip(self.nodes, self.nodes[1:]):
            for arr in self.arrays:
                if a.attrs.get(arr) == VALID and b.attrs.get(arr) == INVALID:
                    out.append((a.index, b.index, arr))
        return out

    def delayed_spans(self) -> List[Tuple[int, int, str]]:
        """(valid-node, next-valid-node, array) spans across Propagate
        nodes where communication is delayed (the Figure 7 array-A case)."""
        out = []
        for arr in self.arrays:
            valid_idx = [
                n.index for n in self.nodes if n.attrs.get(arr) == VALID
            ]
            for a, b in zip(valid_idx, valid_idx[1:]):
                if b - a > 1 and all(
                    self.nodes[i].attrs.get(arr) == PROPAGATE
                    for i in range(a + 1, b)
                ):
                    out.append((a, b, arr))
        return out


def _flatten(
    regions: Sequence[Region], loop_path: Tuple[int, ...], out: List
) -> None:
    for r in regions:
        if isinstance(r, SeqBlock):
            out.append(("seq", r.region_id, r.stmts, loop_path))
        elif isinstance(r, ParRegion):
            out.append(("par", r.region_id, r.loop.body, loop_path))
        elif isinstance(r, SeqLoop):
            _flatten(r.body, loop_path + (r.region_id,), out)
        elif isinstance(r, IfRegion):
            _flatten(r.then, loop_path, out)
            for _c, blk in r.elifs:
                _flatten(blk, loop_path, out)
            _flatten(r.orelse, loop_path, out)


def build_avpg(
    regions: Sequence[Region],
    symtab: SymbolTable,
    live_out: Optional[Set[str]] = None,
    record_of: Optional[Callable[[Sequence], AccessRecord]] = None,
) -> Avpg:
    """Construct the AVPG for a region tree.

    ``live_out=None`` means every array is observable at program exit (the
    safe default); pass an explicit set to enable dead-array elimination.
    ``record_of`` maps a statement list to its access record (the
    planner passes the records it replays itself).
    """
    record_of = record_of or (lambda stmts: record_accesses(stmts, symtab))
    arrays = {s.name for s in symtab.arrays()}
    flat: List = []
    _flatten(regions, (), flat)

    nodes: List[AvpgNode] = []
    for idx, (kind, region_id, stmts, loop_path) in enumerate(flat):
        label = f"{'loop' if kind == 'par' else 'block'}{region_id}"
        nodes.append(
            AvpgNode(
                index=idx,
                region_id=region_id,
                label=label,
                kind=kind,
                loop_path=loop_path,
                uses=_array_uses(record_of(stmts), arrays),
            )
        )

    lo = set(arrays) if live_out is None else set(live_out)
    graph = Avpg(nodes=nodes, arrays=sorted(arrays), live_out=lo)

    # Attributes: Valid if used; else Propagate if used later (including
    # live-out at exit); else Invalid.
    for i, node in enumerate(nodes):
        for arr in graph.arrays:
            used = node.uses.get(arr, (False, False))
            if used[0] or used[1]:
                node.attrs[arr] = VALID
                continue
            later = arr in lo or any(
                (n.index > i or (
                    n.loop_path
                    and node.loop_path[: len(n.loop_path)] == n.loop_path
                ))
                and (n.uses.get(arr, (False, False))[0]
                     or n.uses.get(arr, (False, False))[1])
                for n in nodes
            )
            node.attrs[arr] = PROPAGATE if later else INVALID
    return graph
