"""MPI environment generation (paper §5.1).

Scans the parallel regions for every variable remote processes must be
able to access and registers the corresponding MPI-2 objects: one memory
window per such array (created with ``MPI_WIN`` at program start) and the
set of scalars the master must replicate to slaves at synchronization
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.compiler.frontend import fast as F
from repro.compiler.frontend.symtab import Symbol, SymbolTable
from repro.compiler.postpass.spmd import (
    IfRegion,
    ParRegion,
    Region,
    SeqLoop,
    iter_regions,
)

__all__ = ["MpiEnvironment", "generate_environment"]


@dataclass
class MpiEnvironment:
    """Symbols registered for the MPI-2 target program."""

    #: Arrays accessed inside parallel regions: each gets a memory window.
    window_arrays: List[str] = field(default_factory=list)
    #: Arrays that exist but never cross rank boundaries (master-private).
    local_arrays: List[str] = field(default_factory=list)
    #: Scalars slaves may read: replicated at every synchronization point.
    replicated_scalars: List[str] = field(default_factory=list)
    #: Array name -> element size in bytes.
    itemsize: Dict[str, int] = field(default_factory=dict)
    #: Array name -> flat size in elements.
    sizes: Dict[str, int] = field(default_factory=dict)

    def needs_window(self, array: str) -> bool:
        return array in self.window_arrays


def _names_in_stmts(stmts) -> Set[str]:
    """Scalars and arrays a statement list names; of a DO's bounds, only
    the scalars."""
    names: Set[str] = set()
    for s in F.walk_stmts(stmts):
        kinds = (F.Var, F.ArrayRef)
        if isinstance(s, F.Assign):
            exprs = [s.rhs, s.lhs]
        elif isinstance(s, F.Do):
            exprs, kinds = [s.lo, s.hi, s.step], F.Var
        elif isinstance(s, F.If):
            exprs = [s.cond] + [c for c, _b in s.elifs]
        elif isinstance(s, F.PrintStmt):
            exprs = [i for i in s.items if not isinstance(i, F.Str)]
        else:
            continue
        for expr in exprs:
            names.update(
                e.name for e in F.walk_exprs(expr) if isinstance(e, kinds)
            )
    return names


def generate_environment(
    regions: List[Region], symtab: SymbolTable
) -> MpiEnvironment:
    """Register windows and replicated scalars for the region tree."""
    env = MpiEnvironment()
    remote_names: Set[str] = set()
    control_names: Set[str] = set()

    for region in iter_regions(regions):
        if isinstance(region, ParRegion):
            remote_names |= _names_in_stmts([region.loop])
        elif isinstance(region, SeqLoop):
            for bound in (region.loop.lo, region.loop.hi, region.loop.step):
                for e in F.walk_exprs(bound):
                    if isinstance(e, F.Var):
                        control_names.add(e.name)
        elif isinstance(region, IfRegion):
            conds = [region.cond] + [c for c, _b in region.elifs]
            for cond in conds:
                for e in F.walk_exprs(cond):
                    if isinstance(e, F.Var):
                        control_names.add(e.name)

    for sym in symtab:
        if sym.is_param:
            continue
        if sym.is_array:
            env.itemsize[sym.name] = sym.itemsize
            env.sizes[sym.name] = sym.size
            if sym.name in remote_names:
                env.window_arrays.append(sym.name)
            else:
                env.local_arrays.append(sym.name)
        else:
            if sym.name in remote_names or sym.name in control_names:
                env.replicated_scalars.append(sym.name)

    env.window_arrays.sort()
    env.local_arrays.sort()
    env.replicated_scalars.sort()
    return env
