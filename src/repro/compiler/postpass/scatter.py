"""Data scattering and collecting (paper §3, §5.4): the executable
communication planner.

Per parallel region and per array the planner derives, for every rank,
the regions to **scatter** (master → slave before the region) and to
**collect** (slave → master after it), following the summary-set rule:

* ReadOnly   → data-scattering only;
* WriteFirst → data-collecting only;
* ReadWrite  → both.

The plans are lists of :class:`~repro.compiler.postpass.granularity.Transfer`
objects at the requested granularity, with

* **AVPG filtering** — a scatter is skipped when the slave's copy of the
  needed region is already valid (nothing changed it since the last
  scatter), and a collect is skipped when the AVPG proves the array dead
  after the region (Valid → Invalid edge);
* **broadcast detection** — when every slave needs the same region (e.g.
  the B matrix of MM), the per-slave puts fuse into one V-Bus hardware
  broadcast (§2.2's "collective facilities");
* **collect demotion** — approximate collect grains that would overwrite
  another rank's results, or carry stale elements, fall back to fine
  grain (§5.6's bound check);
* exact **validity masks** per (array, rank), which make all of the above
  checks precise rather than heuristic.

Triangular (cyclic-partitioned) regions whose per-rank LMADs are widened
are re-derived iteration-by-iteration so collects stay exact.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compiler.analysis.access import AccessError, LoopCtx, loop_context
from repro.compiler.analysis.lmad import LMAD
from repro.compiler.analysis.summary import (
    READ_ONLY,
    READ_WRITE,
    WRITE_FIRST,
    SummarySet,
    summarize_statements,
)
from repro.compiler.frontend import fast as F
from repro.compiler.frontend.symtab import SymbolTable
from repro.compiler.postpass.avpg import Avpg, build_avpg
from repro.compiler.postpass.env import MpiEnvironment
from repro.compiler.postpass.granularity import (
    COARSE,
    FINE,
    GRAINS,
    MIDDLE,
    Transfer,
    plan_transfers,
)
from repro.compiler.postpass.partition import (
    Partition,
    PartitionError,
    choose_strategy,
    parse_strategy,
    split_loop,
)
from repro.compiler.postpass.spmd import (
    IfRegion,
    ParRegion,
    Region,
    SeqBlock,
    SeqLoop,
)

__all__ = ["ArrayCommPlan", "RegionCommPlan", "CommPlanner", "PlanError"]

#: Iteration cap for the exact per-iteration (triangular) fallback.
_PER_ITER_CAP = 8192


class PlanError(RuntimeError):
    """The region cannot be planned safely."""


@dataclass
class ArrayCommPlan:
    """Communication plan of one array across one parallel region."""

    array: str
    itemsize: int
    classification: str
    grain: str
    #: rank -> scatter transfers (master -> rank).  Rank 0 never appears.
    scatter: Dict[int, List[Transfer]] = field(default_factory=dict)
    #: rank -> reason the scatter was skipped (AVPG validity).
    scatter_skipped: Dict[int, str] = field(default_factory=dict)
    #: One broadcast serves all slaves (plans in ``scatter`` are identical).
    scatter_bcast: bool = False
    #: rank -> collect transfers (rank -> master).  Rank 0 never appears.
    collect: Dict[int, List[Transfer]] = field(default_factory=dict)
    collect_skipped: Optional[str] = None
    #: Collect grain after the §5.6 demotion check.
    collect_grain: str = FINE
    demotion_reason: Optional[str] = None

    def scatter_messages(self) -> int:
        if self.scatter_bcast:
            return len(next(iter(self.scatter.values()), []))
        return sum(len(ts) for ts in self.scatter.values())

    def collect_messages(self) -> int:
        return sum(len(ts) for ts in self.collect.values())

    def scatter_bytes(self) -> int:
        total = 0
        for ts in self.scatter.values():
            total += sum(t.count for t in ts) * self.itemsize
            if self.scatter_bcast:
                break  # one wave serves everyone
        return total

    def collect_bytes(self) -> int:
        return sum(
            sum(t.count for t in ts) * self.itemsize
            for ts in self.collect.values()
        )


@dataclass
class RegionCommPlan:
    """All communication around one parallel region."""

    region_id: int
    arrays: Dict[str, ArrayCommPlan] = field(default_factory=dict)
    #: Scalars slaves need before executing the region.
    scalars_in: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Fence epochs closing the scatter and collect phases (§3's
    #: scatter / fence / compute / collect / fence schedule).  Always
    #: True for planner-produced plans; cleared only by the seeded-bug
    #: pragmas (``C$BUG DROP-FENCE``) so the RV3xx verifier checks and
    #: the sanitizer have something real to catch.
    scatter_fence: bool = True
    collect_fence: bool = True

    def total_messages(self) -> int:
        return sum(
            a.scatter_messages() + a.collect_messages()
            for a in self.arrays.values()
        )

    def total_bytes(self) -> int:
        return sum(
            a.scatter_bytes() + a.collect_bytes() for a in self.arrays.values()
        )


def _unique_lmads(lmads: Sequence[LMAD]) -> List[LMAD]:
    """Drop duplicate and fully-contained descriptors (same region planned
    once, not once per referencing statement)."""
    uniq: List[LMAD] = []
    seen = set()
    for l in lmads:
        key = (l.base, l.dims)
        if key in seen:
            continue
        seen.add(key)
        uniq.append(l)
    # Largest first; keep only descriptors no kept one already covers.
    uniq.sort(key=lambda l: l.nominal_count, reverse=True)
    out: List[LMAD] = []
    for l in uniq:
        if not any(kept.contains(l) for kept in out):
            out.append(l)
    return out


def _mask_of(lmads: Sequence[LMAD], size: int) -> np.ndarray:
    m = np.zeros(size, dtype=bool)
    for l in lmads:
        m |= l.mask(size)
    return m


def _transfers_mask(transfers: Sequence[Transfer], size: int) -> np.ndarray:
    m = np.zeros(size, dtype=bool)
    for t in transfers:
        m[t.indices()] = True
    return m


def _mask_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """(start, length) of each maximal run of True."""
    idx = np.flatnonzero(mask)
    if not len(idx):
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(idx) - 1]))
    return [(int(idx[s]), int(idx[e] - idx[s] + 1)) for s, e in zip(starts, ends)]


def _mask_to_transfers(mask: np.ndarray, grain: str) -> List[Transfer]:
    """Transfers covering a mask: exact runs (fine/middle) or bounding."""
    runs = _mask_runs(mask)
    if not runs:
        return []
    if grain == COARSE:
        first = runs[0][0]
        last = runs[-1][0] + runs[-1][1] - 1
        return [Transfer(offset=first, count=last - first + 1, stride=1)]
    return [Transfer(offset=o, count=n, stride=1) for o, n in runs]


@dataclass
class _RankRegions:
    """Per-rank access info for one array in one region."""

    read_mask: np.ndarray
    write_mask: np.ndarray
    write_lmads: List[LMAD]
    read_lmads: List[LMAD]
    writes_exact: bool


class CommPlanner:
    """Plans all scatter/collect communication for a region tree."""

    def __init__(
        self,
        symtab: SymbolTable,
        regions: List[Region],
        env: MpiEnvironment,
        nprocs: int,
        grain: str = COARSE,
        partition_strategy: str = "auto",
        live_out: Optional[Set[str]] = None,
        use_avpg: bool = True,
        grain_map: Optional[Dict[int, str]] = None,
        partition_map: Optional[Dict[int, str]] = None,
    ):
        if grain not in GRAINS:
            raise PlanError(f"unknown granularity {grain!r}")
        for rid, g in (grain_map or {}).items():
            if g not in GRAINS:
                raise PlanError(f"unknown granularity {g!r} for region {rid}")
        for rid, spec in (partition_map or {}).items():
            try:
                parse_strategy(spec)
            except ValueError as exc:
                raise PartitionError(str(exc), region_id=rid) from None
        self.use_avpg = use_avpg
        self.symtab = symtab
        self.regions = regions
        self.env = env
        self.nprocs = nprocs
        self.grain = grain
        #: Per-region grain overrides (mixed-grain plans, docs/AUTOTUNE.md).
        self.grain_map: Dict[int, str] = dict(grain_map or {})
        self.partition_strategy = partition_strategy
        #: Per-region partition-strategy overrides (docs/PARTITION.md).
        self.partition_map: Dict[int, str] = dict(partition_map or {})
        self.avpg: Avpg = build_avpg(regions, symtab, live_out)
        #: (array) -> (nprocs, size) validity mask: slave copy current?
        self._valid: Dict[str, np.ndarray] = {
            name: np.zeros((nprocs, env.sizes[name]), dtype=bool)
            for name in env.window_arrays
        }
        for name in env.window_arrays:
            self._valid[name][0, :] = True  # master memory is the reference
        self.plans: Dict[int, RegionCommPlan] = {}
        #: (id(loop), partition) -> per rank, its summary set and (for
        #: widened writes) exact per-iteration masks.  Neither depends on
        #: the validity state, so the back-edge fixpoint's revisits reuse
        #: them; the masks of :class:`_RankRegions` are rebuilt per visit.
        #: Loops are keyed by identity: the region tree keeps them alive.
        self._rank_summaries: Dict[
            Tuple[int, Partition], List[Tuple[int, SummarySet, Optional[Dict]]]
        ] = {}

    # -- public ------------------------------------------------------------
    def plan(self) -> Dict[int, RegionCommPlan]:
        self._plan_list(self.regions)
        return self.plans

    # -- traversal ----------------------------------------------------------
    def _plan_list(self, regions: Sequence[Region]) -> None:
        for region in regions:
            if isinstance(region, SeqBlock):
                self._seq_block(region)
            elif isinstance(region, ParRegion):
                self._par_region(region)
            elif isinstance(region, SeqLoop):
                self._seq_loop(region)
            elif isinstance(region, IfRegion):
                self._if_region(region)

    def _seq_loop(self, node: SeqLoop) -> None:
        # Meet over the back edge: run the body's state transitions on a
        # scratch copy, AND the result into the entry state, then plan.
        for _ in range(2):
            scratch = {k: v.copy() for k, v in self._valid.items()}
            saved_plans = self.plans
            self.plans = {}
            self._plan_list(node.body)
            self.plans = saved_plans
            changed = False
            for k in self._valid:
                met = scratch[k] & self._valid[k]
                if not np.array_equal(met, self._valid[k]):
                    changed = True
                met_entry = met.copy()
                self._valid[k] = met_entry
            if not changed:
                break
        # Real pass from the met state.
        self._plan_list(node.body)

    def _if_region(self, node: IfRegion) -> None:
        entry = {k: v.copy() for k, v in self._valid.items()}
        exits = []
        branches = [node.then] + [b for _c, b in node.elifs] + [node.orelse]
        for branch in branches:
            self._valid = {k: v.copy() for k, v in entry.items()}
            self._plan_list(branch)
            exits.append(self._valid)
        # Meet of all exits (orelse may be empty -> entry state).
        met = {k: v.copy() for k, v in exits[0].items()}
        for ex in exits[1:]:
            for k in met:
                met[k] &= ex[k]
        self._valid = met

    # -- sequential blocks --------------------------------------------------
    def _seq_block(self, block: SeqBlock) -> None:
        summary = summarize_statements(block.stmts, self.symtab, (), {})
        for name, arr in summary.arrays.items():
            if name not in self._valid:
                continue  # master-private array
            if arr.writes:
                wmask = _mask_of(arr.writes, self.env.sizes[name])
                self._valid[name][1:, :] &= ~wmask

    # -- parallel regions -----------------------------------------------------
    def _par_region(self, region: ParRegion) -> None:
        try:
            self._par_region_inner(region)
        except PartitionError:
            raise
        except PlanError as exc:
            if region.region_id in self.partition_map:
                # The user (or the tuner) explicitly pinned this region's
                # strategy; demoting the loop to serial would silently
                # discard that request.  Escalate with provenance instead.
                raise PartitionError(
                    f"override {self.partition_map[region.region_id]!r} "
                    f"cannot be planned safely: {exc}",
                    region_id=region.region_id,
                    loop_var=region.loop.var,
                ) from None
            exc.loop = region.loop  # let the driver demote and retry
            raise

    def _par_region_inner(self, region: ParRegion) -> None:
        loop = region.loop
        plan = RegionCommPlan(region_id=region.region_id)
        self.plans[region.region_id] = plan

        try:
            pctx = loop_context(loop, (), {})
        except AccessError as exc:
            raise PlanError(
                f"parallel loop DO {loop.var}: bounds are not compile-time "
                f"constants ({exc}); the front end should have kept it serial"
            )
        requested = self.partition_map.get(
            region.region_id, self.partition_strategy
        )
        try:
            spec = choose_strategy(loop, requested)
            sname, sdim = parse_strategy(spec)
        except PartitionError:
            raise
        except ValueError as exc:
            raise PartitionError(
                str(exc), region_id=region.region_id, loop_var=loop.var
            ) from None
        if sdim:
            try:
                sctx = loop_context(split_loop(loop, sdim), (), {})
            except (AccessError, ValueError) as exc:
                raise PartitionError(
                    f"split dimension {sdim}: {exc}",
                    region_id=region.region_id,
                    loop_var=loop.var,
                ) from None
            partition = Partition(
                pctx=sctx,
                nprocs=self.nprocs,
                strategy=sname,
                split_dim=sdim,
            )
        else:
            partition = Partition(
                pctx=pctx, nprocs=self.nprocs, strategy=sname
            )
        region.partition = partition
        region.comm_plan = plan

        # Region-level classification.
        region_summary = summarize_statements(loop.body, self.symtab, [pctx], {})
        plan.scalars_in = sorted(
            s.name
            for s in region_summary.scalars.values()
            if s.read and s.name in self.env.replicated_scalars
        )

        if self.nprocs == 1:
            return

        per_rank = self._rank_regions(loop, partition, region_summary)
        region_grain = self.grain_map.get(region.region_id, self.grain)

        for name, arr in sorted(region_summary.arrays.items()):
            cls = arr.classification
            aplan = ArrayCommPlan(
                array=name,
                itemsize=self.env.itemsize.get(name, 8),
                classification=cls,
                grain=region_grain,
            )
            plan.arrays[name] = aplan
            size = self.env.sizes[name]
            ranks_info = per_rank.get(name, {})

            scattered: Dict[int, np.ndarray] = {}
            if cls in (READ_ONLY, READ_WRITE):
                self._plan_scatter(aplan, ranks_info, size, plan, scattered)
            if cls in (WRITE_FIRST, READ_WRITE):
                self._plan_collect(
                    aplan, ranks_info, size, plan, scattered, region.region_id
                )

            # State update: scatters refresh validity; everyone's writes
            # invalidate everyone else's copies; own writes stay valid.
            valid = self._valid[name]
            for r, smask in scattered.items():
                valid[r] |= smask
            all_writes = np.zeros(size, dtype=bool)
            for r, info in ranks_info.items():
                all_writes |= info.write_mask
            for r in range(self.nprocs):
                own = ranks_info[r].write_mask if r in ranks_info else None
                valid[r] &= ~all_writes
                if own is not None:
                    valid[r] |= own
            # Collects restore the master copy (row 0 is always reference).
            valid[0, :] = True

    # -- per-rank access info -----------------------------------------------
    def _split_frame(
        self, loop: F.Do, partition: Partition
    ) -> Tuple[Sequence[F.Stmt], List[LoopCtx]]:
        """(statements, enclosing full contexts) around the split loop.

        At ``split_dim`` 0 this is the parallel loop's own body with no
        enclosing context (the historical shape).  Deeper splits
        summarize the split loop's body under the *full* contexts of the
        outer dimensions — every rank runs those in their entirety.
        """
        if partition.split_dim == 0:
            return loop.body, []
        base: List[LoopCtx] = []
        cur = loop
        for _ in range(partition.split_dim):
            base.append(loop_context(cur, tuple(base), {}))
            cur = cur.body[0]
        return cur.body, base

    def _rank_regions(
        self,
        loop: F.Do,
        partition: Partition,
        region_summary: SummarySet,
    ) -> Dict[str, Dict[int, _RankRegions]]:
        out: Dict[str, Dict[int, _RankRegions]] = {
            name: {} for name in region_summary.arrays
        }
        for r, summary, masks in self._summaries_per_rank(loop, partition):
            for name, arr in summary.arrays.items():
                size = self.env.sizes[name]
                writes_exact = all(l.exact for l in arr.writes)
                if writes_exact:
                    writes = _unique_lmads(arr.writes)
                    reads = _unique_lmads(arr.reads)
                    rr = _RankRegions(
                        read_mask=_mask_of(reads, size),
                        write_mask=_mask_of(writes, size),
                        write_lmads=writes,
                        read_lmads=reads,
                        writes_exact=True,
                    )
                else:
                    rmask, wmask = masks.get(
                        name,
                        (np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)),
                    )
                    # Reads stay conservative (safe); writes become exact.
                    rr = _RankRegions(
                        read_mask=_mask_of(arr.reads, size),
                        write_mask=wmask,
                        write_lmads=[],
                        read_lmads=_unique_lmads(arr.reads),
                        writes_exact=False,
                    )
                out.setdefault(name, {})[r] = rr
        return out

    def _summaries_per_rank(
        self, loop: F.Do, partition: Partition
    ) -> List[Tuple[int, SummarySet, Optional[Dict]]]:
        """(rank, summary, per-iteration masks or None) for every rank
        with work, derived once per (loop, partition) per planner."""
        key = (id(loop), partition)
        hit = self._rank_summaries.get(key)
        if hit is not None:
            return hit
        stmts, base = self._split_frame(loop, partition)
        rows = []
        for r in range(self.nprocs):
            rctx = partition.rank_ctx(r)
            if rctx is None:
                continue
            summary = summarize_statements(
                stmts, self.symtab, base + [rctx], {}
            )
            masks = None
            if any(
                any(not l.exact for l in arr.writes)
                for arr in summary.arrays.values()
            ):
                masks = self._per_iteration_masks(loop, rctx, stmts, base)
            rows.append((r, summary, masks))
        self._rank_summaries[key] = rows
        return rows

    def _per_iteration_masks(
        self,
        loop: F.Do,
        rctx: LoopCtx,
        stmts: Sequence[F.Stmt],
        base: Sequence[LoopCtx],
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Exact per-rank masks for widened (triangular) regions."""
        if rctx.count > _PER_ITER_CAP:
            raise PlanError(
                f"DO {loop.var}: {rctx.count} iterations exceed the exact "
                f"re-derivation cap for triangular regions"
            )
        masks: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for v in rctx.values():
            summary = summarize_statements(
                stmts, self.symtab, tuple(base), {rctx.var: v}
            )
            for name, arr in summary.arrays.items():
                size = self.env.sizes[name]
                if name not in masks:
                    masks[name] = (
                        np.zeros(size, dtype=bool),
                        np.zeros(size, dtype=bool),
                    )
                rmask, wmask = masks[name]
                for l in arr.reads:
                    rmask |= l.mask(size)
                for l in arr.writes:
                    if not l.exact:
                        raise PlanError(
                            f"{name}: write region not exact even with "
                            f"{rctx.var}={v} bound"
                        )
                    wmask |= l.mask(size)
        return masks

    # -- scatter ------------------------------------------------------------
    def _plan_scatter(
        self,
        aplan: ArrayCommPlan,
        ranks_info: Dict[int, _RankRegions],
        size: int,
        plan: RegionCommPlan,
        scattered: Dict[int, np.ndarray],
    ) -> None:
        valid = self._valid[aplan.array]
        for r, info in sorted(ranks_info.items()):
            if r == 0:
                continue  # master already holds its data
            if not info.read_mask.any():
                continue
            need = info.read_mask & ~valid[r]
            if self.use_avpg and not need.any():
                aplan.scatter_skipped[r] = "AVPG: slave copy already valid"
                plan.notes.append(
                    f"{aplan.array}: scatter to rank {r} eliminated (valid)"
                )
                continue
            if info.read_lmads:
                transfers: List[Transfer] = []
                for l in info.read_lmads:
                    transfers.extend(plan_transfers(l, aplan.grain))
            else:  # pragma: no cover - reads always have lmads
                transfers = _mask_to_transfers(info.read_mask, aplan.grain)
            aplan.scatter[r] = transfers
            scattered[r] = _transfers_mask(transfers, size)

        # Broadcast detection: every slave gets the identical plan.
        slave_plans = [aplan.scatter.get(r) for r in range(1, self.nprocs)]
        if (
            len(slave_plans) > 1
            and all(p is not None for p in slave_plans)
            and all(p == slave_plans[0] for p in slave_plans[1:])
        ):
            aplan.scatter_bcast = True
            plan.notes.append(
                f"{aplan.array}: identical regions on all slaves -> broadcast"
            )

    # -- collect -------------------------------------------------------------
    def _plan_collect(
        self,
        aplan: ArrayCommPlan,
        ranks_info: Dict[int, _RankRegions],
        size: int,
        plan: RegionCommPlan,
        scattered: Dict[int, np.ndarray],
        region_id: int,
    ) -> None:
        if self.use_avpg and not self.avpg.reads_after(region_id, aplan.array):
            aplan.collect_skipped = "AVPG: array dead after region"
            plan.notes.append(
                f"{aplan.array}: collect eliminated (Valid->Invalid edge)"
            )
            return

        # Writes of different ranks must be disjoint (the loop is parallel).
        ranks = sorted(r for r in ranks_info if ranks_info[r].write_mask.any())
        for i, r1 in enumerate(ranks):
            for r2 in ranks[i + 1 :]:
                if (ranks_info[r1].write_mask & ranks_info[r2].write_mask).any():
                    raise PlanError(
                        f"{aplan.array}: ranks {r1} and {r2} write "
                        "overlapping regions in a parallel loop"
                    )

        grain = aplan.grain
        transfers_by_rank = self._collect_transfers(ranks_info, grain)
        demote_reason = self._collect_safety(
            aplan.array, ranks_info, transfers_by_rank, scattered, size
        )
        if demote_reason is not None and grain != FINE:
            aplan.demotion_reason = demote_reason
            plan.notes.append(
                f"{aplan.array}: collect demoted to fine grain ({demote_reason})"
            )
            grain = FINE
            transfers_by_rank = self._collect_transfers(ranks_info, grain)
            residual = self._collect_safety(
                aplan.array, ranks_info, transfers_by_rank, scattered, size
            )
            if residual is not None:
                raise PlanError(
                    f"{aplan.array}: even fine-grain collect unsafe ({residual})"
                )
        elif demote_reason is not None:
            raise PlanError(
                f"{aplan.array}: fine-grain collect unsafe ({demote_reason})"
            )
        aplan.collect_grain = grain
        for r, ts in transfers_by_rank.items():
            if r != 0 and ts:
                aplan.collect[r] = ts

    def _collect_transfers(
        self, ranks_info: Dict[int, _RankRegions], grain: str
    ) -> Dict[int, List[Transfer]]:
        out: Dict[int, List[Transfer]] = {}
        for r, info in ranks_info.items():
            if not info.write_mask.any():
                continue
            if info.writes_exact and info.write_lmads:
                if grain == COARSE:
                    # One bounding transfer over the union of the regions.
                    out[r] = _mask_to_transfers(info.write_mask, COARSE)
                else:
                    ts: List[Transfer] = []
                    for l in info.write_lmads:
                        ts.extend(plan_transfers(l, grain))
                    out[r] = ts
            else:
                out[r] = _mask_to_transfers(info.write_mask, grain)
        return out

    def _collect_safety(
        self,
        array: str,
        ranks_info: Dict[int, _RankRegions],
        transfers_by_rank: Dict[int, List[Transfer]],
        scattered: Dict[int, np.ndarray],
        size: int,
    ) -> Optional[str]:
        """The §5.6 bound check, exact: None when safe, else a reason."""
        inflated = {
            r: _transfers_mask(ts, size) for r, ts in transfers_by_rank.items()
        }
        ranks = sorted(inflated)
        for i, r1 in enumerate(ranks):
            for r2 in ranks[i + 1 :]:
                if (inflated[r1] & inflated[r2]).any():
                    return f"regions of ranks {r1} and {r2} overlap"
        for r in ranks:
            if r == 0:
                continue
            # Elements a rank sends without having written must hold
            # current values: written by the rank, scattered to it in this
            # region, or still valid from an earlier scatter.
            extra = inflated[r] & ~ranks_info[r].write_mask
            held = self._valid[array][r] | ranks_info[r].write_mask
            if r in scattered:
                held = held | scattered[r]
            uncovered = extra & ~held
            if uncovered.any():
                return (
                    f"rank {r} would send {int(uncovered.sum())} stale "
                    "element(s)"
                )
        return None
