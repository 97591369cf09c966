"""Trace-driven per-region granularity tuning (docs/AUTOTUNE.md).

The global tuner (:mod:`repro.tools.autotune`) profiles the whole
program at every grain and picks one winner — three full profile runs,
and one grain for every parallel region even when regions disagree.
This module tunes **per region** with a pruned search, a fixed sequence
of tier functions over one candidate table (:class:`_Table`; the global
tuner is the table's uniform-plan mode):

1. compile the three global-grain variants (compile analysis is cheap
   next to simulation, and the pipeline cache makes repeats free),
   drop the candidates the static verifier proves illegal, and price
   each region's :class:`RegionCommPlan` with an **analytic cost
   model** built from the §5.6 transfer plans and the backend's
   :class:`~repro.vbus.params.ClusterParams`;
2. regions whose best grain wins by at least ``epsilon`` (relative
   margin) are decided by the model alone;
3. the remaining *ambiguous* regions are decided empirically: one
   instrumented timing-mode profile of the candidate plan, plus one
   targeted re-profile per runner-up rank (all ambiguous regions switch
   candidates together, so a 3-way tie still costs only two extra runs),
   attributed per region with :func:`repro.obs.region_rollup`.

The result is a :class:`TunePlan` — a backend-aware mixed-grain plan
``{region_id: grain}`` that compiles via ``CompileOptions.grain_map``,
serializes to a canonical JSON artifact (``repro run --tune-plan``), and
is content-address-cached through :mod:`repro.sweep.cache` keyed on
(source, backend, nprocs, metric, epsilon) so warm calls skip even the
single profile.

With ``tune_partition=True`` the same pruned search runs over the joint
(grain, §5.3 partition strategy) space: six compile variants feed the
analytic tier, whose price adds an **imbalance term** — per-strategy
per-rank iteration weights (inner trip counts) skewed against the
region's compute time from one baseline instrumented profile — so block
on a triangular loop prices its fence-wait skew without simulating it.
The plan then carries ``partition_map`` overrides only where the tuned
choice differs from what ``auto`` would pick (docs/PARTITION.md), so a
tuner that agrees with the paper's static policy emits a byte-identical
artifact to the grain-only plan.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.compiler.analysis.access import AccessError, loop_context
from repro.compiler.frontend import fast as F
from repro.compiler.pipeline import CompileOptions, compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.compiler.postpass.partition import (
    STRATEGIES,
    Partition,
    choose_strategy,
)
from repro.compiler.postpass.scatter import RegionCommPlan
from repro.obs import region_rollup
from repro.runtime.executor import run_program
from repro.sweep.cache import (
    DEFAULT_CACHE_DIR,
    canonical_json,
    job_key,
    load_row,
    store_row,
)
from repro.vbus.params import backend_params

__all__ = [
    "FEATURES",
    "ModelCost",
    "RegionDecision",
    "TunePlan",
    "region_features",
    "region_model_cost",
    "tune_per_region",
]

#: Metrics the tuners can optimize.
METRICS = ("total", "comm", "comm_cpu")

#: Relative margin below which the analytic model refuses to decide and
#: the region goes to the profile-measured tier instead (and under which
#: two grains count as tied for the global tuner).
DEFAULT_EPSILON = 0.05

#: Rough CPU cost of one kernel-stack traversal (ethernet backends have
#: no user-level path; the sw latency *is* host CPU time).
_ETH_CPU_PER_SIDE = 1.0

#: Feature names of the linear calibrated cost model, in fit order
#: (docs/AUTOTUNE.md).  A :class:`~repro.tools.calibrate.CalibratedModel`
#: carries one fitted coefficient per feature.
FEATURES = ("messages", "bytes", "strided_elements", "fanout_dests")


@dataclass(frozen=True)
class ModelCost:
    """Analytic price of one region's communication at one grain."""

    elapsed_s: float
    cpu_s: float
    messages: int

    def metric(self, metric: str) -> float:
        return self.cpu_s if metric == "comm_cpu" else self.elapsed_s


def _transfer_cost(transfer, itemsize: int, params) -> Tuple[float, float]:
    """(elapsed, master-CPU) seconds for one master<->slave transfer."""
    nbytes = transfer.count * itemsize
    if params.network == "ethernet":
        e = params.ethernet
        frames = max(1, math.ceil(nbytes / e.mtu_bytes))
        elapsed = 2 * e.sw_latency_s + nbytes / e.rate_Bps + frames * e.min_frame_s
        if e.switched:
            # Store-and-forward: the switch replays the wire time and
            # charges its forwarding decision.
            elapsed += e.switch_latency_s + nbytes / e.rate_Bps
        cpu = 2 * e.sw_latency_s * _ETH_CPU_PER_SIDE
        return elapsed, cpu
    nic = params.nic
    overhead = nic.per_message_overhead_s()
    if transfer.contiguous:
        elapsed = overhead + nic.dma_setup_s + nbytes / nic.dma_rate_Bps
        return elapsed, overhead + nic.dma_setup_s
    # Strided: programmed I/O, the host CPU touches every element.
    elapsed = (
        overhead + nic.pio_setup_s + transfer.count * nic.pio_per_element_s
    )
    return elapsed, elapsed


def region_model_cost(plan: RegionCommPlan, params, calibration=None) -> ModelCost:
    """Price one region's scatter+collect plan on one backend.

    Scatters serialize on the master (one bcast wave when the V-Bus
    broadcast fuses them); collects overlap across ranks on the V-Bus
    mesh and switched fabrics (busiest rank bounds) but serialize on a
    shared ethernet segment.  A pruning heuristic, not an accounting
    identity — it only has to rank grains with a margin.

    With a ``calibration`` (a
    :class:`~repro.tools.calibrate.CalibratedModel`, or anything with its
    four per-feature coefficients), ``elapsed_s`` is instead the fitted
    linear model over :func:`region_features` — constants measured from
    traced microbenchmarks rather than read off static ``ClusterParams``.
    ``cpu_s`` and ``messages`` stay static either way: the ``comm_cpu``
    metric and the fewer-messages tie-break are calibration-invariant.
    """
    elapsed = cpu = 0.0
    messages = 0
    shared_segment = (
        params.network == "ethernet" and not params.ethernet.switched
    )
    for aplan in plan.arrays.values():
        bcast = (
            aplan.scatter_bcast
            and params.network == "vbus"
            and params.vbus_broadcast
        )
        # A fused broadcast is one wave: the first rank's transfers.
        waves = (
            [next(iter(aplan.scatter.values()), [])]
            if bcast
            else aplan.scatter.values()
        )
        for transfers in waves:
            messages += len(transfers)
            for t in transfers:
                e, c = _transfer_cost(t, aplan.itemsize, params)
                elapsed += e
                cpu += c
        rank_elapsed: List[float] = []
        rank_cpu: List[float] = []
        for transfers in aplan.collect.values():
            messages += len(transfers)
            e_sum = c_sum = 0.0
            for t in transfers:
                e, c = _transfer_cost(t, aplan.itemsize, params)
                e_sum += e
                c_sum += c
            rank_elapsed.append(e_sum)
            rank_cpu.append(c_sum)
        if rank_elapsed:
            if shared_segment:
                elapsed += sum(rank_elapsed)
                cpu += sum(rank_cpu)
            else:
                elapsed += max(rank_elapsed)
                cpu += max(rank_cpu)
    if calibration is not None:
        f = region_features(plan, params)
        elapsed = (
            calibration.per_message_s * f["messages"]
            + calibration.per_byte_s * f["bytes"]
            + calibration.strided_per_element_s * f["strided_elements"]
            + calibration.fanout_per_dest_s * f["fanout_dests"]
        )
    return ModelCost(elapsed_s=elapsed, cpu_s=cpu, messages=messages)


def region_features(plan: RegionCommPlan, params) -> Dict[str, float]:
    """:data:`FEATURES` of one region's plan, for the calibrated model.

    ``messages``/``bytes``/``strided_elements`` are **totals** over every
    transfer the region issues — scatter and collect, all ranks — except
    that a fused V-Bus broadcast counts its single wave once and puts its
    destination count in ``fanout_dests``.  Totals, not busiest-rank
    shares, because every transfer converges on the master (its NIC, its
    switch port, or the shared segment): the measured region comm time
    the fit targets is the *serialized* drain of all of them, and the
    per-message/per-byte coefficients absorb whatever overlap the fabric
    actually achieves.  Unlike the static walk of
    :func:`region_model_cost`, this is exactly linear in the transfer
    counts, which is what makes the least-squares fit well-posed.
    """
    msgs = nbytes = selems = fanout = 0.0

    def _tally(transfers, itemsize):
        m = b = s = 0.0
        for t in transfers:
            m += 1
            b += t.count * itemsize
            if not t.contiguous:
                s += t.count
        return m, b, s

    for aplan in plan.arrays.values():
        bcast = (
            aplan.scatter_bcast
            and params.network == "vbus"
            and params.vbus_broadcast
        )
        if bcast:
            waves = [next(iter(aplan.scatter.values()), [])]
            fanout += len(aplan.scatter)
        else:
            waves = [aplan.scatter[r] for r in sorted(aplan.scatter)]
        waves.extend(aplan.collect[r] for r in sorted(aplan.collect))
        for transfers in waves:
            m, b, s = _tally(transfers, aplan.itemsize)
            msgs += m
            nbytes += b
            selems += s
    return {
        "messages": msgs,
        "bytes": nbytes,
        "strided_elements": selems,
        "fanout_dests": fanout,
    }


@dataclass
class RegionDecision:
    """How one parallel region's grain was chosen."""

    region_id: int
    grain: str
    #: "model" (margin >= epsilon) or "profile" (measured rollup).
    how: str
    #: Relative margin of the winner over the runner-up at decision time.
    margin: float
    #: candidate -> analytic metric value (seconds).  Candidates are
    #: grains (``"fine"``) in grain-only searches, ``"grain/strategy"``
    #: labels (``"fine/cyclic"``) in joint partition searches.
    model: Dict[str, float] = field(default_factory=dict)
    #: candidate -> measured per-region metric (profile-decided only).
    measured: Dict[str, float] = field(default_factory=dict)
    #: Chosen §5.3 strategy spec (joint partition searches only).
    partition: Optional[str] = None

    def to_jsonable(self) -> Dict:
        out = {
            "region_id": self.region_id,
            "grain": self.grain,
            "how": self.how,
            "margin": self.margin,
            "model": {g: self.model[g] for g in sorted(self.model)},
        }
        if self.measured:
            out["measured"] = {
                g: self.measured[g] for g in sorted(self.measured)
            }
        if self.partition is not None:
            out["partition"] = self.partition
        return out

    @classmethod
    def from_jsonable(cls, doc: Dict) -> "RegionDecision":
        return cls(
            region_id=int(doc["region_id"]),
            grain=doc["grain"],
            how=doc["how"],
            margin=float(doc["margin"]),
            model=dict(doc.get("model", {})),
            measured=dict(doc.get("measured", {})),
            partition=doc.get("partition"),
        )


@dataclass
class TunePlan:
    """A backend-aware mixed-grain plan, ready to compile or serialize."""

    metric: str
    nprocs: int
    backend: Optional[str]
    default_grain: str
    #: region_id -> grain, only for regions that differ from the default.
    grain_map: Dict[int, str] = field(default_factory=dict)
    epsilon: float = DEFAULT_EPSILON
    source_sha256: str = ""
    decisions: List[RegionDecision] = field(default_factory=list)
    #: Instrumented profile runs the search needed (0 on a warm cache hit
    #: only because the field round-trips from the cached artifact).
    profiles: int = 0
    #: True when the search also tuned the §5.3 partition strategy.
    tune_partition: bool = False
    #: region_id -> strategy spec, only where the tuned choice differs
    #: from the ``auto`` resolution (so an all-agree plan stays empty and
    #: the artifact byte-identical to a grain-only plan).
    partition_map: Dict[int, str] = field(default_factory=dict)
    #: Content hash of the CalibratedModel the analytic tier used, or
    #: ``""`` for an uncalibrated search (v3 field, omitted when empty).
    calibration_sha256: str = ""
    #: True when this plan came from the on-disk plan cache.
    cached: bool = field(default=False, compare=False)
    #: Analytic-tier price evaluations the search actually performed.
    #: Diagnostic counters only — never serialized (so the artifact
    #: says what was decided, not how much work it took), 0 on warm
    #: cache hits.
    evaluated_candidates: int = field(default=0, compare=False)
    #: (region, candidate) pairs the static tier skipped: verifier-
    #: illegal candidates dropped before pricing plus structural
    #: duplicates collapsed by price-key sharing (docs/CHECK.md).
    pruned_candidates: int = field(default=0, compare=False)

    @property
    def mixed(self) -> bool:
        return bool(self.grain_map) or bool(self.partition_map)

    def options(self, **overrides) -> CompileOptions:
        """The :class:`CompileOptions` that realize this plan."""
        kw = dict(
            nprocs=self.nprocs,
            granularity=self.default_grain,
            grain_map=self.grain_map or None,
        )
        if self.partition_map:
            kw["partition_map"] = self.partition_map
        kw.update(overrides)
        return CompileOptions(**kw)

    def to_jsonable(self) -> Dict:
        out = {
            "kind": "tuneplan",
            "metric": self.metric,
            "nprocs": self.nprocs,
            "backend": self.backend,
            "default_grain": self.default_grain,
            "grain_map": {
                str(rid): self.grain_map[rid]
                for rid in sorted(self.grain_map)
            },
            "epsilon": self.epsilon,
            "source_sha256": self.source_sha256,
            "profiles": self.profiles,
            "decisions": [d.to_jsonable() for d in self.decisions],
        }
        # Partition fields appear only in partition-tuned plans, keeping
        # grain-only artifacts (and their committed bytes) unchanged.
        if self.tune_partition:
            out["tune_partition"] = True
            out["partition_map"] = {
                str(rid): self.partition_map[rid]
                for rid in sorted(self.partition_map)
            }
        if self.calibration_sha256:
            out["calibration_sha256"] = self.calibration_sha256
        return out

    @classmethod
    def from_jsonable(cls, doc: Dict) -> "TunePlan":
        if doc.get("kind") != "tuneplan":
            raise ValueError(
                f"not a TunePlan document (kind={doc.get('kind')!r})"
            )
        return cls(
            metric=doc["metric"],
            nprocs=int(doc["nprocs"]),
            backend=doc.get("backend"),
            default_grain=doc["default_grain"],
            grain_map={
                int(rid): g for rid, g in doc.get("grain_map", {}).items()
            },
            epsilon=float(doc.get("epsilon", DEFAULT_EPSILON)),
            source_sha256=doc.get("source_sha256", ""),
            decisions=[
                RegionDecision.from_jsonable(d)
                for d in doc.get("decisions", [])
            ],
            profiles=int(doc.get("profiles", 0)),
            tune_partition=bool(doc.get("tune_partition", False)),
            partition_map={
                int(rid): s
                for rid, s in doc.get("partition_map", {}).items()
            },
            calibration_sha256=doc.get("calibration_sha256", ""),
        )

    def save(self, path: str) -> None:
        """Write the canonical JSON artifact (byte-deterministic)."""
        with open(path, "w") as fh:
            fh.write(canonical_json(self.to_jsonable()))
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TunePlan":
        with open(path) as fh:
            return cls.from_jsonable(json.load(fh))

    def summary(self) -> str:
        where = self.backend or "custom backend"
        head = (
            f"per-region tune plan ({where}, np={self.nprocs}, "
            f"metric: {self.metric}):"
        )
        lines = [head]
        for d in sorted(self.decisions, key=lambda d: d.region_id):
            star = (
                "*"
                if d.region_id in self.grain_map
                or d.region_id in self.partition_map
                else " "
            )
            what = d.grain
            if d.partition is not None:
                what = f"{d.grain}/{d.partition}"
            lines.append(
                f" {star} region {d.region_id}: {what:7s} "
                f"[{d.how}, margin {d.margin * 100:.1f}%]"
            )
        if self.mixed:
            overrides = len(self.grain_map)
            extra = ""
            if self.tune_partition:
                extra = (
                    f", {len(self.partition_map)} partition override(s)"
                )
            lines.append(
                f"  mixed plan: default {self.default_grain}, "
                f"{overrides} override(s){extra}; "
                f"{self.profiles} profile run(s)"
            )
        else:
            lines.append(
                f"  uniform plan: {self.default_grain} everywhere; "
                f"{self.profiles} profile run(s)"
            )
        if self.cached:
            lines.append("  (loaded from plan cache)")
        return "\n".join(lines)


def _check_args(metric: str, epsilon: float) -> None:
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon!r}")


def _report_value(report, metric: str) -> float:
    """The whole-program flavour of a tuning metric."""
    if metric == "comm":
        return report.comm_max_s
    if metric == "comm_cpu":
        return report.comm_cpu_max_s
    return report.total_s


def _measured_value(rollup, metric: str) -> float:
    if metric == "comm":
        return rollup.mpi_max_s
    if metric == "comm_cpu":
        return rollup.nic_cpu_s
    return rollup.elapsed_s


def _margin(values: List[float]) -> float:
    """Relative gap between the two best values (sorted ascending)."""
    if len(values) < 2:
        return math.inf
    best, second = values[0], values[1]
    if second <= 0.0:
        return 0.0
    return (second - best) / second


def _plan_price_key(plan: RegionCommPlan) -> tuple:
    """Everything the cost model reads from a region plan, as a hashable
    projection: two plans with equal keys price identically on every
    backend and calibration (:func:`region_model_cost` and
    :func:`region_features` walk exactly these fields).  The static
    pruning tier uses it to collapse structural duplicates — e.g. a
    coarse variant the §5.6 bound check demoted back to fine, or a
    forced-strategy variant identical to what ``auto`` resolved to —
    into a single evaluation (docs/CHECK.md)."""
    out = []
    for name in sorted(plan.arrays):
        a = plan.arrays[name]
        out.append((
            name,
            a.itemsize,
            a.scatter_bcast,
            tuple((r, tuple(a.scatter[r])) for r in sorted(a.scatter)),
            tuple((r, tuple(a.collect[r])) for r in sorted(a.collect)),
        ))
    return tuple(out)


def _cand_key(grain: str, spec: Optional[str]) -> str:
    """Stable label of a (grain, strategy) candidate for JSON dicts."""
    return grain if spec is None else f"{grain}/{spec}"


def _par_loops(program) -> Dict[int, F.Do]:
    """region_id -> parallel loop, walking the SPMD region tree."""
    from repro.compiler.postpass.spmd import IfRegion, ParRegion, SeqLoop

    loops: Dict[int, F.Do] = {}

    def visit(regions):
        for region in regions:
            if isinstance(region, ParRegion):
                loops[region.region_id] = region.loop
            elif isinstance(region, SeqLoop):
                visit(region.body)
            elif isinstance(region, IfRegion):
                visit(region.then)
                for _c, blk in region.elifs:
                    visit(blk)
                visit(region.orelse)

    visit(program.regions)
    return loops


#: Loops wider than this skip the per-iteration weight analysis (the
#: imbalance term degrades to zero and the profile tier arbitrates).
_MAX_WEIGHT_ITERS = 4096


def _nest_weight(stmts, env) -> float:
    """Approximate work of one parallel iteration: nested trip counts,
    with deeper index-dependent bounds evaluated at the loop midpoint."""
    w = 0.0
    for s in stmts:
        w += 1.0
        if isinstance(s, F.Do):
            ctx = loop_context(s, (), env)
            count = ctx.count
            if count <= 0:
                continue
            inner_env = dict(env)
            inner_env[s.var] = ctx.lo + ((count - 1) // 2) * ctx.step
            w += count * _nest_weight(s.body, inner_env)
        elif isinstance(s, F.If):
            w += _nest_weight(s.then, env)
            for _c, blk in s.elifs:
                w += _nest_weight(blk, env)
            w += _nest_weight(s.orelse, env)
    return w


def _strategy_imbalance(loop: F.Do, nprocs: int) -> Dict[str, float]:
    """Per-strategy load-imbalance factor ``maxW / meanW - 1`` of one
    parallel loop, from per-iteration inner trip counts.

    ``{}`` when the bounds cannot be resolved statically (the term then
    contributes nothing and ambiguity falls through to the profile
    tier).  This is what makes block-on-triangular expensive in the
    model: the heavy ranks' fence-wait skew shows up in the ``comm`` and
    ``total`` metrics, and the factor scales the region's measured
    compute time to price it.
    """
    try:
        pctx = loop_context(loop, (), {})
    except AccessError:
        return {}
    n = pctx.count
    if n <= 0 or n > _MAX_WEIGHT_ITERS:
        return {}
    try:
        values = list(pctx.values())
        weights = [_nest_weight(loop.body, {pctx.var: v}) for v in values]
    except AccessError:
        return {}
    out: Dict[str, float] = {}
    for sname in STRATEGIES:
        part = Partition(pctx=pctx, nprocs=nprocs, strategy=sname)
        per_rank = [0.0] * nprocs
        for v, w in zip(values, weights):
            per_rank[part.owner_of(v)] += w
        mean = sum(per_rank) / nprocs
        out[sname] = max(per_rank) / mean - 1.0 if mean > 0 else 0.0
    return out


def plan_cache_key(
    source: str,
    backend: str,
    nprocs: int,
    metric: str,
    epsilon: float,
    tune_partition: bool = False,
    calibration_sha256: str = "",
) -> str:
    """Content-address of one tuning problem (shares the sweep cache).

    The ``partition`` field joins the key only for joint searches and
    the ``calibration`` field only for calibrated searches, so every
    pre-existing key (and any cached plan stored under one) is untouched
    by either axis.
    """
    sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
    doc = {
        "kind": "tuneplan",
        "source_sha256": sha,
        "backend": backend,
        "nprocs": nprocs,
        "metric": metric,
        "epsilon": epsilon,
    }
    if tune_partition:
        doc["partition"] = True
    if calibration_sha256:
        doc["calibration"] = calibration_sha256
    return job_key(doc)


def _resolve_backend(backend: Optional[str], cluster_params, nprocs: int):
    if cluster_params is not None:
        return cluster_params
    return backend_params(backend if backend is not None else "vbus", nprocs)


#: A search candidate: (grain, §5.3 strategy spec).  Strategy ``None``
#: means the program default (``auto``), the only strategy of a
#: grain-only search.
Cand = Tuple[str, Optional[str]]


@dataclass
class _Table:
    """The candidate table: what every tier of a search reads and writes.

    The tiers run in order — :func:`_compile`, :func:`_prune`,
    :func:`_price`, :func:`_profile`, :func:`_arbitrate`,
    :func:`_compress` — and :func:`_probe` is the one way any of them
    simulates a plan.
    """

    source: str
    #: Options every variant shares; the tiers vary grain and strategy.
    base: CompileOptions
    #: ClusterParams of the probe runs (``None``: the runtime default).
    params: object
    metric: str
    epsilon: float
    faults: object = None
    calibration: object = None
    #: Strategies searched: ``(None,)`` for grain-only searches.
    strategies: Tuple[Optional[str], ...] = (None,)
    #: Compiled program per candidate.
    programs: Dict[Cand, object] = field(default_factory=dict)
    region_ids: List[int] = field(default_factory=list)
    #: region -> its surviving candidates, in compile order.
    cands: Dict[int, List[Cand]] = field(default_factory=dict)
    #: region -> candidate -> analytic price under the static §5.6
    #: constants, and under the calibration (calibrated searches only).
    static: Dict[int, Dict[Cand, ModelCost]] = field(default_factory=dict)
    calibrated: Dict[int, Dict[Cand, ModelCost]] = field(
        default_factory=dict
    )
    #: Joint searches only: region -> what ``auto`` resolves to, region
    #: -> strategy -> load-imbalance factor, and the measured compute
    #: seconds that scale the factor.
    auto_spec: Dict[int, str] = field(default_factory=dict)
    imb: Dict[int, Dict[str, float]] = field(default_factory=dict)
    compute_s: Dict[int, float] = field(default_factory=dict)
    decisions: Dict[int, RegionDecision] = field(default_factory=dict)
    #: region -> strategy family -> the family's model-best candidate.
    family_best: Dict[int, Dict[Optional[str], Cand]] = field(
        default_factory=dict
    )
    #: region -> near-tied candidates the profile tier measures.
    ambiguous: Dict[int, List[Cand]] = field(default_factory=dict)
    #: Simulator runs, analytic price evaluations, and (region,
    #: candidate) pairs skipped by pruning or duplicate collapse.
    profiles: int = 0
    evaluated: int = 0
    pruned: int = 0

    @property
    def joint(self) -> bool:
        return self.strategies != (None,)


def _probe(t: _Table, grain: str, gmap=None, pmap=None, trace=False):
    """Compile and simulate (timing mode) one plan: ``grain`` by default,
    ``gmap``/``pmap`` per region.  Counts one profile run.

    Normalized so a plan that coincides with an already-compiled variant
    hits the compile cache: a grain override equal to the default, or a
    partition override equal to the region's ``auto`` choice, compiles
    the same program without the override.
    """
    gmap = {r: g for r, g in (gmap or {}).items() if g != grain}
    pmap = {**dict(t.base.partition_map or ()), **(pmap or {})}
    pmap = {r: s for r, s in pmap.items() if s != t.auto_spec.get(r)}
    opts = replace(
        t.base,
        granularity=grain,
        grain_map=gmap or None,
        partition_map=pmap or None,
    )
    t.profiles += 1
    return run_program(
        compile_source(t.source, options=opts),
        cluster_params=t.params,
        execute=False,
        trace=trace,
        faults=t.faults,
    )


def _rank(t: _Table, rid: int, cands, value: Dict[Cand, float]) -> List[Cand]:
    """``cands`` best-first by ``value``; ties go to fewer messages, then
    the region's ``auto`` strategy, then STRATEGIES order, then the finer
    grain."""
    auto = t.auto_spec.get(rid)

    def key(c: Cand):
        g, s = c
        pref = (0, 0) if s is None else (
            0 if s == auto else 1, STRATEGIES.index(s)
        )
        return (value[c], t.static[rid][c].messages, pref, GRAINS.index(g))

    return sorted(cands, key=key)


def _assignment(t: _Table) -> Tuple[Dict[int, str], Dict[int, str]]:
    """The current decisions as (grain map, partition map)."""
    gmap = {rid: t.decisions[rid].grain for rid in t.region_ids}
    pmap = {
        rid: t.decisions[rid].partition
        for rid in t.region_ids
        if t.decisions[rid].partition is not None
    }
    return gmap, pmap


def _compile(t: _Table) -> None:
    """Compile tier: every (grain, strategy) variant; the cost model
    reads their plans.  A forced strategy that demotes regions
    (PlanError fallback) shifts region numbering, so such variants are
    no candidates rather than misattributed ones."""
    for s in t.strategies:
        for g in GRAINS:
            kw = {} if s is None else {"partition": s}
            t.programs[(g, s)] = compile_source(
                t.source, options=replace(t.base, granularity=g, **kw)
            )
    t.region_ids = sorted(t.programs[(GRAINS[0], t.strategies[0])].plans)
    candidates = [
        c for c, prog in t.programs.items()
        if sorted(prog.plans) == t.region_ids
    ]
    t.cands = {rid: candidates for rid in t.region_ids}


def _prune(t: _Table) -> None:
    """Prune tier (docs/CHECK.md): before pricing anything, run the
    comm-plan verifier over every variant and drop the candidates it
    proves illegal for a region.  A region where *every* candidate is
    illegal keeps the full list — the tuner must still pick something,
    and an everywhere-illegal program is ``repro check``'s verdict to
    deliver, not the tuner's.

    Every candidate compiles the one source to the same region ids, and
    RV401 depends on a region's partition, never its grain: one memo
    shared by all variants runs it once per (region, partition)."""
    from repro.tools.check import bad_region_map

    candidates = next(iter(t.cands.values()), [])
    rv401 = {}
    illegal = {
        c: frozenset(bad_region_map(t.programs[c], rv401)) for c in candidates
    }
    for rid in t.region_ids:
        kept = [c for c in candidates if rid not in illegal[c]]
        if kept and len(kept) < len(candidates):
            t.pruned += len(candidates) - len(kept)
            t.cands[rid] = kept


def _imbalance(t: _Table) -> None:
    """Joint searches price load imbalance: per-strategy iteration-weight
    skew, scaled by each region's compute time from one baseline
    instrumented profile (the trace-driven part of the model)."""
    auto_prog = compile_source(
        t.source, options=replace(t.base, granularity=GRAINS[0])
    )
    loops = _par_loops(auto_prog)
    for rid in t.region_ids:
        loop = loops.get(rid)
        if loop is None:
            continue
        t.auto_spec[rid] = choose_strategy(loop, "auto")
        t.imb[rid] = _strategy_imbalance(loop, t.base.nprocs)
    # The imbalance term only matters where block and cyclic *differ* in
    # skew: a factor common to every strategy shifts all candidates of a
    # region equally and can never change a ranking.  Workloads with
    # zero such regions (every nest rectangular, or near-even owner
    # counts) skip the baseline instrumented profile entirely.
    skewed = t.metric != "comm_cpu" and any(
        factors and max(factors.values()) - min(factors.values()) > 1e-12
        for factors in t.imb.values()
    )
    if skewed:
        rollups = region_rollup(_probe(t, GRAINS[0], trace=True).trace)
        for rid in t.region_ids:
            roll = rollups.get(rid)
            t.compute_s[rid] = (
                max(0.0, roll.elapsed_s - roll.mpi_max_s)
                if roll is not None
                else 0.0
            )


def _priced(t: _Table, rid: int, calibration) -> Dict[Cand, ModelCost]:
    """Price every surviving candidate of one region; structural
    duplicates (equal :func:`_plan_price_key`) share one evaluation."""
    out: Dict[Cand, ModelCost] = {}
    shared: Dict[tuple, ModelCost] = {}
    for c in t.cands[rid]:
        plan = t.programs[c].plans[rid]
        pk = _plan_price_key(plan)
        if pk in shared:
            t.pruned += 1
        else:
            shared[pk] = region_model_cost(
                plan, t.params, calibration=calibration
            )
            t.evaluated += 1
        out[c] = shared[pk]
    return out


def _values(
    t: _Table, rid: int, costs: Dict[Cand, ModelCost]
) -> Dict[Cand, float]:
    """The tuning metric of each priced candidate, plus the imbalance
    term of joint searches."""
    factors = t.imb.get(rid, {})
    compute_s = t.compute_s.get(rid, 0.0)
    out = {}
    for c in t.cands[rid]:
        v = costs[c].metric(t.metric)
        if c[1] is not None and t.metric != "comm_cpu":
            v += factors.get(c[1], 0.0) * compute_s
        out[c] = v
    return out


def _price(t: _Table) -> None:
    """Analytic tier: price every candidate and decide the regions with
    a clear model margin; near-ties become ``ambiguous``."""
    if t.joint:
        _imbalance(t)
    for rid in t.region_ids:
        cands = t.cands[rid]
        t.static[rid] = costs = _priced(t, rid, None)
        value = _values(t, rid, costs)
        ranked = _rank(t, rid, cands, value)
        values = [value[c] for c in ranked]
        margin = _margin(values)
        best = ranked[0]
        # The model-best candidate per strategy family, for the family
        # arbitration tier (ranked order already applied the tie-break,
        # so the first hit per family is its best).  Within a family the
        # *static* model ranks — its §5.6 pricing is exact up to
        # scheduling, and grains of one family share that scheduling.
        fam_best: Dict[Optional[str], Cand] = {}
        for c in ranked:
            fam_best.setdefault(c[1], c)
        t.family_best[rid] = fam_best
        model_value = value
        if t.calibration is not None:
            # Calibrated searches re-price the *champion* comparison —
            # the cross-family gap is exactly where PR 8 measured the
            # static model to be 2-3x optimistic (strided cyclic
            # descriptors priced as single messages), and exactly what
            # the fitted constants absorbed.  The winner, the recorded
            # model values, and therefore the flip-probe margins below
            # all speak calibrated prices; within-family ranking and its
            # near-tie band stay with the static model.
            t.calibrated[rid] = _priced(t, rid, t.calibration)
            model_value = _values(t, rid, t.calibrated[rid])
            if len(fam_best) > 1:
                champions = _rank(t, rid, fam_best.values(), model_value)
                best = champions[0]
                margin = _margin([model_value[c] for c in champions])
        t.decisions[rid] = RegionDecision(
            region_id=rid,
            grain=best[0],
            how="model",
            margin=margin,
            model={_cand_key(*c): model_value[c] for c in cands},
            partition=best[1],
        )
        if margin < t.epsilon:
            # Candidates within epsilon of the leader go to the profile
            # tier — except exact structural duplicates: candidates whose
            # region plans price identically (elapsed, CPU, *and*
            # messages) emit equivalent transfer schedules (e.g. the §5.6
            # bound check demoted every grain to fine), so the
            # deterministic simulator would measure them identically too.
            # Profiling a duplicate is provably wasted work; the ranked
            # order already applied the tie-break.  Joint searches
            # restrict this tier to the *winner's strategy family*: the
            # model ranks grains reliably within one family, while
            # cross-family gaps are arbitrated by dedicated flip probes
            # on the whole-program metric (:func:`_arbitrate`), not by
            # span attribution.
            near = [
                c
                for c, v in zip(ranked, values)
                if values[0] <= 0.0
                or (v - values[0]) / max(v, 1e-30) < t.epsilon
            ]
            if t.joint:
                near = [c for c in near if c[1] == best[1]]
            near = [
                c
                for i, c in enumerate(near)
                if not any(
                    costs[c] == costs[h] and value[c] == value[h]
                    for h in near[:i]
                )
            ]
            if len(near) > 1:
                t.ambiguous[rid] = near


def _profile(t: _Table) -> None:
    """Profile tier: one instrumented run per candidate rank.  Every
    ambiguous region switches to its k-th candidate in run k, so the run
    count is the longest candidate list, not the number of ambiguous
    regions; the rest of the program keeps its model-best choice."""
    if not t.ambiguous:
        return
    rounds = max(len(c) for c in t.ambiguous.values())
    measured: Dict[int, Dict[str, float]] = {rid: {} for rid in t.ambiguous}
    base_grain = t.decisions[t.region_ids[0]].grain
    for k in range(rounds):
        gmap, pmap = _assignment(t)
        probe = {
            rid: cands[min(k, len(cands) - 1)]
            for rid, cands in t.ambiguous.items()
        }
        for rid, (g, s) in probe.items():
            gmap[rid] = g
            if s is not None:
                pmap[rid] = s
        rollups = region_rollup(
            _probe(t, base_grain, gmap, pmap, trace=True).trace
        )
        for rid, cand in probe.items():
            label = _cand_key(*cand)
            if label in measured[rid]:
                continue  # short candidate list re-ran its last cand
            roll = rollups.get(rid)
            measured[rid][label] = (
                _measured_value(roll, t.metric) if roll is not None else 0.0
            )
    for rid, cands in t.ambiguous.items():
        vals = measured[rid]
        best = _rank(
            t, rid, cands, {c: vals[_cand_key(*c)] for c in cands}
        )[0]
        t.decisions[rid] = replace(
            t.decisions[rid],
            grain=best[0],
            how="profile",
            margin=_margin(sorted(vals.values())),
            measured=dict(vals),
            partition=best[1],
        )


def _arbitrate(t: _Table) -> None:
    """Family arbitration tier (joint searches only).

    The analytic model ranks grains within one strategy family, but its
    scheduling assumptions (scatter serialization, collect overlap, one
    message per strided descriptor) bias block and cyclic differently,
    and unlike the grain axis those biases do not cancel across families
    — the model can be confidently wrong about block-vs-cyclic.  Span
    attribution cannot referee either: region rollups double-count
    collective internals and miss communication deferred past the region
    span.  So every cross-family choice is measured on the
    *whole-program* metric: run the plan-so-far once, then flip one
    region at a time to the rival family's model-best and keep the flip
    iff it strictly improves the program.  Flip configs usually coincide
    with uniform variants of the compile tier, so the compile cache
    makes each probe one timing-mode run.
    """
    if not t.joint:
        return
    flips: Dict[int, List[Cand]] = {}
    for rid in t.region_ids:
        d = t.decisions[rid]
        win = (d.grain, d.partition)
        wv = d.model[_cand_key(*win)]
        for fam, cand in t.family_best[rid].items():
            if fam == win[1]:
                continue
            cv = d.model[_cand_key(*cand)]
            if t.static[rid][cand] == t.static[rid][win] and cv == wv:
                continue  # structural duplicates measure identically
            # The static model's cross-family bias has a *direction*: it
            # prices a strided cyclic descriptor as one message
            # (optimistic) and serializes every block scatter
            # (pessimistic), so it flatters cyclic.  When block wins the
            # static model by a clear margin despite that handicap, the
            # verdict is trustworthy; only a cyclic model win (or a
            # near-tie) needs the measured flip.  A *calibrated* model
            # fitted that optimism away, so its clear-margin verdicts are
            # trusted symmetrically: any cross-family loss by >= epsilon
            # skips its probe.
            clear = cv > 0.0 and (cv - wv) / cv >= t.epsilon
            if clear and (
                t.calibration is not None
                or (win[1], cand[1]) == ("block", "cyclic")
            ):
                continue
            flips.setdefault(rid, []).append(cand)
    if not flips:
        return
    base_gmap, base_pmap = _assignment(t)

    def program_value(gmap, pmap) -> float:
        report = _probe(t, gmap[t.region_ids[0]], gmap, pmap)
        return _report_value(report, t.metric)

    base_val = program_value(base_gmap, base_pmap)
    for rid in sorted(flips):
        d = t.decisions[rid]
        best, best_val = (d.grain, d.partition), base_val
        vals = dict(d.measured)
        vals[_cand_key(*best)] = base_val
        for cand in flips[rid]:
            val = program_value(
                {**base_gmap, rid: cand[0]}, {**base_pmap, rid: cand[1]}
            )
            vals[_cand_key(*cand)] = val
            if val < best_val:
                best, best_val = cand, val
        t.decisions[rid] = replace(
            d,
            grain=best[0],
            partition=best[1],
            how="profile",
            margin=_margin(sorted(vals.values())),
            measured=vals,
        )


def _compress(t: _Table, backend: Optional[str]) -> TunePlan:
    """Compress tier: the majority grain becomes the default and the
    rest override; partition overrides only where the choice disagrees
    with ``auto``."""
    chosen = [t.decisions[rid].grain for rid in t.region_ids]
    default = "fine"
    if chosen:
        default = max(
            GRAINS, key=lambda g: (chosen.count(g), -GRAINS.index(g))
        )
    gmap, pmap = _assignment(t)
    return TunePlan(
        metric=t.metric,
        nprocs=t.base.nprocs,
        backend=backend,
        default_grain=default,
        grain_map={r: g for r, g in gmap.items() if g != default},
        epsilon=t.epsilon,
        source_sha256=hashlib.sha256(t.source.encode("utf-8")).hexdigest(),
        decisions=[t.decisions[rid] for rid in t.region_ids],
        profiles=t.profiles,
        tune_partition=t.joint,
        partition_map={
            r: s for r, s in pmap.items() if s != t.auto_spec.get(r)
        },
        calibration_sha256=(
            t.calibration.sha256() if t.calibration is not None else ""
        ),
        evaluated_candidates=t.evaluated,
        pruned_candidates=t.pruned,
    )


def tune_per_region(
    source: str,
    nprocs: int = 4,
    metric: str = "comm",
    backend: Optional[str] = None,
    cluster_params=None,
    epsilon: float = DEFAULT_EPSILON,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    faults=None,
    tune_partition: bool = False,
    calibration=None,
) -> TunePlan:
    """Derive a per-region mixed-grain :class:`TunePlan` for ``source``.

    ``backend`` is a sweep backend name (``vbus``, ``gige``, ...); pass
    ``cluster_params`` instead for a custom machine (which disables the
    plan cache — there is no stable name to key it under).  ``faults``
    only affects the profile runs, never the plan artifact: fault plans
    perturb timing, not which transfers a grain emits.

    ``tune_partition=True`` widens every tier to the joint
    (grain, §5.3 strategy) space: block and cyclic variants are compiled
    alongside the three grains, the analytic price gains a trace-scaled
    load-imbalance term, and the plan's ``partition_map`` records only
    the regions where the tuned strategy disagrees with ``auto``.

    ``calibration`` (a :class:`~repro.tools.calibrate.CalibratedModel`)
    replaces the analytic tier's static constants with trace-fitted
    ones.  A calibrated model has no known cross-family bias, so the
    family-arbitration prune widens from "clear block wins" to *any*
    clear-margin cross-family verdict — fewer flip probes wherever the
    fitted model is confident.  The calibration's content hash joins the
    plan cache key and the artifact (``calibration_sha256``), keeping
    uncalibrated plans byte-identical to what earlier releases wrote.

    The search runs the tiers of :class:`_Table` in order.  The prune
    tier drops candidates the :mod:`repro.tools.check` verifier proves
    illegal for a region (RV4xx) and the price tier collapses structural
    duplicates to one evaluation; the work saved shows in
    ``evaluated_candidates`` / ``pruned_candidates``.

    Warm calls (``cache_dir`` holds a plan for this exact problem)
    return the cached plan without compiling or profiling anything.
    """
    _check_args(metric, epsilon)
    key = None
    if cache_dir is not None and cluster_params is None:
        key = plan_cache_key(
            source, backend or "vbus", nprocs, metric, epsilon,
            tune_partition=tune_partition,
            calibration_sha256=(
                calibration.sha256() if calibration is not None else ""
            ),
        )
        row = load_row(cache_dir, key)
        if row is not None:
            plan = TunePlan.from_jsonable(row)
            plan.cached = True
            return plan

    t = _Table(
        source=source,
        base=CompileOptions(nprocs=nprocs),
        params=_resolve_backend(backend, cluster_params, nprocs),
        metric=metric,
        epsilon=epsilon,
        faults=faults,
        calibration=calibration,
        strategies=STRATEGIES if tune_partition else (None,),
    )
    for tier in (_compile, _prune, _price, _profile, _arbitrate):
        tier(t)
    plan = _compress(t, backend if cluster_params is None else None)
    if key is not None:
        store_row(cache_dir, key, plan.to_jsonable())
    return plan
