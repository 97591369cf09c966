"""The SPMD executor: master/slave execution of compiled programs.

Each rank is a simulation process walking the program's region tree:

* **sequential regions** — the master executes the statements; the
  scalar environment is then broadcast so every rank agrees on
  subsequent control flow (the paper's barrier-delimited master section);
* **parallel regions** — scatter (master one-sided puts, or a V-Bus
  broadcast when the plan detected identical slave regions), fence,
  partitioned compute, reduction combine under ``MPI_WIN_LOCK`` /
  ``MPI_ACCUMULATE``, collect (slave puts to the master), fence, barrier;
* **replicated control** (serial loops / IFs around parallel regions) —
  every rank evaluates the bounds/condition on its synchronized scalars.

``execute=False`` runs the same communication schedule and cost model
without numeric work (timing mode for the large benchmark sizes).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.compiler.frontend import fast as F
from repro.compiler.postpass.spmd import (
    IfRegion,
    ParRegion,
    SeqBlock,
    SeqLoop,
)
from repro.mpi2 import MAX, MIN, Mpi2Runtime, PROD, SUM
from repro.mpi2.window import Win
from repro.runtime.interp import Interpreter
from repro.runtime.memory import RankMemory
from repro.runtime.program import SpmdProgram
from repro.runtime.report import RunReport
from repro.vbus import build_cluster
from repro.vbus.params import VBUS_SKWP, ClusterParams

__all__ = ["run_program", "run_sequential", "ExecutionError"]

_OPMAP = {"+": SUM, "*": PROD, "MAX": MAX, "MIN": MIN}
_IDENTITY = {"+": 0.0, "*": 1.0, "MAX": float("-inf"), "MIN": float("inf")}


class ExecutionError(RuntimeError):
    """Runtime failure while executing an SPMD program."""


class _Execution:
    def __init__(
        self,
        program: SpmdProgram,
        cluster_params: Optional[ClusterParams],
        execute: bool,
        init: Optional[Dict[str, np.ndarray]],
        sanitize: bool = False,
    ):
        self.program = program
        self.execute = execute
        nprocs = program.nprocs
        self.cluster = build_cluster(nprocs, params=cluster_params)
        self.sim = self.cluster.sim
        #: The attached tracer (None = tracing off).
        self.tracer = self.cluster.tracer
        self.runtime = Mpi2Runtime(self.cluster)
        self.comms = [self.runtime.comm(r) for r in range(nprocs)]
        self.memories = [
            RankMemory(program.symtab, r) for r in range(nprocs)
        ]
        if init:
            for name, values in init.items():
                self.memories[0].load(name, values)
        self.interps = [
            Interpreter(
                self.memories[r],
                program.symtab,
                self.cluster.params.cpu,
                execute=execute,
                metrics=self.tracer.metrics if self.tracer else None,
            )
            for r in range(nprocs)
        ]
        # One window per array accessed remotely.
        self.wins: Dict[str, List[Win]] = {}
        for name in program.env.window_arrays:
            buffers = [self.memories[r].arrays[name] for r in range(nprocs)]
            self.wins[name] = Win.create(self.comms, buffers)
        # A scalar window for reductions (and any replicated scalar).
        red_names = sorted(
            {
                s
                for region in program.parallel_regions()
                for s, _op in region.loop.reductions
            }
        )
        self.red_slots = {name: i for i, name in enumerate(red_names)}
        red_buffers = [
            np.zeros(max(1, len(red_names))) for _ in range(nprocs)
        ]
        self.redwin = Win.create(self.comms, red_buffers)
        # Dynamic counters.
        self.scatter_messages = 0
        self.scatter_bytes = 0
        self.collect_messages = 0
        self.collect_bytes = 0
        #: region_id -> [visits, elapsed_s] measured on the master.
        self.region_profile: Dict[int, list] = {}
        #: Shadow-access sanitizer (docs/CHECK.md); probes every array
        #: access, so it needs real values to be meaningful.
        self.san = None
        if sanitize:
            if not execute:
                raise ExecutionError(
                    "--sanitize needs value execution; timing mode "
                    "(execute=False) never touches array elements"
                )
            from repro.runtime.sanitizer import Sanitizer

            self.san = Sanitizer(program)
            for r in range(nprocs):
                self.interps[r].probe = self.san.make_probe(r)

    # -- helpers ---------------------------------------------------------
    def _compute(self, rank: int, overhead: float = 0.0):
        seconds = self.interps[rank].take_seconds() * (1.0 + overhead)
        if seconds > 0:
            if self.tracer is not None:
                # Duration is known analytically at schedule time.
                now = self.sim.now
                self.tracer.span(("rank", rank), "compute", now, now + seconds)
            return self.cluster.hosts[rank].compute_seconds(seconds)
        return self.sim.timeout(0.0)

    def _payload(self, rank: int, name: str, t, itemsize: int):
        if not self.execute:
            return None
        return self.memories[rank].arrays[name][t.indices()]

    def _sync_env(self, rank: int):
        """Master broadcasts the replicated scalar environment."""
        names = self.program.env.replicated_scalars
        payload = None
        if rank == 0:
            payload = {n: self.memories[0].scalars[n] for n in names}
        data = yield from self.comms[rank].bcast(payload, root=0)
        if rank != 0 and data:
            self.memories[rank].scalars.update(data)

    def _fence_all(self, rank: int, names):
        """Drain the named windows, then one shared barrier."""
        for name in names:
            yield from self.wins[name][rank].drain()
        yield from self.redwin[rank].drain()
        yield from self.comms[rank].barrier()

    # -- region walkers ----------------------------------------------------
    def run_rank(self, rank: int):
        yield from self._run_regions(rank, self.program.regions)

    def _run_regions(self, rank: int, regions):
        for region in regions:
            t0 = self.sim.now
            if isinstance(region, SeqBlock):
                yield from self._seq_block(rank, region)
            elif isinstance(region, ParRegion):
                yield from self._par_region(rank, region)
            elif isinstance(region, SeqLoop):
                yield from self._seq_loop(rank, region)
            elif isinstance(region, IfRegion):
                yield from self._if_region(rank, region)
            if not isinstance(region, (SeqLoop, IfRegion)):
                if rank == 0:
                    cell = self.region_profile.setdefault(
                        region.region_id, [0, 0.0]
                    )
                    cell[0] += 1
                    cell[1] += self.sim.now - t0
                if self.tracer is not None:
                    kind = "par" if isinstance(region, ParRegion) else "seq"
                    self.tracer.span(
                        ("rank", rank), f"{kind}-region {region.region_id}", t0
                    )

    def _seq_block(self, rank: int, region: SeqBlock):
        if rank == 0:
            self.interps[0].exec_stmts(region.stmts, {})
            yield self._compute(0)
        yield from self._sync_env(rank)

    def _seq_loop(self, rank: int, region: SeqLoop):
        interp = self.interps[rank]
        loop = region.loop
        lo = int(interp.eval(loop.lo, {}))
        hi = int(interp.eval(loop.hi, {}))
        step = int(interp.eval(loop.step, {}))
        niter = max(0, (hi - lo) // step + 1 if (hi - lo) * step >= 0 else 0)
        v = lo
        for _ in range(niter):
            self.memories[rank].scalars[loop.var] = v
            yield from self._run_regions(rank, region.body)
            v += step
        self.memories[rank].scalars[loop.var] = v

    def _if_region(self, rank: int, region: IfRegion):
        interp = self.interps[rank]
        if bool(interp.eval(region.cond, {})):
            yield from self._run_regions(rank, region.then)
            return
        for c, blk in region.elifs:
            if bool(interp.eval(c, {})):
                yield from self._run_regions(rank, blk)
                return
        yield from self._run_regions(rank, region.orelse)

    # -- the parallel region protocol -----------------------------------------
    def _par_region(self, rank: int, region: ParRegion):
        program = self.program
        plan = program.plans[region.region_id]
        partition = region.partition
        loop = region.loop
        comm = self.comms[rank]
        mem = self.memories[rank]
        win_names = sorted(plan.arrays)

        # Scalars slaves need (loop bounds, coefficients, ...).
        yield from self._sync_env(rank)

        # ---- data scattering -------------------------------------------------
        for name in win_names:
            aplan = plan.arrays[name]
            if aplan.scatter_bcast:
                transfers = next(iter(aplan.scatter.values()))
                for t in transfers:
                    payload = (
                        self._payload(0, name, t, aplan.itemsize)
                        if rank == 0
                        else None
                    )
                    if payload is None and rank == 0:
                        payload = np.empty(t.count, dtype=f"f{aplan.itemsize}")
                    data = yield from comm.bcast(payload, root=0)
                    if rank != 0 and self.execute:
                        mem.arrays[name][t.indices()] = data
                        if self.san is not None:
                            self.san.on_scatter(rank, name, t)
                    if rank == 0:
                        self.scatter_messages += 1
                        self.scatter_bytes += t.count * aplan.itemsize
            elif rank == 0:
                yield from self.wins[name][0].put_all(
                    self._scatter_puts(name, aplan), aplan.itemsize
                )
        if plan.scatter_fence:
            yield from self._fence_all(rank, win_names)
        elif self.san is not None:
            self.san.fence_skipped(region.region_id, "scatter", plan)

        # ---- compute -----------------------------------------------------
        reductions = loop.reductions
        if reductions and rank == 0:
            # Seed the combine slots with the master's live-in values.
            for s, op in reductions:
                self.redwin[0].local[self.red_slots[s]] = mem.scalars.get(
                    s, _IDENTITY[op]
                )
        for s, op in reductions:
            mem.scalars[s] = _IDENTITY[op]

        rctx = partition.rank_ctx(rank)
        if rctx is not None:
            if self.san is not None:
                self.san.begin_compute(rank, region.region_id)
            interp = self.interps[rank]
            if partition.split_dim == 0:
                interp.run_loop(
                    loop, {}, bounds=(rctx.lo, rctx.hi, rctx.step)
                )
            else:
                # Deeper split dimensions restrict an inner loop of a
                # perfect nest; the rank runs the outer dimensions in
                # full over a bounds-rewritten copy (docs/PARTITION.md).
                interp.run_loop(partition.rank_loop(rank, loop), {})
            if self.san is not None:
                self.san.end_compute(rank)
            yield self._compute(
                rank, overhead=self.cluster.params.cpu.spmd_compute_overhead
            )

        # ---- reduction combine (lock + accumulate on the master) -----------
        for s, op in reductions:
            partial = mem.scalars.get(s, _IDENTITY[op])
            win = self.redwin[rank]
            yield from win.lock(0)
            yield from win.accumulate(
                np.array([partial]),
                target=0,
                op=_OPMAP[op],
                offset=self.red_slots[s],
            )
            win.unlock(0)

        # ---- data collecting ---------------------------------------------
        for name in win_names:
            aplan = plan.arrays[name]
            yield from self.wins[name][rank].put_all(
                self._collect_puts(rank, region.region_id, name, aplan),
                aplan.itemsize,
            )
        if plan.collect_fence:
            yield from self._fence_all(rank, win_names)
        elif self.san is not None:
            self.san.fence_skipped(region.region_id, "collect", plan)

        # Master folds the combined reductions back into its scalars.
        if rank == 0:
            if self.san is not None:
                self.san.region_end(region.region_id, plan)
            for s, _op in reductions:
                mem.scalars[s] = float(self.redwin[0].local[self.red_slots[s]])
        if reductions:
            yield from self._sync_env(rank)

    # -- one window's puts, built one at a time (Win.put_all) --------------
    def _scatter_puts(self, name: str, aplan):
        """The master's puts of ``name`` to every slave."""
        for r, transfers in sorted(aplan.scatter.items()):
            for t in transfers:
                data = self._payload(0, name, t, aplan.itemsize)
                yield data, r, t.offset, t.stride, t.count
                self.scatter_messages += 1
                self.scatter_bytes += t.count * aplan.itemsize
                if self.san is not None:
                    self.san.on_scatter(r, name, t)

    def _collect_puts(self, rank: int, region_id: int, name: str, aplan):
        """``rank``'s puts of ``name`` back to the master."""
        for t in aplan.collect.get(rank, []):
            data = self._payload(rank, name, t, aplan.itemsize)
            if self.san is not None:
                self.san.on_collect(rank, region_id, name, t)
            yield data, 0, t.offset, t.stride, t.count
            self.collect_messages += 1
            self.collect_bytes += t.count * aplan.itemsize

    # -- reporting --------------------------------------------------------
    def report(self) -> RunReport:
        program = self.program
        grain_map = dict(program.options.grain_map or ())
        partition_map = dict(
            getattr(program.options, "partition_map", None) or ()
        )
        rep = RunReport(
            nprocs=program.nprocs,
            granularity="mixed" if grain_map else program.options.granularity,
            grain_map=grain_map,
            partition=getattr(program.options, "partition", "auto"),
            partition_map=partition_map,
            total_s=self.sim.now,
        )
        for r in range(program.nprocs):
            rep.compute_s[r] = self.cluster.hosts[r].compute_s
            rep.comm_s[r] = self.comms[r].comm_s
            rep.comm_cpu_s[r] = self.cluster.hosts[r].comm_cpu_s
            rep.fence_wait_s[r] = sum(
                wins[r].fence_wait_s for wins in self.wins.values()
            ) + self.redwin[r].fence_wait_s
        rep.hw = self.cluster.stats()
        rep.scatter_messages = self.scatter_messages
        rep.scatter_bytes = self.scatter_bytes
        rep.collect_messages = self.collect_messages
        rep.collect_bytes = self.collect_bytes
        for wins in list(self.wins.values()) + [self.redwin]:
            for w in wins:
                rep.strided_transfers += w.puts_strided + w.gets_strided
                rep.contiguous_transfers += w.puts_contig + w.gets_contig
        rep.stdout = list(self.interps[0].prints)
        rep.memory = self.memories[0]
        if self.san is not None:
            rep.sanitizer = self.san.to_jsonable()
        if self.cluster.injector is not None:
            rep.fault_stats = self.cluster.injector.stats()
        if self.tracer is not None:
            from repro.obs.export import metrics_rows
            from repro.vbus.stats import cluster_metrics_rows

            rep.trace = self.tracer
            rep.metrics_rows = metrics_rows(
                self.tracer, cluster_metrics_rows(self.cluster)
            )
        rep.region_profile = {
            rid: (visits, elapsed)
            for rid, (visits, elapsed) in sorted(self.region_profile.items())
        }
        return rep


def run_program(
    program: SpmdProgram,
    cluster_params: Optional[ClusterParams] = None,
    execute: bool = True,
    init: Optional[Dict[str, np.ndarray]] = None,
    trace: bool = False,
    faults=None,
    sanitize: bool = False,
) -> RunReport:
    """Run a compiled SPMD program on a freshly built simulated cluster.

    ``execute=False`` skips numeric array work (timing mode); ``init``
    preloads master arrays (name -> ndarray in the declared shape);
    ``trace=True`` attaches a :class:`repro.obs.Tracer` (the report's
    ``trace`` / ``metrics_rows`` fields) without changing simulated times.
    ``faults`` (a :class:`repro.faults.FaultPlan`) injects deterministic
    faults; the run either recovers via link-level retransmission (the
    report's ``fault_stats`` shows the recovery work) or raises a typed
    :class:`~repro.mpi2.exceptions.MpiFaultError` — never a hang, never a
    silently corrupted result (see docs/FAULTS.md).  ``sanitize=True``
    installs the shadow-access sanitizer (requires value mode; the
    report's ``sanitizer`` field carries the verdict — docs/CHECK.md).
    """
    if trace or faults is not None:
        cluster_params = replace(
            cluster_params if cluster_params is not None else VBUS_SKWP,
            **{
                k: v
                for k, v in (("trace", trace or None), ("faults", faults))
                if v is not None
            },
        )
    ex = _Execution(program, cluster_params, execute, init, sanitize=sanitize)
    procs = [
        ex.sim.process(ex.run_rank(r), name=f"rank{r}")
        for r in range(program.nprocs)
    ]
    injector = ex.cluster.injector
    if injector is None:
        ex.sim.run()
        return ex.report()

    from repro.mpi2.exceptions import MpiNodeDeadError, MpiWatchdogError
    from repro.sim import AllOf, AnyOf, SimulationError

    for r, proc in enumerate(procs):
        injector.register_rank_process(r, proc)
    injector.start()

    # Run until every rank finishes — or a fault ends the run first.  A
    # node kill fails its rank's process event, which fails ``done``
    # immediately; ``max_sim_s`` bounds the run in simulated time so even
    # an unforeseen hang surfaces as a typed error, not a stuck scheduler.
    done = AllOf(ex.sim, procs)
    plan = injector.plan
    watch = (
        ex.sim.timeout(plan.max_sim_s) if plan.max_sim_s is not None else None
    )
    target = AnyOf(ex.sim, [done, watch]) if watch is not None else done
    try:
        ex.sim.run(until=target)
    except SimulationError:
        if injector.dead:
            raise MpiNodeDeadError(
                f"run deadlocked with dead node(s) {sorted(injector.dead)}"
            ) from None
        raise
    if watch is not None and not done.triggered:
        raise MpiWatchdogError(
            f"run exceeded the fault plan watchdog ({plan.max_sim_s} s); "
            f"unfinished rank(s): "
            f"{[r for r, p in enumerate(procs) if not p.triggered]}"
        )
    return ex.report()


def run_sequential(
    program: SpmdProgram,
    cluster_params: Optional[ClusterParams] = None,
    execute: bool = True,
    init: Optional[Dict[str, np.ndarray]] = None,
) -> RunReport:
    """Run the *original* (pre-SPMD) program on one simulated PC.

    The baseline for the paper's speedup numbers.
    """
    params = cluster_params.cpu if cluster_params is not None else None
    from repro.vbus.params import CpuParams

    cpu = params or CpuParams()
    mem = RankMemory(program.symtab, 0)
    if init:
        for name, values in init.items():
            mem.load(name, values)
    interp = Interpreter(mem, program.symtab, cpu, execute=execute)
    interp.exec_stmts(program.unit.body, {})
    rep = RunReport(nprocs=1, granularity="n/a")
    rep.total_s = interp.cycles / cpu.clock_hz
    rep.compute_s[0] = rep.total_s
    rep.stdout = list(interp.prints)
    rep.memory = mem
    return rep
