"""Hardware parameter records and the calibrated presets.

Calibration targets (all *relative*, per DESIGN.md §2):

* SKWP link bandwidth ≈ 4x conventional pipelining (paper §2.1);
* V-Bus card end-to-end bandwidth ≈ 4x Fast Ethernet, latency ≈ 1/4
  (paper §1/§2.1);
* contiguous DMA transfers ≫ strided programmed-I/O (paper §2.2);
* user-level messaging (shared queue) avoids the kernel context switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.faults.plan import FaultPlan

__all__ = [
    "LinkParams",
    "NicParams",
    "CpuParams",
    "EthernetParams",
    "ClusterParams",
    "VBUS_SKWP",
    "VBUS_CONVENTIONAL",
    "VBUS_WAVE_UNTUNED",
    "ETHERNET_100",
    "GIGE_SWITCHED",
    "BACKENDS",
    "backend_params",
]

#: Valid link pipelining modes.
LINK_MODES = ("conventional", "wave", "skwp")


@dataclass(frozen=True)
class LinkParams:
    """Physical parameters of one mesh link (a bundle of parallel lines)."""

    #: Pipelining discipline: "conventional" (one datum in flight),
    #: "wave" (multiple waves, skew-limited), "skwp" (skew-sampled wave).
    mode: str = "skwp"
    #: Number of parallel data lines (bits transferred per cycle).
    width_bits: int = 8
    #: Nominal wire propagation delay of the link, seconds.
    wire_delay_s: float = 16e-9
    #: Combinational setup/logic time that bounds any cycle, seconds.
    setup_s: float = 4e-9
    #: Worst-case static skew spread between the fastest and slowest line.
    skew_spread_s: float = 8e-9
    #: Dynamic jitter that even a sampling circuit cannot remove.
    jitter_s: float = 0.5e-9
    #: Resolution of the automatic skew-sampling circuit (SKWP only).
    sampling_resolution_s: float = 0.5e-9
    #: Per-hop router pipeline latency (head-flit fall-through), seconds.
    router_delay_s: float = 60e-9

    def __post_init__(self):
        if self.mode not in LINK_MODES:
            raise ValueError(f"unknown link mode {self.mode!r}; use {LINK_MODES}")
        if self.width_bits <= 0:
            raise ValueError("width_bits must be positive")

    def with_mode(self, mode: str) -> "LinkParams":
        return replace(self, mode=mode)


@dataclass(frozen=True)
class NicParams:
    """Network-interface-card parameters (paper §2.2)."""

    #: Per-message software setup when the driver and the MPI daemon share
    #: one message queue (user-level communication).
    setup_shared_queue_s: float = 6e-6
    #: Extra cost per message when the queue is NOT shared: one buffer copy
    #: plus a user/kernel context switch.
    context_switch_s: float = 25e-6
    #: DMA engine streaming rate, bytes/second (PCI-bound; this is the
    #: card-level bandwidth the paper compares against Fast Ethernet).
    dma_rate_Bps: float = 50e6
    #: DMA channel programming cost per descriptor.
    dma_setup_s: float = 2e-6
    #: Programmed-I/O cost per element copied by the host CPU (one uncached
    #: load + one I/O-bus store per element on the 300 MHz PII).
    pio_per_element_s: float = 1.0e-6
    #: PIO setup per transfer.
    pio_setup_s: float = 1e-6
    #: Device driver staging buffer size, bytes.
    driver_buffer_bytes: int = 1 << 16
    #: Whether driver and daemon share the message queue (user-level path).
    shared_queue: bool = True

    def per_message_overhead_s(self) -> float:
        """Software cost charged on every message before any data moves."""
        if self.shared_queue:
            return self.setup_shared_queue_s
        return self.setup_shared_queue_s + self.context_switch_s


@dataclass(frozen=True)
class CpuParams:
    """Host processor cost model (300 MHz Pentium II)."""

    clock_hz: float = 300e6
    #: Cycles charged per arithmetic op, by operator class.
    cycles_add: float = 1.0
    cycles_mul: float = 3.0
    cycles_div: float = 18.0
    cycles_intrinsic: float = 40.0
    #: Cycles per memory reference (load or store) in the interpreter model.
    cycles_mem: float = 2.0
    #: Loop-control overhead per iteration.
    cycles_loop: float = 2.0
    #: Relative slowdown of compiler-generated SPMD loops vs the original
    #: sequential code (bounds indirection, master/slave checks): the
    #: paper's Table 1 measures 0.96 speedup on one node, i.e. ~4%.
    spmd_compute_overhead: float = 0.04

    def seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz


@dataclass(frozen=True)
class EthernetParams:
    """Ethernet interconnect (shared medium or switched, kernel stack)."""

    rate_Bps: float = 12.5e6  # 100 Mb/s
    #: Kernel TCP/UDP stack latency per message, each side.
    sw_latency_s: float = 22e-6
    #: Minimum frame time (64-byte frame + preamble + IFG at 100 Mb/s).
    min_frame_s: float = 6.7e-6
    #: Maximum payload per frame.
    mtu_bytes: int = 1500
    #: Per-port full-duplex switched fabric instead of the single shared
    #: segment: messages occupy only their source and destination ports
    #: (store-and-forward), so disjoint pairs communicate concurrently.
    switched: bool = False
    #: Switch forwarding-decision latency per message (store-and-forward
    #: buffering itself is modeled by occupying both ports in turn).
    switch_latency_s: float = 5e-6


@dataclass(frozen=True)
class ClusterParams:
    """A full machine description."""

    #: Mesh shape (rows, cols); the paper's testbed is 4 nodes (2x2).
    mesh: Tuple[int, int] = (2, 2)
    link: LinkParams = field(default_factory=LinkParams)
    nic: NicParams = field(default_factory=NicParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    ethernet: EthernetParams = field(default_factory=EthernetParams)
    #: Interconnect selection: "vbus" (mesh + virtual bus) or "ethernet".
    network: str = "vbus"
    #: Whether the V-Bus hardware broadcast is available to collectives.
    vbus_broadcast: bool = True
    #: Bytes per V-Bus streaming chunk when a transfer must be interruptible.
    #: (Only affects freeze granularity, not throughput.)
    chunk_bytes: int = 4096
    #: Batched transfer accounting: charge provably-uncontended wire legs
    #: analytically (O(1) events) instead of stepwise.  Simulated results
    #: are bit-identical (see repro.vbus.fastpath); only wall-clock drops.
    fast_path: bool = False
    #: Attach a :class:`repro.obs.Tracer` to the simulation: every layer
    #: (kernel, channels, NICs, V-Bus, MPI-2, runtime) records spans and
    #: metrics.  Observation only — simulated results are bit-identical
    #: with tracing on or off (see docs/TRACE_FORMAT.md).
    trace: bool = False
    #: Seeded fault plan (see :mod:`repro.faults` and docs/FAULTS.md);
    #: ``None`` = healthy hardware.  An *active* plan demotes the fast
    #: path (faulty wire legs must run stepwise so retransmission rounds
    #: interleave with other traffic exactly as the oracle would).
    faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.network not in ("vbus", "ethernet"):
            raise ValueError(f"unknown network {self.network!r}")
        rows, cols = self.mesh
        if rows < 1 or cols < 1:
            raise ValueError(f"bad mesh shape {self.mesh}")

    @property
    def nprocs(self) -> int:
        return self.mesh[0] * self.mesh[1]


def _mesh_for(nprocs: int) -> Tuple[int, int]:
    """Most-square mesh factorization for ``nprocs`` nodes."""
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    best = (1, nprocs)
    r = 1
    while r * r <= nprocs:
        if nprocs % r == 0:
            best = (r, nprocs // r)
        r += 1
    return best


def cluster_for(nprocs: int, base: "ClusterParams" = None) -> ClusterParams:
    """A cluster preset resized to ``nprocs`` nodes (most-square mesh)."""
    base = base if base is not None else VBUS_SKWP
    return replace(base, mesh=_mesh_for(nprocs))


#: The paper's machine: SKWP links, V-Bus broadcast, shared-queue NIC.
VBUS_SKWP = ClusterParams()

#: Same card with the skew-sampling circuit disabled (conventional pipelining).
VBUS_CONVENTIONAL = ClusterParams(link=LinkParams(mode="conventional"))

#: Wave pipelining without skew sampling (skew-limited, accumulates per hop).
VBUS_WAVE_UNTUNED = ClusterParams(link=LinkParams(mode="wave"))

#: Fast-Ethernet-connected cluster of the same PCs (baseline).
ETHERNET_100 = ClusterParams(network="ethernet", vbus_broadcast=False)

#: Modeled switched Gigabit Ethernet: per-port full duplex, 1 Gb/s line
#: rate, store-and-forward switch.  The kernel networking stack still
#: bounds small-message latency — the crossover the APEnet+/Beowulf
#: mesh-vs-switched comparisons frame (see EXPERIMENTS.md).
GIGE_SWITCHED = ClusterParams(
    network="ethernet",
    vbus_broadcast=False,
    ethernet=EthernetParams(
        rate_Bps=125e6,  # 1 Gb/s
        sw_latency_s=18e-6,
        min_frame_s=0.672e-6,
        mtu_bytes=1500,
        switched=True,
        switch_latency_s=5e-6,
    ),
)

#: Backend name (the CLI/sweep ``backend`` value) -> preset attribute name.
BACKENDS = {
    "vbus": "VBUS_SKWP",
    "vbus-conventional": "VBUS_CONVENTIONAL",
    "vbus-wave": "VBUS_WAVE_UNTUNED",
    "ethernet100": "ETHERNET_100",
    "gige": "GIGE_SWITCHED",
}


def backend_params(name: str, nprocs: int) -> ClusterParams:
    """The preset for backend ``name``, resized to ``nprocs`` nodes."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; use one of {sorted(BACKENDS)}"
        )
    return cluster_for(nprocs, globals()[BACKENDS[name]])
