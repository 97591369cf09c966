"""The V-Bus network interface card (paper §2.2).

Cost structure charged per message:

* **software setup** — the MPI daemon shares a message queue with the
  device driver, so a message costs only the user-level enqueue
  (``setup_shared_queue_s``).  With ``shared_queue=False`` the model adds a
  buffer copy plus a user/kernel context switch — the overhead the paper's
  design eliminates.
* **contiguous transfers** use the DMA engine: a descriptor programming
  cost, then streaming that proceeds "without interrupting the processor".
  The DMA rate caps the network streaming rate (PCI-bound).
* **strided transfers** use programmed I/O: the host CPU copies the user
  buffer into the driver buffer one element at a time, paying
  ``pio_per_element_s`` per element *of CPU time*.
* the receiving daemon pays a dequeue cost (``recv_overhead_s``).

Sends and broadcasts (:meth:`Nic.transfer`) and one-sided legs
(``Cluster._rma_leg``) run the same blocking phase, :meth:`Nic.inject`,
on every network.

:meth:`Nic.transfer` returns a :class:`TransferReceipt` so callers (the
MPI-2 library and the run reports) can split *CPU-occupied* time from
*offloaded* (DMA/wire) time — the distinction behind the paper's claim that
user-level DMA communication leaves the processor free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.sim import Resource, Simulator
from repro.vbus.params import NicParams

__all__ = ["Nic", "TransferReceipt"]

#: Extra dequeue cost on the receiving daemon, seconds.
RECV_OVERHEAD_S = 4e-6


@dataclass
class TransferReceipt:
    """Accounting for one completed NIC transfer."""

    nbytes: int
    elements: int
    contiguous: bool
    #: Seconds the sending CPU was occupied (setup + any PIO copying).
    cpu_s: float
    #: Seconds spent end-to-end including wire/DMA streaming.
    total_s: float


class Nic:
    """One node's network card: DMA engine, PIO path, message queue."""

    def __init__(self, sim: Simulator, rank: int, params: NicParams):
        self.sim = sim
        self.rank = rank
        self.params = params
        #: The single DMA engine; concurrent contiguous sends serialize here.
        self._dma = Resource(sim, capacity=1, obs_name=f"dma.{rank}")
        #: Optional :class:`repro.faults.FaultInjector`; ``None`` = healthy.
        self.injector = None
        #: Statistics.
        self.messages = 0
        self.bytes = 0
        self.dma_transfers = 0
        self.pio_elements = 0
        self.cpu_busy_s = 0.0

    def software_setup_s(self) -> float:
        """Per-message software cost on the injection path."""
        return self.params.per_message_overhead_s()

    def pio_s(self, elements: int) -> float:
        """CPU seconds of a strided message's per-element copy."""
        return self.params.pio_setup_s + elements * self.params.pio_per_element_s

    def inject(
        self, elements: int, contiguous: bool, fast: bool,
        *, release_on_abort: bool = False,
    ) -> Generator:
        """The blocking injection phase; returns its CPU seconds.

        The software setup, then the DMA engine plus ``dma_setup_s`` (the
        engine stays held; ``release_on_abort`` frees it if the caller
        dies meanwhile), or the PIO copy.  ``fast`` merges the setup and
        PIO timers into one event at the bit-identical end time and takes
        a free engine synchronously: same instants, fewer kernel events.
        """
        sim = self.sim
        setup = self.software_setup_s()
        if not contiguous:
            pio = self.pio_s(elements)
            if fast:
                yield sim.timeout_at((sim.now + setup) + pio)
            else:
                yield sim.timeout(setup)
                yield sim.timeout(pio)
            return setup + pio
        yield sim.timeout(setup)
        # DMA path: program a descriptor, then the engine streams the
        # user buffer to the driver buffer and onto the wire without the
        # CPU.  The DMA rate caps the wire streaming rate.
        if not (fast and self._dma.try_acquire()):
            yield self._dma.request()
        try:
            yield sim.timeout(self.params.dma_setup_s)
        except BaseException:
            if release_on_abort:
                self._dma.release()
            raise
        return setup + self.params.dma_setup_s

    def transfer(
        self,
        network_call,
        nbytes: int,
        *,
        elements: Optional[int] = None,
        contiguous: bool = True,
        fast: bool = False,
        fast_start=None,
    ) -> Generator:
        """Inject one message; ``network_call(rate_cap)`` produces the wire leg.

        ``network_call`` is a callable returning a generator that delivers
        ``nbytes`` through the interconnect, honoring an optional source-side
        rate cap.  ``fast`` selects the fast path's injection rules
        (:meth:`inject`).  ``fast_start(rate_cap, tail_s, at_release)``,
        when given (with ``fast``), runs the wire leg + receive tail
        without a generator (the network's ``start_send_leg``: see
        :mod:`repro.vbus.fastpath` and :mod:`repro.vbus.ethernet`) and
        returns its completion event, calling ``at_release`` at wire
        end; it returns ``None`` only under an active fault plan, and
        then the stepwise ``network_call`` runs.  Returns a
        :class:`TransferReceipt`.
        """
        if elements is None:
            elements = max(1, nbytes // 8)
        inj = self.injector
        if inj is not None and inj.active:
            # Message-injection fault hook: dead-node check + after_sends
            # kills fire here, before any cost is charged.
            inj.on_inject(self.rank)
        t0 = self.sim.now
        cpu_s = yield from self.inject(
            elements, contiguous, fast, release_on_abort=True
        )
        cap = self.params.dma_rate_Bps if contiguous else None
        done = None
        try:
            if fast_start is not None:
                # A fast leg releases the DMA engine where the stepwise
                # ``finally`` below would: when the wire leg ends.
                done = fast_start(
                    cap, RECV_OVERHEAD_S,
                    self._dma.release if contiguous else None,
                )
            if done is None:
                yield from network_call(cap)
        finally:
            if contiguous and done is None:
                self._dma.release()
        if contiguous:
            self.dma_transfers += 1
        else:
            self.pio_elements += elements

        if done is not None:
            # A callback leg: wire streaming + receive dequeue in one wait.
            yield done
        else:
            # Receiving daemon dequeues the message.
            yield self.sim.timeout(RECV_OVERHEAD_S)

        self.messages += 1
        self.bytes += nbytes
        self.cpu_busy_s += cpu_s
        tr = self.sim.tracer
        if tr is not None:
            mode = "dma" if contiguous else "pio"
            tr.span(
                ("node", self.rank), f"{mode} send", t0,
                args={"bytes": nbytes, "elements": elements, "cpu_s": cpu_s},
            )
            tr.count("nic.messages")
            tr.count(f"nic.{mode}_bytes", nbytes, "B")
            if not contiguous:
                tr.count("nic.pio_elements", elements)
            tr.observe("nic.cpu_s", cpu_s, "s")
        return TransferReceipt(
            nbytes=nbytes,
            elements=elements,
            contiguous=contiguous,
            cpu_s=cpu_s,
            total_s=self.sim.now - t0,
        )
