"""Fault plans: the declarative, seeded description of what goes wrong.

A :class:`FaultPlan` is a frozen value — a seed, retransmission knobs, and
a tuple of :class:`FaultSpec` records — that :class:`ClusterParams` carries
(``ClusterParams.faults``) exactly like any other hardware knob.  The plan
says *what* faults exist; the :class:`~repro.faults.injector.FaultInjector`
decides *when* each one fires, deterministically from the plan seed, so the
same plan on the same program replays the same faults event for event.

Fault kinds
-----------

``drop``
    Per-flit loss probability on matching wire legs.  Lost flits are
    detected by sequence gap at the receiver and selectively
    retransmitted (rounds of NACK + resend, or a sender timeout when the
    whole tail vanished).
``corrupt``
    Per-flit corruption probability.  With ``RetxParams.crc_check`` on
    (the default) the receiver's CRC catches every corrupted flit and it
    joins the retransmission rounds; with the check off, corrupted flits
    are *accepted* and counted as silent corruptions.
``delay``
    Per-message probability of an extra fixed latency (``delay_s``) on
    the wire leg — a slow link, not a lossy one.
``stall``
    A channel (or every outgoing channel of a node) is held busy during
    ``[t0, t1)``; a wormhole head that reaches it waits for the window
    to end.  ``t1`` must be finite — an unbounded stall is a hang, which
    is exactly what fault runs must never produce.
``kill``
    A node dies at simulated time ``at_s`` or after its NIC has injected
    ``after_sends`` messages.  Death is unrecoverable: the victim's rank
    process is terminated and every later operation touching the node
    raises :class:`~repro.mpi2.exceptions.MpiNodeDeadError`.

``src``/``dst``/``t0``/``t1`` scope a wire-fault spec to matching
transfers; ``None`` means "any".  Broadcast wire legs match only specs
whose ``dst`` is ``None``.

The JSON schema (``repro run --faults plan.json``) is documented in
``docs/FAULTS.md``; :meth:`FaultPlan.from_json` / :meth:`FaultPlan.to_json`
round-trip it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

__all__ = ["RetxParams", "FaultSpec", "FaultPlan"]

#: Valid fault kinds.
FAULT_KINDS = ("drop", "corrupt", "delay", "stall", "kill")

#: Combined per-flit loss probability is capped below 1 so retransmission
#: rounds shrink geometrically and always terminate.
MAX_FLIT_RATE = 0.999


@dataclass(frozen=True)
class RetxParams:
    """Link-level retransmission knobs (selective repeat with CRC)."""

    #: Sender-side retransmission timeout when an entire round is lost
    #: (no receiver feedback at all), seconds.
    timeout_s: float = 20e-6
    #: Receiver NACK round-trip charged per retransmission round when at
    #: least part of the round arrived (gap/CRC feedback), seconds.
    nack_s: float = 2e-6
    #: Multiplier applied to ``timeout_s`` on consecutive silent rounds.
    backoff: float = 2.0
    #: Rounds before the link gives up and raises ``MpiLinkError``.
    max_rounds: int = 8
    #: Whether the receiver verifies a per-flit CRC.  Off, corrupted
    #: flits are accepted silently (and counted — never invisible).
    crc_check: bool = True

    def __post_init__(self):
        if self.timeout_s < 0 or self.nack_s < 0:
            raise ValueError("retransmission times must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(frozen=True)
class FaultSpec:
    """One fault source; see the module docstring for the kinds."""

    kind: str
    #: Source/destination rank scope for wire faults (None = any rank).
    src: Optional[int] = None
    dst: Optional[int] = None
    #: Per-flit probability (drop/corrupt) or per-message probability
    #: (delay) while the spec's time window is open.
    rate: float = 0.0
    #: Extra latency injected by a firing ``delay`` spec, seconds.
    delay_s: float = 0.0
    #: Active window (simulated seconds).  ``stall`` requires finite t1.
    t0: float = 0.0
    t1: float = math.inf
    #: Directed channel ``(u, v)`` for ``stall`` (or use ``node``).
    channel: Optional[Tuple[int, int]] = None
    #: Node for ``kill`` (required) and ``stall`` (all outgoing channels).
    node: Optional[int] = None
    #: Kill trigger: absolute simulated time ...
    at_s: Optional[float] = None
    #: ... or after the node's NIC has injected this many messages.
    after_sends: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {FAULT_KINDS}")
        if not self.t0 <= self.t1:
            raise ValueError(f"bad fault window [{self.t0}, {self.t1}]")
        if self.kind in ("drop", "corrupt"):
            if not 0.0 <= self.rate < 1.0:
                raise ValueError(f"{self.kind} rate must be in [0, 1), got {self.rate}")
        elif self.kind == "delay":
            if not 0.0 <= self.rate <= 1.0:
                raise ValueError(f"delay rate must be in [0, 1], got {self.rate}")
            if self.delay_s < 0:
                raise ValueError("delay_s must be non-negative")
        elif self.kind == "stall":
            if self.channel is None and self.node is None:
                raise ValueError("stall needs a channel or a node")
            if not math.isfinite(self.t1):
                raise ValueError("stall needs a finite t1 (unbounded stall = hang)")
        elif self.kind == "kill":
            if self.node is None:
                raise ValueError("kill needs a node")
            if (self.at_s is None) == (self.after_sends is None):
                raise ValueError("kill needs exactly one of at_s / after_sends")
        if self.channel is not None:
            object.__setattr__(self, "channel", tuple(self.channel))

    def matches(self, src: int, dst: Optional[int], now: float) -> bool:
        """Does this wire-fault spec apply to a (src, dst) leg at ``now``?

        ``dst=None`` denotes a broadcast leg, which only wildcard-``dst``
        specs match.
        """
        if not self.t0 <= now < self.t1:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of faults plus recovery knobs."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    retx: RetxParams = field(default_factory=RetxParams)
    #: Watchdog: simulated seconds the whole run may take before the
    #: executor raises ``MpiWatchdogError`` (None = no bound).
    max_sim_s: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if self.max_sim_s is not None and self.max_sim_s <= 0:
            raise ValueError("max_sim_s must be positive")

    @property
    def active(self) -> bool:
        return bool(self.specs)

    # -- JSON round trip ---------------------------------------------------
    def to_json(self) -> str:
        def clean(d: dict) -> dict:
            return {
                k: v
                for k, v in d.items()
                if v is not None and v != math.inf
            }

        doc = {
            "seed": self.seed,
            "retx": asdict(self.retx),
            "faults": [clean(asdict(s)) for s in self.specs],
        }
        if self.max_sim_s is not None:
            doc["max_sim_s"] = self.max_sim_s
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("fault plan JSON must be an object")
        unknown = set(doc) - {"seed", "retx", "faults", "max_sim_s"}
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")
        faults = doc.get("faults", [])
        if not isinstance(faults, list) or not all(
            isinstance(spec, dict) for spec in faults
        ):
            raise ValueError("fault plan 'faults' must be a list of objects")
        try:
            return cls(
                seed=int(doc.get("seed", 0)),
                specs=tuple(FaultSpec(**spec) for spec in faults),
                retx=RetxParams(**doc.get("retx", {})),
                max_sim_s=doc.get("max_sim_s"),
            )
        except TypeError as exc:  # unknown or missing spec fields
            raise ValueError(f"malformed fault plan: {exc}") from None

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())
