"""Network statistics utilities: channel utilization and hot links.

The paper's V-Bus argument is about *bandwidth utilization* — "they are
more expensive and suffer from low utilization of network bandwidth
overall" (on physical broadcast buses) versus the virtual bus that only
exists while a broadcast needs it.  These helpers turn the simulator's
raw channel counters into that analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.vbus.cluster import Cluster
from repro.vbus.router import WormholeMesh

__all__ = [
    "ChannelUsage",
    "network_usage",
    "usage_report",
    "cluster_metrics_rows",
]


@dataclass(frozen=True)
class ChannelUsage:
    """Utilization of one directed mesh channel over a simulation."""

    src: int
    dst: int
    messages: int
    busy_s: float
    utilization: float  # busy fraction of total simulated time

    def __str__(self):
        return (
            f"{self.src}->{self.dst}: {self.messages} msg(s), "
            f"busy {self.busy_s * 1e3:.3f} ms ({self.utilization:6.1%})"
        )


def network_usage(cluster: Cluster) -> List[ChannelUsage]:
    """Per-channel usage, sorted by busy time (hottest first)."""
    if not isinstance(cluster.network, WormholeMesh):
        raise ValueError("usage analysis needs a mesh interconnect")
    now = cluster.sim.now
    out = []
    for (u, v), ch in cluster.network.channels.items():
        util = (ch.busy_s / now) if now > 0 else 0.0
        out.append(
            ChannelUsage(
                src=u,
                dst=v,
                messages=ch.messages,
                busy_s=ch.busy_s,
                utilization=util,
            )
        )
    out.sort(key=lambda c: (-c.busy_s, c.src, c.dst))
    return out


def usage_report(cluster: Cluster, top: Optional[int] = None) -> str:
    """Human-readable utilization table with bus/freeze statistics."""
    rows = network_usage(cluster)
    if top is not None:
        rows = rows[:top]
    lines = ["channel utilization (hottest first):"]
    lines += [f"  {c}" for c in rows]
    stats = cluster.stats()
    lines.append(
        f"  broadcasts: {int(stats.get('hw_broadcasts', 0))}, "
        f"freezes: {int(stats['freezes'])}, "
        f"frozen time: {stats['frozen_s'] * 1e3:.3f} ms"
    )
    rc = cluster.topology.route_cache_stats()
    lines.append(
        f"  route cache: {int(rc['hits'])} hit(s), "
        f"{int(rc['misses'])} miss(es) ({rc['hit_rate']:.1%} hit rate)"
    )
    return "\n".join(lines)


#: Units for the hardware-counter rows emitted by cluster_metrics_rows.
_HW_UNITS = {
    "bytes": "B",
    "mesh_bytes": "B",
    "ether_bytes": "B",
    "hw_broadcast_bytes": "B",
    "nic_cpu_busy_s": "s",
    "frozen_s": "s",
}


def cluster_metrics_rows(cluster: Cluster) -> List[dict]:
    """The cluster's hardware state as flat metric rows.

    Complements the tracer's own registry with everything the hardware
    model already counts: aggregate counters (``hw.*``), per-channel
    utilization/busy/messages series, and route-cache effectiveness.
    Shapes match :meth:`repro.obs.metrics.Counter.row` /
    :meth:`~repro.obs.metrics.Gauge.row`, so the rows merge directly into
    :func:`repro.obs.export.metrics_rows`.
    """
    rows: List[dict] = []
    for key, value in sorted(cluster.stats().items()):
        rows.append(
            {
                "name": f"hw.{key}",
                "type": "counter",
                "unit": _HW_UNITS.get(key, ""),
                "value": value,
            }
        )
    if isinstance(cluster.network, WormholeMesh):
        for c in network_usage(cluster):
            label = f"{c.src}->{c.dst}"
            rows.append(
                {
                    "name": f"channel.utilization{{{label}}}",
                    "type": "gauge",
                    "unit": "fraction",
                    "value": c.utilization,
                }
            )
            rows.append(
                {
                    "name": f"channel.busy_s{{{label}}}",
                    "type": "counter",
                    "unit": "s",
                    "value": c.busy_s,
                }
            )
            rows.append(
                {
                    "name": f"channel.messages{{{label}}}",
                    "type": "counter",
                    "unit": "",
                    "value": float(c.messages),
                }
            )
    rc = cluster.topology.route_cache_stats()
    for key in ("hits", "misses"):
        rows.append(
            {
                "name": f"route_cache.{key}",
                "type": "counter",
                "unit": "",
                "value": float(rc[key]),
            }
        )
    return rows
