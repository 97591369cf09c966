"""Tests for the NIC cost model, Ethernet baseline, and cluster facade."""

import pytest

from repro.sim import Simulator
from repro.vbus import (
    ETHERNET_100,
    VBUS_SKWP,
    build_cluster,
)
from repro.vbus.ethernet import EthernetNetwork
from repro.vbus.nic import RECV_OVERHEAD_S
from repro.vbus.params import ClusterParams, NicParams, cluster_for


def run_transfer(cluster, src, dst, nbytes, **kw):
    proc = cluster.sim.process(cluster.transfer(src, dst, nbytes, **kw))
    return cluster.sim.run(until=proc)


def test_build_cluster_shapes():
    assert build_cluster(4).params.mesh == (2, 2)
    assert build_cluster(2).params.mesh == (1, 2)
    assert build_cluster(1).params.mesh == (1, 1)
    assert build_cluster(6).params.mesh == (2, 3)


def test_cluster_for_rejects_bad():
    with pytest.raises(ValueError):
        cluster_for(0)


def test_contiguous_transfer_uses_dma_and_charges_costs():
    cl = build_cluster(4)
    r = run_transfer(cl, 0, 3, 8000, contiguous=True)
    nic = cl.params.nic
    # DMA caps streaming below the raw link rate.
    rate = min(cl.network.link_rate_Bps, nic.dma_rate_Bps)
    expected = (
        nic.per_message_overhead_s()
        + nic.dma_setup_s
        + 2 * cl.params.link.router_delay_s
        + 8000 / rate
        + RECV_OVERHEAD_S
    )
    assert r.total_s == pytest.approx(expected)
    assert r.contiguous
    assert cl.nics[0].dma_transfers == 1
    assert r.cpu_s == pytest.approx(nic.per_message_overhead_s() + nic.dma_setup_s)


def test_strided_transfer_uses_pio_and_is_slower_per_byte():
    cl = build_cluster(4)
    elements = 1000
    nbytes = elements * 8
    r_pio = run_transfer(cl, 0, 1, nbytes, elements=elements, contiguous=False)
    cl2 = build_cluster(4)
    r_dma = run_transfer(cl2, 0, 1, nbytes, contiguous=True)
    assert r_pio.total_s > r_dma.total_s
    # PIO occupies the CPU for the whole copy; DMA does not.
    assert r_pio.cpu_s > 10 * r_dma.cpu_s
    assert cl.nics[0].pio_elements == elements


def test_self_transfer_is_free():
    cl = build_cluster(4)
    r = run_transfer(cl, 2, 2, 123456)
    assert r.total_s == 0.0


def test_rank_validation():
    cl = build_cluster(4)
    with pytest.raises(ValueError):
        cl.sim.process(cl.transfer(0, 9, 10)).sim.run()


def test_kernel_level_path_costs_more():
    shared = build_cluster(4)
    unshared_params = cluster_for(
        4, ClusterParams(nic=NicParams(shared_queue=False))
    )
    unshared = build_cluster(4, params=unshared_params)
    t_shared = run_transfer(shared, 0, 1, 64).total_s
    t_unshared = run_transfer(unshared, 0, 1, 64).total_s
    delta = unshared.params.nic.context_switch_s
    assert t_unshared == pytest.approx(t_shared + delta)


def test_hw_broadcast_vbus():
    cl = build_cluster(4)
    proc = cl.sim.process(cl.hw_broadcast(0, 5000))
    r = cl.sim.run(until=proc)
    assert r.total_s > 0
    assert cl.vbusctl.broadcast_count == 1
    stats = cl.stats()
    assert stats["hw_broadcasts"] == 1
    assert stats["freezes"] == 1


def test_hw_broadcast_single_node_noop():
    cl = build_cluster(1)
    proc = cl.sim.process(cl.hw_broadcast(0, 5000))
    assert cl.sim.run(until=proc) is None


def test_ethernet_cluster_transfer_and_broadcast():
    cl = build_cluster(4, params=cluster_for(4, ETHERNET_100))
    assert isinstance(cl.network, EthernetNetwork)
    r = run_transfer(cl, 0, 1, 1500)
    p = cl.params.ethernet
    assert r.total_s > 2 * p.sw_latency_s
    proc = cl.sim.process(cl.hw_broadcast(2, 1000))
    rb = cl.sim.run(until=proc)
    assert rb.total_s > 0
    assert cl.network.messages == 2


def test_vbus_card_about_4x_lower_latency_than_ethernet():
    """The paper's §2.1 headline: small-message latency ratio ≈ 4."""
    vb = build_cluster(4)
    et = build_cluster(4, params=cluster_for(4, ETHERNET_100))
    t_vb = run_transfer(vb, 0, 1, 64).total_s
    t_et = run_transfer(et, 0, 1, 64).total_s
    assert 3.0 <= t_et / t_vb <= 5.5


def test_vbus_card_about_4x_bandwidth_of_ethernet():
    """Large-message effective bandwidth ratio ≈ 4 (50 vs 12.5 MB/s)."""
    vb = build_cluster(4)
    et = build_cluster(4, params=cluster_for(4, ETHERNET_100))
    n = 10_000_000
    bw_vb = n / run_transfer(vb, 0, 1, n).total_s
    bw_et = n / run_transfer(et, 0, 1, n).total_s
    assert 3.3 <= bw_vb / bw_et <= 4.8


def test_ethernet_medium_is_shared():
    cl = build_cluster(4, params=cluster_for(4, ETHERNET_100))
    done = []

    def send(src, dst):
        r = yield from cl.transfer(src, dst, 1_000_000)
        done.append(cl.sim.now)

    cl.sim.process(send(0, 1))
    cl.sim.process(send(2, 3))
    cl.sim.run()
    # Disjoint node pairs still serialize on the single segment.
    assert done[1] > 1.8 * done[0] - 2 * cl.params.ethernet.sw_latency_s


def test_stats_aggregation_keys():
    cl = build_cluster(4)
    run_transfer(cl, 0, 1, 100)
    s = cl.stats()
    assert s["messages"] == 1
    assert s["bytes"] == 100
    assert s["mesh_messages"] == 1
