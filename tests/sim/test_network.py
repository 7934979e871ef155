"""Unit tests for the simulated network."""

import pytest

from repro.errors import NetworkError
from repro.sim import (Environment, LatencyModel, Network, Store, drop_from,
                       drop_kind_from, make_rng)


def make_net(env, n=4, latency=None, **kwargs):
    """A network, and per replica the list its handler delivers into."""
    net = Network(env, n, latency or LatencyModel.fixed(0.001),
                  make_rng(0), **kwargs)
    delivered = [[] for _ in range(n)]
    for replica in range(n):
        net.connect(replica, delivered[replica].append)
    return net, delivered


def test_network_requires_replicas(env):
    with pytest.raises(NetworkError):
        Network(env, 0, LatencyModel.fixed(0.001), make_rng(0))


def test_send_delivers_after_latency(env):
    net, delivered = make_net(env)
    net.send(0, 1, "ping", {"x": 1})
    assert len(delivered[1]) == 0
    env.run()
    assert env.now == pytest.approx(0.001)
    message = delivered[1][0]
    assert message.kind == "ping"
    assert message.payload == {"x": 1}
    assert message.sender == 0


def test_send_validates_ids(env):
    net, _ = make_net(env)
    with pytest.raises(NetworkError):
        net.send(0, 9, "x", None)
    with pytest.raises(NetworkError):
        net.send(-1, 0, "x", None)


def test_broadcast_reaches_everyone_including_self(env):
    net, delivered = make_net(env)
    net.broadcast(2, "blk", "payload")
    env.run()
    for replica in range(4):
        assert len(delivered[replica]) == 1


def test_broadcast_exclude_self(env):
    net, delivered = make_net(env)
    net.broadcast(2, "blk", "payload", include_self=False)
    env.run()
    assert len(delivered[2]) == 0
    assert len(delivered[0]) == 1


def test_multicast_subset(env):
    net, delivered = make_net(env)
    net.multicast(0, [1, 3], "m", None)
    env.run()
    assert len(delivered[1]) == 1
    assert len(delivered[2]) == 0
    assert len(delivered[3]) == 1


def test_filter_drops_messages(env):
    net, delivered = make_net(env)
    net.add_filter(drop_from([1]))
    net.send(1, 0, "x", None)
    net.send(2, 0, "x", None)
    env.run()
    assert len(delivered[0]) == 1
    assert net.messages_dropped == 1


def test_filter_removal(env):
    net, delivered = make_net(env)
    f = drop_from([1])
    net.add_filter(f)
    net.remove_filter(f)
    net.send(1, 0, "x", None)
    env.run()
    assert len(delivered[0]) == 1


def test_drop_kind_from_only_drops_kind(env):
    net, delivered = make_net(env)
    net.add_filter(drop_kind_from([1], "proposal"))
    net.send(1, 0, "proposal", None)
    net.send(1, 0, "vote", None)
    env.run()
    assert len(delivered[0]) == 1
    assert delivered[0][0].kind == "vote"


def test_pre_gst_extra_delay(env):
    net, delivered = make_net(env, gst=10.0, pre_gst_extra_delay=0.5)
    net.send(0, 1, "early", None)
    env.run()
    first_delivery = delivered[1][0]
    assert first_delivery.delivered_at == pytest.approx(0.501)


def test_post_gst_normal_latency():
    env = Environment(initial_time=20.0)
    net, delivered = make_net(env, gst=10.0, pre_gst_extra_delay=0.5)
    net.send(0, 1, "late", None)
    env.run()
    assert delivered[1][0].delivered_at == pytest.approx(20.001)


def test_latency_presets_ordering():
    lan, wan = LatencyModel.lan(), LatencyModel.wan()
    assert wan.mean > 10 * lan.mean


def test_latency_sample_positive():
    model = LatencyModel(mean=0.001, stddev=0.1)
    rng = make_rng(0)
    assert all(model.sample(rng) > 0 for _ in range(100))


def test_message_counters(env):
    net, _ = make_net(env)
    net.broadcast(0, "x", None)
    env.run()
    assert net.messages_sent == 4
    assert net.messages_delivered == 4


def test_inbox_blocking_consumer(env):
    """A process that wants to block on its messages connects a Store."""
    net = Network(env, 2, LatencyModel.fixed(0.001), make_rng(0))
    inbox = Store(env)
    net.connect(1, inbox.put)
    received = []

    def consumer():
        message = yield inbox.get()
        received.append(message.payload)

    env.process(consumer())
    net.send(0, 1, "k", "hello")
    env.run()
    assert received == ["hello"]


def test_handler_runs_in_the_delivery_event(env):
    net, _ = make_net(env)
    seen = []
    net.connect(1, lambda message: seen.append((env.now, message.kind)))
    net.send(0, 1, "ping", None)
    net.send(0, 1, "pong", None)
    env.run()
    assert seen == [(0.001, "ping"), (0.001, "pong")]
    assert env.events_processed == 2  # one event per message


def test_delivery_to_an_unconnected_replica_raises(env):
    net = Network(env, 2, LatencyModel.fixed(0.001), make_rng(0))
    net.send(0, 1, "ping", None)
    with pytest.raises(NetworkError, match="replica 1"):
        env.run()
    with pytest.raises(NetworkError):
        net.connect(2, print)
