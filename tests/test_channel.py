"""Broadcast channel: range cutoff, loss, latency, determinism."""

import math

import pytest

from mergeguard.channel import Channel, ChannelConfig, ChannelError


def make_channel(seed=0, **kw):
    return Channel(ChannelConfig(**kw), seed)


class TestRange:
    def test_unit_disk_cutoff(self):
        ch = make_channel(comm_range_m=150.0)
        receivers = [(1, (134.3, 0.0)), (2, (220.0, 0.0)), (3, (150.0, 0.0))]
        got = {rid for rid, _ in ch.broadcast((0.0, 0.0), 0.0, receivers)}
        assert got == {1, 3}  # 150.0 is inclusive, 220 is out

    def test_euclidean_metric(self):
        ch = make_channel(comm_range_m=5.0)
        receivers = [(1, (3.0, 4.0)), (2, (3.0, 4.1))]
        got = {rid for rid, _ in ch.broadcast((0.0, 0.0), 0.0, receivers)}
        assert got == {1}

    def test_repeater_geometry(self):
        # the hazard-notification layout: source can reach the relay but
        # not the far vehicle; the relay reaches both
        ch = make_channel(comm_range_m=150.0)
        rsu, robot, veh = (134.3, 0.0), (0.0, 0.0), (-85.7, 0.0)
        from_rsu = {rid for rid, _ in ch.broadcast(rsu, 0.0, [(1, robot), (7, veh)])}
        assert from_rsu == {1}
        assert math.hypot(rsu[0] - veh[0], rsu[1] - veh[1]) == pytest.approx(220.0)
        from_robot = {rid for rid, _ in ch.broadcast(robot, 0.0, [(7, veh), (200, rsu)])}
        assert from_robot == {7, 200}


class TestLoss:
    def test_loss_probability_one_drops_everything(self):
        ch = make_channel(loss_prob=1.0)
        assert ch.broadcast((0.0, 0.0), 0.0, [(1, (1.0, 0.0))]) == []

    def test_loss_probability_zero_delivers_everything(self):
        ch = make_channel(loss_prob=0.0)
        receivers = [(i, (float(i), 0.0)) for i in range(1, 20)]
        assert len(ch.broadcast((0.0, 0.0), 0.0, receivers)) == 19

    def test_loss_rate_roughly_matches(self):
        ch = make_channel(seed=5, loss_prob=0.3)
        receivers = [(i, (1.0, 0.0)) for i in range(2000)]
        delivered = len(ch.broadcast((0.0, 0.0), 0.0, receivers))
        assert 0.65 < delivered / 2000 < 0.75


class TestLatency:
    def test_delivery_after_transmission(self):
        ch = make_channel(seed=1)
        for _, t in ch.broadcast((0.0, 0.0), 10.0, [(i, (5.0, 0.0)) for i in range(50)]):
            assert t > 10.0

    def test_latency_window(self):
        ch = make_channel(seed=2, latency_base_s=0.01, latency_jitter_s=0.005)
        deliveries = ch.broadcast((0.0, 0.0), 0.0, [(i, (1.0, 0.0)) for i in range(500)])
        delays = [t for _, t in deliveries]
        assert min(delays) >= 0.01
        assert max(delays) <= 0.015
        assert 0.0115 < sum(delays) / len(delays) < 0.0135

    def test_zero_jitter_is_constant(self):
        ch = make_channel(seed=3, latency_jitter_s=0.0)
        deliveries = ch.broadcast((0.0, 0.0), 1.0, [(i, (1.0, 0.0)) for i in range(10)])
        assert {t for _, t in deliveries} == {1.01}


class TestDeterminism:
    def test_same_seed_same_outcomes(self):
        receivers = [(i, (float(i % 7), float(i % 3))) for i in range(100)]
        a = make_channel(seed=42, loss_prob=0.25)
        b = make_channel(seed=42, loss_prob=0.25)
        out_a = [a.broadcast((0.0, 0.0), t * 0.1, receivers) for t in range(20)]
        out_b = [b.broadcast((0.0, 0.0), t * 0.1, receivers) for t in range(20)]
        assert out_a == out_b

    def test_different_seed_differs(self):
        receivers = [(i, (1.0, 0.0)) for i in range(50)]
        a = make_channel(seed=1, loss_prob=0.5).broadcast((0, 0), 0.0, receivers)
        b = make_channel(seed=2, loss_prob=0.5).broadcast((0, 0), 0.0, receivers)
        assert a != b

    def test_draw_order_is_receiver_id_order(self):
        # permuting the receiver list must not change per-receiver outcomes
        receivers = [(i, (1.0, 0.0)) for i in range(30)]
        a = make_channel(seed=9, loss_prob=0.4).broadcast((0, 0), 0.0, receivers)
        b = make_channel(seed=9, loss_prob=0.4).broadcast(
            (0, 0), 0.0, list(reversed(receivers)))
        assert a == b


class TestConfigValidation:
    def test_bad_loss_prob(self):
        with pytest.raises(ChannelError):
            ChannelConfig(loss_prob=1.5)

    def test_bad_range(self):
        with pytest.raises(ChannelError):
            ChannelConfig(comm_range_m=-1.0)

    def test_bad_latency(self):
        with pytest.raises(ChannelError):
            ChannelConfig(latency_base_s=-0.01)


def scalar_broadcast(ch, tx_pos, tx_time_s, receivers):
    """``Channel.broadcast`` with one scalar draw per loss and per jitter: the
    reference that the block-drawn buffer must reproduce."""
    cfg = ch.config
    in_range = sorted(rid for rid, (x, y) in receivers
                      if math.hypot(x - tx_pos[0], y - tx_pos[1]) <= cfg.comm_range_m)
    deliveries = []
    for rid in in_range:
        if ch.rng.random() < cfg.loss_prob:
            continue
        deliveries.append((rid, tx_time_s + cfg.latency_base_s
                           + ch.rng.random() * cfg.latency_jitter_s))
    return deliveries


def next_uniform(ch):
    """The uniform that the channel's next draw takes; consumes it."""
    if ch._next < len(ch._uniforms):
        ch._next += 1
        return ch._uniforms[ch._next - 1]
    return ch.rng.random()


class TestBlockDraws:
    @pytest.mark.parametrize("loss_prob", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("jitter_s", [0.005, 0.0])
    def test_deliveries_equal_scalar_draws(self, loss_prob, jitter_s):
        cfg = dict(comm_range_m=150.0, loss_prob=loss_prob, latency_jitter_s=jitter_s)
        block, scalar = make_channel(seed=11, **cfg), make_channel(seed=11, **cfg)
        # receiver counts vary, reach none, and exceed one block of uniforms
        counts = [3, 0, 17, 1, 700, 40, 0, 2] * 12
        for k, n in enumerate(counts):
            receivers = [(i, (float(i % 200), 0.0)) for i in range(n)]
            args = ((0.0, 0.0), 0.1 * k, receivers)
            assert block.broadcast(*args) == scalar_broadcast(scalar, *args), k
            # both are at the same place in the stream, whatever the outcome
            assert next_uniform(block) == scalar.rng.random(), k
