"""Unit-disk broadcast channel with seeded loss and latency jitter.

A transmission reaches every other station within comm_range (Euclidean,
road frame).  Each in-range receiver independently draws packet loss and
then, if delivered, a latency

    delivery_time = tx_time + latency_base + U(0, latency_jitter)

Draws consume the seeded stream in ascending receiver-id order, so a
given (seed, broadcast sequence) always yields the same deliveries.
A broadcast returns its deliveries as plain ``(receiver_id,
delivery_time_s)`` pairs in that same ascending receiver order.

The uniforms are drawn from the stream in blocks, kept in a buffer that
the channel owns, and used in stream order: a block holds the values
that as many scalar draws would return, so the deliveries are those of
one scalar draw per loss and per jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# uniforms per refill of a channel's buffer, unless one broadcast needs more
_DRAW_BLOCK = 1024


class ChannelError(Exception):
    pass


@dataclass(frozen=True)
class ChannelConfig:
    comm_range_m: float = 150.0
    loss_prob: float = 0.0
    latency_base_s: float = 0.01
    latency_jitter_s: float = 0.005

    def __post_init__(self):
        if self.comm_range_m <= 0:
            raise ChannelError("comm_range_m must be positive")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ChannelError("loss_prob must be in [0, 1]")
        if self.latency_base_s < 0 or self.latency_jitter_s < 0:
            raise ChannelError("latencies must be non-negative")


class Channel:
    def __init__(self, config: ChannelConfig, seed: int):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self._uniforms: list[float] = []  # drawn from rng, used from _next on
        self._next = 0

    def broadcast(self, tx_pos: Sequence[float], tx_time_s: float,
                  receivers: Sequence[tuple[int, Sequence[float]]]) -> list[tuple[int, float]]:
        """``(receiver_id, delivery_time_s)`` pairs for one broadcast, in
        ascending receiver order; receivers are ``(station_id, position)``."""
        cfg, hypot = self.config, math.hypot
        tx_x, tx_y = tx_pos
        comm_range, loss_prob = cfg.comm_range_m, cfg.loss_prob
        base_s, jitter_s = tx_time_s + cfg.latency_base_s, cfg.latency_jitter_s
        in_range = [rid for rid, (x, y) in receivers if hypot(x - tx_x, y - tx_y) <= comm_range]
        # at most a loss and a jitter draw per receiver
        uniforms, pos = self._uniforms, self._next
        need = 2 * len(in_range)
        if pos + need > len(uniforms):
            uniforms = uniforms[pos:] + self.rng.random(max(_DRAW_BLOCK, need)).tolist()
            self._uniforms, pos = uniforms, 0
        deliveries = []
        for rid in sorted(in_range):
            pos += 1
            if uniforms[pos - 1] < loss_prob:
                continue
            deliveries.append((rid, base_s + uniforms[pos] * jitter_s))
            pos += 1
        self._next = pos
        return deliveries
