"""Machine-speed normalisation for timings taken on a shared host.

On a host whose cores are shared with other tenants the same Python
code can run 30-60 % slower for tens of seconds at a time.  A fixed
reference kernel is timed right before and right after each block of
jobs; every job time in the block is scaled by

    REFERENCE_NOMINAL_S / mean(kernel time before, kernel time after)

so that the benchmark reports host seconds at the host's nominal speed.
The kernel does the kind of work the engine does (small dicts, JSON,
struct packing, float maths, NumPy scalar draws) and uses nothing from
mergeguard, so a change to the program cannot move it.  Changing the
kernel or the constant changes every normalised timing: re-measure the
baseline after doing so.
"""

from __future__ import annotations

import json
import math
import struct
import time

import numpy as np

REFERENCE_NOMINAL_S = 0.04  # kernel time on an idle core of the reference host
_KERNEL_ROUNDS = 4000


def reference_kernel_s() -> float:
    """Wall time of one run of the fixed reference kernel."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    lines = []
    for k in range(_KERNEL_ROUNDS):
        event = {"t": round(k * 0.05, 9), "type": "msg_rx", "actor": f"veh{k % 50}",
                 "x": math.hypot(k, 3.0), "lost": rng.random() < 0.2}
        lines.append(json.dumps(event, separators=(",", ":")))
        struct.unpack("!BiiHH", struct.pack("!BiiHH", 1, k, -k, k % 65535, k % 36000))
    for line in lines:
        json.loads(line)
    return time.perf_counter() - t0


class SpeedProbe:
    """Normalises wall times by the reference kernel measured around them."""

    def __init__(self):
        self.before = reference_kernel_s()

    def factor(self) -> float:
        """Scale for the times taken since the last call; re-measures the kernel."""
        after = reference_kernel_s()
        scale = REFERENCE_NOMINAL_S / (0.5 * (self.before + after))
        self.before = after
        return scale
