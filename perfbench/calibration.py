"""CPU-speed calibration of the benchmark's timings.

The machines this benchmark runs on are shared: the same work can take
twice as long when a neighbour is busy, and such spells last from seconds
to minutes. So the benchmark times a fixed kernel, independent of icflow,
at points spread through each measured call: before it, after it and at
every icflow snapshot. A measured time is then rescaled to reference
speed,

    calibrated = measured * REFERENCE_S / mean(kernel samples),

which cancels the machine's speed while the call ran. The kernel does the
kind of work icflow does per node row: small numpy operations on
256-element arrays, driven from Python.
"""

from time import perf_counter

import numpy as np

KERNEL_ROWS = 256
KERNEL_REPS = 30
# the kernel's typical time on the machine of the seed baseline (between
# 1.6 ms when the core is quiet and 3 ms when it is not), so that rescaled
# times read like seconds measured there
REFERENCE_S = 2.5e-3


def kernel() -> float:
    """The fixed calibration work; returns a checksum so none of it is skipped."""
    x = np.linspace(0.01, 3.0, KERNEL_ROWS)
    m = np.zeros((KERNEL_ROWS, 2, 2))
    acc = 0.0
    for _ in range(KERNEL_REPS):
        p = np.concatenate([x[:1], x, x[-1:]])
        d = (p[2:] - p[:-2]) * 0.5
        d2 = p[2:] - 2.0 * x + p[:-2]
        g = np.stack([d, np.zeros_like(d)], axis=-1)
        pp = g[..., :, None] * g[..., None, :]
        m[..., 0, 0] = x * x + d
        m[..., 1, 1] = np.sqrt(1.0 + d * d)
        m[..., 0, 1] = d2
        m[..., 1, 0] = d2
        h = 0.5 * (m + np.swapaxes(m, -1, -2)) + pp
        det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] ** 2
        e = np.zeros((KERNEL_ROWS, 3))
        e[..., 0] = 1.0
        for j in range(2):
            e[..., j + 1] = e[..., j + 1] + x * e[..., j]
        acc += float(np.max(np.abs(det))) + float(np.min(e[..., 1]))
    return acc


def timed_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def rescale(seconds: float, samples) -> float:
    """`seconds` measured while the kernel took `samples`, at reference speed."""
    return seconds * REFERENCE_S / float(np.mean(samples))
