"""Deterministic measurement-noise stream.

The stream must be reproducible from the seed alone, independent of any
library's generator internals, so it is spelled out here: draw k of the
uniform stream is SplitMix64 (Steele/Lea/Flood mixing constants) applied
in counter mode,

    u_k = mix64(seed + (k+1) * 0x9E3779B97F4A7C15) >> 11, scaled by 2^-53,

which equals the k-th output of the sequential reference generator.
Gaussians use the Box-Muller transform on consecutive uniform pairs, one
gaussian per tick (the sine half is discarded).

:func:`gaussian_column` draws a whole run's stream at once.  SplitMix64
is integer arithmetic modulo 2^64, so running it in numpy ``uint64`` is
exact.  The cosine of Box-Muller is ``np.cos``, which a test holds to
``math.cos`` bit for bit; the logarithm stays on ``math`` per draw,
because ``np.log`` differs from it in the last bit on a few draws.  The
tests hold the column bit for bit to the stream drawn one integer
SplitMix64 output at a time.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _uniform_column(seed: int, m: int) -> np.ndarray:
    """Uniform draws 0 to m-1 in [0, 1), 53-bit resolution, as one
    float64 array."""
    z = np.arange(1, m + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)     # uint64 arithmetic wraps modulo 2^64
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z.astype(np.float64) * 2.0 ** -53


def gaussian_column(seed: int, n: int) -> np.ndarray:
    """Standard normal draws 0 to n-1 (Box-Muller, cosine branch), as one
    float64 array."""
    u = _uniform_column(seed, 2 * n).reshape(n, 2)
    u1 = np.maximum(u[:, 0], 2.0 ** -53)
    angle = (2.0 * math.pi) * u[:, 1]
    del u
    log_u1 = np.fromiter(map(math.log, memoryview(u1)), np.float64, n)
    return np.sqrt(-2.0 * log_u1) * np.cos(angle)
