"""Privacy amplification by seeded Toeplitz universal hashing.

The compressed key length follows a fixed extraction ratio of the
reconciled key length (the system's empirical post-processing yield),
rather than an entropy bound.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EXTRACTION_RATIO = 0.11


def toeplitz_hash(bits: np.ndarray, output_length: int, seed_bits: np.ndarray) -> np.ndarray:
    """GF(2) product of a Toeplitz matrix (built from ``seed_bits``) with ``bits``.

    The matrix is m x n with T[i, j] = seed_bits[i - j + n - 1], requiring
    m + n - 1 seed bits.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = len(bits)
    m = int(output_length)
    if m == 0:
        return np.zeros(0, dtype=np.uint8)
    seed_bits = np.asarray(seed_bits, dtype=np.uint8)
    if len(seed_bits) != m + n - 1:
        raise ValueError(f"need {m + n - 1} seed bits, got {len(seed_bits)}")
    # Row i of the Toeplitz matrix is seed_bits[i + n - 1 - j] for j in [0, n);
    # the full product is a correlation, done here via convolution.  int64
    # accumulation avoids overflow before the mod-2 reduction.
    conv = np.convolve(seed_bits.astype(np.int64), bits.astype(np.int64)) & 1
    return conv[n - 1 : n - 1 + m].astype(np.uint8)


def privacy_amplify(
    reconciled,
    rng,
    extraction_ratio: float = DEFAULT_EXTRACTION_RATIO,
    output_length: int | None = None,
) -> np.ndarray:
    """Compress the reconciled key into the secret key.

    Output length defaults to floor(extraction_ratio * len(reconciled)),
    clamped to be non-negative; the Toeplitz seed is drawn from ``rng``, so
    the same seed and input always produce the same output.
    """
    bits = np.asarray(reconciled, dtype=np.uint8)
    n = len(bits)
    if output_length is None:
        output_length = max(0, int(extraction_ratio * n))
    if output_length > n:
        raise ValueError(f"requested {output_length} output bits from {n} input bits")
    if output_length == 0 or n == 0:
        return np.zeros(0, dtype=np.uint8)
    seed_bits = rng.integers(0, 2, size=output_length + n - 1, dtype=np.uint8)
    return toeplitz_hash(bits, output_length, seed_bits)
