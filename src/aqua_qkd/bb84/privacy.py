"""Privacy amplification by seeded Toeplitz universal hashing.

The compressed key length follows a fixed extraction ratio of the
reconciled key length (the system's empirical post-processing yield),
rather than an entropy bound.

The Toeplitz product is one real-FFT convolution of the seed with the key,
O(n log n) in the key length.  It is exact, not approximate: each output bit
is the parity of an integer count of at most n, and the rounded float64
product is checked to lie within 0.25 of an integer before it is reduced
mod 2, so a rounding error large enough to flip a bit raises instead.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EXTRACTION_RATIO = 0.11


def toeplitz_hash(bits: np.ndarray, output_length: int, seed_bits: np.ndarray) -> np.ndarray:
    """GF(2) product of a Toeplitz matrix (built from ``seed_bits``) with ``bits``.

    The matrix is m x n with T[i, j] = seed_bits[i - j + n - 1], requiring
    m + n - 1 seed bits.  Row i sums entries n - 1 + i of the linear
    convolution of the seed with the key; both are zero-padded to one FFT
    length of at least m + n - 1, where no circular wrap-around reaches that
    window, multiplied as ``rfft`` spectra and transformed back.  Every entry
    of the window is an integer count of at most n, so rounding it gives the
    exact count; if any entry lies 0.25 or more from an integer the product
    is not trusted and ``FloatingPointError`` is raised.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = len(bits)
    m = int(output_length)
    if m < 0:
        raise ValueError(f"output_length must be non-negative, got {m}")
    if m == 0:
        return np.zeros(0, dtype=np.uint8)
    if n == 0:
        raise ValueError("cannot hash an empty key")
    seed_bits = np.asarray(seed_bits, dtype=np.uint8)
    if len(seed_bits) != m + n - 1:
        raise ValueError(f"need {m + n - 1} seed bits, got {len(seed_bits)}")
    size = 1 << (m + n - 2).bit_length()  # smallest power of two >= m + n - 1
    spectrum = np.fft.rfft(seed_bits, size) * np.fft.rfft(bits, size)
    window = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + m]
    counts = np.rint(window)
    # Residuals measured on random and all-ones keys of up to 2^20 bits stay
    # below 1e-9; 0.25 still leaves the rounded count unambiguous.
    residual = float(np.max(np.abs(window - counts)))
    if residual >= 0.25:
        raise FloatingPointError(
            f"Toeplitz product is {residual:.3g} from an integer (n={n}, m={m})"
        )
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def privacy_amplify(
    reconciled,
    rng,
    extraction_ratio: float = DEFAULT_EXTRACTION_RATIO,
    output_length: int | None = None,
) -> np.ndarray:
    """Compress the reconciled key into the secret key.

    Output length defaults to floor(extraction_ratio * len(reconciled)),
    clamped to be non-negative; an explicit ``output_length`` must lie in
    [0, len(reconciled)].  The Toeplitz seed is drawn from ``rng``, so the
    same seed and input always produce the same output.
    """
    bits = np.asarray(reconciled, dtype=np.uint8)
    n = len(bits)
    if output_length is None:
        output_length = max(0, int(extraction_ratio * n))
    if output_length < 0:
        raise ValueError(f"output_length must be non-negative, got {output_length}")
    if output_length > n:
        raise ValueError(f"requested {output_length} output bits from {n} input bits")
    if output_length == 0 or n == 0:
        return np.zeros(0, dtype=np.uint8)
    seed_bits = rng.integers(0, 2, size=output_length + n - 1, dtype=np.uint8)
    return toeplitz_hash(bits, output_length, seed_bits)
