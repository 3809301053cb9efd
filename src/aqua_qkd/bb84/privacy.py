"""Privacy amplification by seeded Toeplitz universal hashing.

The compressed key length follows a fixed extraction ratio of the
reconciled key length (the system's empirical post-processing yield),
rather than an entropy bound.

The Toeplitz product is an overlap-add of real-FFT convolutions of one
block length per call, set by the output length m rather than the key
length n, so the cost is O(n log m) and each block stays small.  It is exact,
not approximate: each output bit is the parity of an integer count of at
most n, and the rounded float64 product is checked to lie within 0.25 of an
integer before it is reduced mod 2, so a rounding error large enough to flip
a bit raises instead.
"""

from __future__ import annotations

import numpy as np

DEFAULT_EXTRACTION_RATIO = 0.11
_MIN_BLOCK = 1 << 14  # FFT block length for short outputs, in bits


def toeplitz_hash(bits: np.ndarray, output_length: int, seed_bits: np.ndarray) -> np.ndarray:
    """GF(2) product of a Toeplitz matrix (built from ``seed_bits``) with ``bits``.

    The matrix is m x n with T[i, j] = seed_bits[i - j + n - 1], requiring
    m + n - 1 seed bits.  The key is cut into chunks of L = size - m + 1
    bits, where size is the smallest power of two >= max(min(2^14, m + n - 1),
    2m): at least 2m, so that a chunk is longer than the output, and 2^14,
    so that a short output still gets long chunks, unless the whole product
    is shorter, in which case the key is one chunk of that length.  Chunk k
    meets only the size seed bits from n - (k + 1)L on (zeros before the
    seed's start), and their circular convolution of that length holds chunk
    k's share of every row at entries L - 1 .. L - 2 + m, which no
    wrap-around reaches.  The chunks' ``rfft`` products are summed and one
    ``irfft`` gives the window.  Every entry of the window is an integer
    count of at most n, so rounding it gives the exact count; if any entry
    lies 0.25 or more from an integer the product is not trusted and
    ``FloatingPointError`` is raised.
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
    size = 1 << (max(min(_MIN_BLOCK, m + n - 1), 2 * m) - 1).bit_length()
    chunk = size - m + 1
    starts = range(0, n, chunk)
    # Zeros in front of the seed stand for the bits before its start, which
    # a ragged last chunk's window reaches.
    padded = len(starts) * chunk
    seed = np.concatenate((np.zeros(padded - n, np.uint8), seed_bits))
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    for start in starts:
        at = padded - chunk - start  # seed bit n - start - chunk
        spectrum += np.fft.rfft(seed[at : at + size]) * np.fft.rfft(
            bits[start : start + chunk], size
        )
    window = np.fft.irfft(spectrum, size)[chunk - 1 : chunk - 1 + m]
    counts = np.rint(window)
    # Residuals measured on random and all-ones keys of up to 3.9M bits stay
    # below 2e-12; 0.25 still leaves the rounded count unambiguous.
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
