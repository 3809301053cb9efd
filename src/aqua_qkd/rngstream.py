"""Counter-based random streams for reproducible parallel Monte Carlo.

Implements the Philox4x32-10 block cipher (Salmon et al., Random123) as a
pure-numpy vectorized function.  A draw's address is one form throughout:
the uint64 triple (seed, stream, counter).  The counter and the stream are the
cipher's counter words (low 32 bits first) and the seed is its key, so each
triple maps to one cipher block, whose four 32-bit words make two uniform
doubles, and any photon history can regenerate its own random sequence
independently of execution order or worker count.

The cipher runs over its input in blocks of ``_BLOCK`` elements, each split
into uint64 lanes of 32-bit words that stay in cache for all ten rounds.
Every element is enciphered on its own, so the block length changes only the
speed: each value is still a pure function of (seed, stream, counter),
whatever the array around it.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# Round multipliers and Weyl key increments, one row per word pair (c0, c2).
_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_W = np.array([[0x9E3779B9], [0xBB67AE85]], dtype=np.uint64)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Round numbers 0..9, shaped to broadcast against the (2, 1) key words.
_ROUND = np.arange(10, dtype=np.uint64).reshape(10, 1, 1)
# Elements per cipher block: the six to eight uint64 lanes of a block (128 kB
# each) stay in L2 across the ten rounds, and the numpy call overhead of a
# round stays small beside its work.
_BLOCK = 16_384

# 2^-64 scaling; +1 keeps the output in the half-open interval (0, 1].
_INV64 = 1.0 / 18446744073709551616.0
_TWO32 = 4294967296.0


def _round_keys(key) -> np.ndarray:
    """The (10, 2, 1) uint64 key words (k0, k1) of all rounds for the 64-bit
    ``key``: round r's are (k + r * W) mod 2^32, k0 from the key's low half."""
    key = np.uint64(key)
    words = np.array([[key & _MASK32], [key >> _SHIFT32]], dtype=np.uint64)
    return (words + _ROUND * _W) & _MASK32


def _rounds(a: np.ndarray, b: np.ndarray, p: np.ndarray, round_keys) -> None:
    """Encipher one block in place.

    ``a`` holds the multiplied words (c0, c2) and ``b`` the words xored in
    (c1, c3), as rows of uint64 lanes below 2^32; ``p`` is scratch.  Per round,
    c0' = hi(c2 * M1) ^ c1 ^ k0, c1' = lo(c2 * M1), c2' = hi(c0 * M0) ^ c3 ^ k1
    and c3' = lo(c0 * M0): the products taken in reversed row order.
    """
    for keys in round_keys:
        np.multiply(a, _M, out=p)
        swapped = p[::-1]
        np.right_shift(swapped, _SHIFT32, out=a)
        a ^= b
        a ^= keys
        np.bitwise_and(swapped, _MASK32, out=b)


def philox4x32(counter, stream, key):
    """Run 10 Philox4x32 rounds on the block at each (counter, stream) under ``key``.

    ``counter`` and ``stream`` are broadcastable uint64 arrays (or scalars)
    and ``key`` one value in [0, 2^64).  The counter words are (low, high) of
    ``counter`` then (low, high) of ``stream``, the key words (low, high) of
    ``key``, as in Random123.  Returns the four output words as uint32 arrays
    of the broadcast shape.
    """
    inputs = [np.asarray(w, dtype=np.uint64) for w in (counter, stream)]
    shape = np.broadcast_shapes(*(w.shape for w in inputs))
    size = math.prod(shape)
    inputs = [w if w.ndim == 0 else np.broadcast_to(w, shape).reshape(-1) for w in inputs]
    round_keys = _round_keys(key)

    out = np.empty((4, size), dtype=np.uint32)
    lanes = np.empty((3, 2, min(size, _BLOCK)), dtype=np.uint64)
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        a, b, p = lanes[:, :, : stop - start]
        for row, w in enumerate(inputs):
            w = w if w.ndim == 0 else w[start:stop]
            np.bitwise_and(w, _MASK32, out=a[row])
            np.right_shift(w, _SHIFT32, out=b[row])
        _rounds(a, b, p, round_keys)
        out[0::2, start:stop] = a
        out[1::2, start:stop] = b
    return tuple(w.reshape(shape)[()] for w in out)


def check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer in [0, 2^64).

    The cipher key is the seed's 64 bits, so a wider seed would alias a
    narrower one (2^64 + 42 would run seed 42, -1 seed 2^64 - 1).
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def uniform(seed: int, stream, counter):
    """The two uniform doubles in (0, 1] of the block at each (stream, counter).

    ``stream`` and ``counter`` are broadcastable uint64 arrays.  Returns a
    float64 array of shape ``(2, *broadcast(stream, counter))``, a pure
    function of (seed, stream, counter).  Of the block's words w0..w3, row 0
    is built from ``w0 << 32 | w1`` and row 1 from ``w2 << 32 | w3``: the
    64-bit integer rounded to a double, plus 1, times 2^-64 (see
    ``_words_to_unit``).
    """
    w0, w1, w2, w3 = philox4x32(counter, stream, seed)
    out = np.empty((2, *np.shape(w0)), dtype=np.float64)
    _words_to_unit(w0, w1, out[0, ...])
    _words_to_unit(w2, w3, out[1, ...])
    return out


def _words_to_unit(hi, lo, out) -> None:
    """Write ``(float(hi << 32 | lo) + 1) * 2^-64`` for uint32 words into ``out``.

    The 64-bit integer is never formed: ``hi * 2^32`` is exact in float64,
    so adding ``lo`` rounds once, to the same double as rounding the integer.
    """
    np.multiply(hi, _TWO32, out=out)
    out += lo
    out += 1.0
    out *= _INV64


def normal_pair(seed: int, stream, counter):
    """Two independent standard normals per stream via Box-Muller.

    Takes both uniforms of the one block at ``counter`` and works inside the
    array ``uniform`` returned, with one temporary for the cosines: u1 becomes
    ``r = sqrt(-2 log u1)`` and u2 ``theta = 2 pi u2``, then ``r cos(theta)``
    and ``r sin(theta)``.  Returns the two rows of that array.
    """
    u = uniform(seed, stream, counter)
    r, theta = u[0, ...], u[1, ...]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos
    return r[()], theta[()]
