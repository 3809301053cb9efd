"""Counter-based random streams for reproducible parallel Monte Carlo.

Implements the Philox4x32-10 block cipher (Salmon et al., Random123) as a
pure-numpy vectorized function.  Each (seed, stream, counter) triple maps to
one cipher block, whose four 32-bit words make two uniform doubles, so any
photon history can regenerate its own random sequence independently of
execution order or worker count.

The cipher runs over its input in blocks of ``_BLOCK`` elements, each held in
a few uint64 lanes that stay in cache for all ten rounds.  Every element is
enciphered on its own, so the block length changes only the speed: each value
is still a pure function of (seed, stream, counter), whatever the array
around it.
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
# Round numbers 0..9, shaped to broadcast against (2, n) key words.
_ROUND = np.arange(10, dtype=np.uint64).reshape(10, 1, 1)
# Elements per cipher block: the six to eight uint64 lanes of a block (128 kB
# each) stay in L2 across the ten rounds, and the numpy call overhead of a
# round stays small beside its work.
_BLOCK = 16_384

# 2^-64 scaling; +1 keeps the output in the half-open interval (0, 1].
_INV64 = 1.0 / 18446744073709551616.0
_TWO32 = 4294967296.0


def _round_keys(keys: np.ndarray) -> np.ndarray:
    """The (10, 2, ...) uint64 keys of all rounds for key words ``keys`` (rows
    k0, k1; one column, or one per element): round r's are (keys + r * W) mod 2^32."""
    return (keys + _ROUND * _W) & _MASK32


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


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Run 10 Philox4x32 rounds on vectorized counter/key words.

    All arguments are uint32 arrays (or scalars) broadcast together.
    Returns the four output words as uint32 arrays.
    """
    words = [np.asarray(w, dtype=np.uint32) for w in (c0, c1, c2, c3, k0, k1)]
    shape = np.broadcast_shapes(*(w.shape for w in words))
    size = math.prod(shape)
    words = [w if w.ndim == 0 else np.broadcast_to(w, shape).reshape(-1) for w in words]
    scalar_keys = words[4].ndim == words[5].ndim == 0
    if scalar_keys:
        round_keys = _round_keys(np.array([[words[4]], [words[5]]], dtype=np.uint64))
        words = words[:4]

    out = np.empty((4, size), dtype=np.uint32)
    lanes = np.empty((4, 2, min(size, _BLOCK)), dtype=np.uint64)
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        a, b, p, keys = lanes[:, :, : stop - start]
        for lane, w in zip((a[0], b[0], a[1], b[1], keys[0], keys[1]), words):
            lane[...] = w if w.ndim == 0 else w[start:stop]
        _rounds(a, b, p, round_keys if scalar_keys else _round_keys(keys))
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


def _key_words(seed: int):
    s = np.uint64(seed)
    return np.uint32(s & _MASK32), np.uint32(s >> np.uint64(32))


def uniform(seed: int, stream, counter):
    """The two uniform doubles in (0, 1] of the block at each (stream, counter).

    ``stream`` and ``counter`` are broadcastable uint64 arrays.  Returns a
    float64 array of shape ``(2, *broadcast(stream, counter))``, a pure
    function of (seed, stream, counter).  Of the block's words w0..w3, row 0
    is built from ``w0 << 32 | w1`` and row 1 from ``w2 << 32 | w3``: the
    64-bit integer rounded to a double, plus 1, times 2^-64 (see
    ``_words_to_unit``).
    """
    stream = np.asarray(stream, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    k0, k1 = _key_words(seed)
    w0, w1, w2, w3 = philox4x32(
        counter.astype(np.uint32),
        (counter >> _SHIFT32).astype(np.uint32),
        stream.astype(np.uint32),
        (stream >> _SHIFT32).astype(np.uint32),
        k0,
        k1,
    )
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
