import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqua_qkd.bb84.privacy import privacy_amplify, toeplitz_hash


def reference_toeplitz_hash(bits, output_length, seed_bits):
    """The O(n·m) direct convolution the FFT product must reproduce bit for bit."""
    n = len(bits)
    conv = np.convolve(np.asarray(seed_bits, np.int64), np.asarray(bits, np.int64)) & 1
    return conv[n - 1 : n - 1 + output_length].astype(np.uint8)


def whole_fft_toeplitz_hash(bits, output_length, seed_bits):
    """The whole-length FFT product: one real-FFT convolution of the seed with the key.

    O(n log n) in one transform of length >= m + n - 1, so it reaches keys
    far beyond the direct convolution; the blocked product must match it
    bit for bit.
    """
    n, m = len(bits), output_length
    size = 1 << (m + n - 2).bit_length()
    spectrum = np.fft.rfft(seed_bits, size) * np.fft.rfft(bits, size)
    window = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + m]
    counts = np.rint(window)
    assert np.max(np.abs(window - counts)) < 0.25
    return (counts.astype(np.int64) & 1).astype(np.uint8)


# (n, m) with 1 <= m <= n <= 3000.
hash_shapes = st.integers(1, 3000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


class TestToeplitzHash:
    def test_matches_explicit_matrix(self):
        rng = np.random.default_rng(0)
        n, m = 13, 5
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        seed = rng.integers(0, 2, m + n - 1, dtype=np.uint8)
        matrix = np.empty((m, n), dtype=np.uint8)
        for i in range(m):
            for j in range(n):
                matrix[i, j] = seed[i - j + n - 1]
        expected = (matrix @ bits) % 2
        np.testing.assert_array_equal(toeplitz_hash(bits, m, seed), expected)

    def test_gf2_linearity(self):
        rng = np.random.default_rng(1)
        n, m = 256, 32
        seed = rng.integers(0, 2, m + n - 1, dtype=np.uint8)
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, n, dtype=np.uint8)
        np.testing.assert_array_equal(
            toeplitz_hash(x ^ y, m, seed),
            toeplitz_hash(x, m, seed) ^ toeplitz_hash(y, m, seed),
        )

    def test_seed_length_validation(self):
        bits = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            toeplitz_hash(bits, 4, np.zeros(5, dtype=np.uint8))

    def test_zero_output_length(self):
        assert len(toeplitz_hash(np.ones(8, dtype=np.uint8), 0, np.zeros(0))) == 0

    def test_no_uint8_overflow_on_long_inputs(self):
        # Dense inputs make the raw convolution sums exceed 255.
        n, m = 4096, 512
        bits = np.ones(n, dtype=np.uint8)
        seed = np.ones(m + n - 1, dtype=np.uint8)
        out = toeplitz_hash(bits, m, seed)
        # Every row of the all-ones Toeplitz matrix sums the full input.
        np.testing.assert_array_equal(out, np.full(m, n % 2, dtype=np.uint8))

    def test_dense_worst_case_is_exact(self):
        # All-ones inputs make every output the largest possible count, n = 2^20,
        # which the FFT product must still round exactly.
        n, m = 1 << 20, 115_343  # m at the default extraction ratio 0.11
        out = toeplitz_hash(np.ones(n, dtype=np.uint8), m, np.ones(m + n - 1, dtype=np.uint8))
        np.testing.assert_array_equal(out, np.full(m, n % 2, dtype=np.uint8))

    @given(hash_shapes, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @example((1, 1), 1.0, 0)
    @example((3000, 3000), 0.5, 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_convolution(self, shape, density, seed):
        n, m = shape
        rng = np.random.default_rng(seed)
        bits = (rng.random(n) < density).astype(np.uint8)
        seed_bits = rng.integers(0, 2, m + n - 1, dtype=np.uint8)
        np.testing.assert_array_equal(
            toeplitz_hash(bits, m, seed_bits), reference_toeplitz_hash(bits, m, seed_bits)
        )

    @pytest.mark.parametrize(
        "n, m",
        [
            (3 * 9547, 6838),  # three whole chunks of L = 16384 - m + 1
            (62_000, 6838),  # a session-sized key: six chunks and a ragged seventh
            (200_000, 100),  # many chunks of a short output
            (40_000, 1),
            (1000, 5000),  # m > n: one chunk
            (5000, 5000),  # m = n
            (50_000, 8191),  # just below half a 2^14 block
            (50_000, 8192),  # exactly half a block
            (50_000, 8193),  # just above: the block doubles to 2^15
            (15_385, 1000),  # a whole product of 2^14 bits: one chunk
            (15_386, 1000),  # one bit more: a second chunk of one bit
            (3000, 330),  # a short key: one chunk of 4096
        ],
    )
    @pytest.mark.parametrize("density", [0.5, 1.0])
    def test_matches_the_whole_length_product(self, n, m, density):
        rng = np.random.default_rng(n + m)
        bits = (rng.random(n) < density).astype(np.uint8)
        seed_bits = rng.integers(0, 2, m + n - 1, dtype=np.uint8)
        np.testing.assert_array_equal(
            toeplitz_hash(bits, m, seed_bits), whole_fft_toeplitz_hash(bits, m, seed_bits)
        )

    def test_all_ones_over_several_blocks(self):
        # Every count is n, the largest, summed over fifteen chunks.
        n, m = 1_000_001, 60_000
        bits = np.ones(n, dtype=np.uint8)
        seed_bits = np.ones(m + n - 1, dtype=np.uint8)
        out = toeplitz_hash(bits, m, seed_bits)
        np.testing.assert_array_equal(out, whole_fft_toeplitz_hash(bits, m, seed_bits))
        np.testing.assert_array_equal(out, np.full(m, n % 2, dtype=np.uint8))

    def test_rounding_guard_rejects_an_inexact_product(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.4)
        rng = np.random.default_rng(10)
        n, m = 500, 55
        with pytest.raises(FloatingPointError):
            toeplitz_hash(
                rng.integers(0, 2, n, dtype=np.uint8),
                m,
                rng.integers(0, 2, m + n - 1, dtype=np.uint8),
            )

    def test_negative_output_length(self):
        with pytest.raises(ValueError):
            toeplitz_hash(np.ones(8, dtype=np.uint8), -3, np.zeros(4, dtype=np.uint8))


class TestPrivacyAmplify:
    def test_default_extraction_length(self):
        rng = np.random.default_rng(2)
        reconciled = rng.integers(0, 2, 10_000, dtype=np.uint8)
        secret = privacy_amplify(reconciled, rng=rng)
        assert len(secret) == 1100

    def test_explicit_output_length(self):
        rng = np.random.default_rng(3)
        reconciled = rng.integers(0, 2, 1000, dtype=np.uint8)
        assert len(privacy_amplify(reconciled, rng, extraction_ratio=0.0645)) == 64

    def test_deterministic_for_fixed_rng_state(self):
        reconciled = np.random.default_rng(4).integers(0, 2, 1000, dtype=np.uint8)
        a = privacy_amplify(reconciled, np.random.default_rng(5))
        b = privacy_amplify(reconciled, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_cannot_stretch_the_key(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            privacy_amplify(np.zeros(100, dtype=np.uint8), rng, extraction_ratio=1.01)

    def test_negative_output_length(self):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            privacy_amplify(np.zeros(100, dtype=np.uint8), rng, extraction_ratio=-0.05)
        assert rng.bit_generator.state == state  # no seed bits were drawn

    def test_empty_input_gives_empty_output(self):
        secret = privacy_amplify(np.zeros(0, dtype=np.uint8), np.random.default_rng(7))
        assert len(secret) == 0

    def test_avalanche_on_input_flip(self):
        # Over random seeds, a single flipped input bit should change about
        # half the output bits.
        rng = np.random.default_rng(8)
        n, m = 1000, 110
        ratios = []
        for _ in range(50):
            bits = rng.integers(0, 2, n, dtype=np.uint8)
            flipped = bits.copy()
            flipped[int(rng.integers(n))] ^= 1
            seed_bits = rng.integers(0, 2, m + n - 1, dtype=np.uint8)
            diff = toeplitz_hash(bits, m, seed_bits) ^ toeplitz_hash(flipped, m, seed_bits)
            ratios.append(diff.mean())
        assert 0.4 < np.mean(ratios) < 0.6

    def test_output_bits_are_binary(self):
        rng = np.random.default_rng(9)
        secret = privacy_amplify(rng.integers(0, 2, 2000, dtype=np.uint8), rng)
        assert set(np.unique(secret)).issubset({0, 1})
