import numpy as np
import pytest

from aqua_qkd import rngstream


class TestUniform:
    def test_deterministic(self):
        a = rngstream.uniform(42, np.arange(1000, dtype=np.uint64), np.uint64(7))
        b = rngstream.uniform(42, np.arange(1000, dtype=np.uint64), np.uint64(7))
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        streams = np.arange(1000, dtype=np.uint64)
        a = rngstream.uniform(1, streams, np.uint64(0))
        b = rngstream.uniform(2, streams, np.uint64(0))
        assert not np.array_equal(a, b)

    def test_counter_sensitivity(self):
        streams = np.arange(1000, dtype=np.uint64)
        a = rngstream.uniform(1, streams, np.uint64(0))
        b = rngstream.uniform(1, streams, np.uint64(1))
        assert not np.array_equal(a, b)

    def test_range_half_open_at_zero(self):
        u = rngstream.uniform(3, np.arange(100_000, dtype=np.uint64), np.uint64(0))
        assert np.all(u > 0.0)
        assert np.all(u <= 1.0)

    def test_scalar_matches_vector(self):
        vec = rngstream.uniform(9, np.arange(16, dtype=np.uint64), np.uint64(5))
        assert vec.shape == (2, 16)
        for i in range(16):
            one = rngstream.uniform(9, np.uint64(i), np.uint64(5))
            assert one.shape == (2,)
            np.testing.assert_array_equal(one, vec[:, i])

    def test_mean_and_variance(self):
        n = 200_000
        u = rngstream.uniform(2024, np.arange(n, dtype=np.uint64), np.uint64(0))
        assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12 * n)
        assert abs(u.var() - 1.0 / 12.0) < 0.001

    def test_streams_uncorrelated_with_counters(self):
        streams = np.arange(50_000, dtype=np.uint64)
        a = rngstream.uniform(5, streams, np.uint64(0))
        b = rngstream.uniform(5, streams, np.uint64(1))
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_rows_and_counters_uncorrelated(self):
        # Both halves of the blocks at two counters: four rows, six pairs.
        streams = np.arange(50_000, dtype=np.uint64)
        rows = np.vstack([rngstream.uniform(5, streams, np.uint64(c)) for c in (0, 1)])
        corr = np.corrcoef(rows)[np.triu_indices(4, 1)]
        assert np.all(np.abs(corr) < 0.02)


class TestPairKnownAnswers:
    # Row 0 of ``uniform`` at (seed, stream, counter), pinned from the version
    # that returned one double per block: row 0 keeps that value.
    ROW0 = [
        ((0, 0, 0), "0x1.989fa35785a71p-2"),
        ((42, 7, 3), "0x1.28b795b4fc85bp-1"),
        ((2**64 - 1, 2**64 - 1, 2**64 - 1), "0x1.023c9db50720fp-2"),
    ]

    @pytest.mark.parametrize("args,expected", ROW0)
    def test_row0_is_pinned(self, args, expected):
        seed, stream, counter = args
        u = rngstream.uniform(seed, np.uint64(stream), np.uint64(counter))
        assert float(u[0]).hex() == expected

    def test_rows_are_the_block_words(self):
        # Row 0 is built from words (w0, w1) and row 1 from (w2, w3): the
        # 64-bit integer hi << 32 | lo is rounded to a double, then 1.0 is
        # added and the sum scaled by 2^-64.  (Adding the 1 before rounding
        # gives a different double for about 1 value in 400.)
        rng = np.random.default_rng(29)
        streams = rng.integers(0, 2**64, 300, dtype=np.uint64)
        counters = rng.integers(0, 2**64, 300, dtype=np.uint64)
        seed = 0x0123456789ABCDEF
        u = rngstream.uniform(seed, streams, counters)
        assert u.shape == (2, 300)
        assert u.dtype == np.float64
        for i, (s, c) in enumerate(zip(streams.tolist(), counters.tolist())):
            w0, w1, w2, w3 = (int(w) for w in rngstream.philox4x32(c, s, seed))
            assert u[0, i] == (float(w0 << 32 | w1) + 1.0) * 2.0**-64
            assert u[1, i] == (float(w2 << 32 | w3) + 1.0) * 2.0**-64


class TestWordsToUnit:
    # ``_words_to_unit`` against the 64-bit integer rounded once by Python's
    # correctly rounded int -> float conversion.
    @staticmethod
    def convert(hi, lo):
        hi = np.asarray(hi, dtype=np.uint32)
        lo = np.asarray(lo, dtype=np.uint32)
        out = np.empty(hi.shape)
        rngstream._words_to_unit(hi, lo, out)
        return out

    @staticmethod
    def reference(hi, lo):
        return (float(hi << 32 | lo) + 1.0) * 2.0**-64

    @pytest.mark.parametrize(
        "hi,lo",
        [
            (0, 0),
            (0x80000000, 0x400),  # 2^63 + half an ulp: ties to even, down
            (0x80000000, 0xC00),  # 2^63 + 1.5 ulp: ties to even, up
            (0x80000000, 0x401),  # just above the tie
            (0xFFFFFFFF, 0xFFFFFBFF),  # below the top tie
            (0x00200000, 0x1),  # 2^53 + 1: the first integer a double rounds
            (0x00200000, 0x3),  # 2^53 + 3: ties to even, up
            (0x001FFFFF, 0xFFFFFFFF),  # 2^53 - 1: exact
            (0x00400000, 0x2),  # 2^54 + 2: a tie at the next binade
        ],
    )
    def test_edge_words(self, hi, lo):
        assert self.convert([hi], [lo])[0] == self.reference(hi, lo)

    def test_all_ones_give_one(self):
        assert self.convert([0xFFFFFFFF], [0xFFFFFFFF])[0] == 1.0

    def test_random_words(self):
        rng = np.random.default_rng(37)
        hi, lo = rng.integers(0, 2**32, (2, 100_000), dtype=np.uint32)
        # Half of them with a small hi word, where the +1 and the low bits
        # both show.
        hi[::2] >>= np.uint32(rng.integers(8, 32))
        expected = [self.reference(h, l) for h, l in zip(hi.tolist(), lo.tolist())]
        np.testing.assert_array_equal(self.convert(hi, lo), expected)


class TestPhilox:
    def test_output_shape_and_dtype(self):
        c = np.arange(8, dtype=np.uint64) * np.uint64(2**32 + 1)  # both words c
        w = rngstream.philox4x32(c, c, 2 << 32 | 1)
        assert len(w) == 4
        for word in w:
            assert word.dtype == np.uint32
            assert word.shape == (8,)

    def test_bit_avalanche_on_counter(self):
        # Flipping one counter bit should flip about half the output bits.
        n = 4096
        counter = np.arange(n, dtype=np.uint64)
        base = rngstream.philox4x32(counter, 0, 2 << 32 | 1)
        flipped = rngstream.philox4x32(counter ^ np.uint64(1), 0, 2 << 32 | 1)
        diff = np.concatenate([(a ^ b) for a, b in zip(base, flipped)])
        bits = np.unpackbits(diff.view(np.uint8))
        assert 0.45 < bits.mean() < 0.55


class TestNormalPair:
    def test_deterministic(self):
        s = np.arange(100, dtype=np.uint64)
        a1, a2 = rngstream.normal_pair(7, s, np.uint64(0))
        b1, b2 = rngstream.normal_pair(7, s, np.uint64(0))
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)

    def test_moments(self):
        n = 100_000
        g1, g2 = rngstream.normal_pair(11, np.arange(n, dtype=np.uint64), np.uint64(0))
        g = np.concatenate([g1, g2])
        assert abs(g.mean()) < 5.0 / np.sqrt(2 * n)
        assert g.std() == pytest.approx(1.0, abs=0.01)

    def test_pair_members_uncorrelated(self):
        n = 50_000
        g1, g2 = rngstream.normal_pair(13, np.arange(n, dtype=np.uint64), np.uint64(0))
        assert abs(np.corrcoef(g1, g2)[0, 1]) < 0.02


class TestKnownAnswers:
    # Philox4x32-10 vectors from the Random123 distribution (kat_vectors):
    # counter words, key words, expected output words.
    VECTORS = [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        (
            (0xFFFFFFFF,) * 4,
            (0xFFFFFFFF,) * 2,
            (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
        ),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ]

    @staticmethod
    def address(ctr, key):
        """The 64-bit (counter, stream, key) of counter words c0..c3 and key
        words k0, k1: the low word of each pair first."""
        c0, c1, c2, c3 = ctr
        k0, k1 = key
        return c1 << 32 | c0, c3 << 32 | c2, k1 << 32 | k0

    @pytest.mark.parametrize("ctr,key,expected", VECTORS)
    def test_scalar_words(self, ctr, key, expected):
        words = rngstream.philox4x32(*self.address(ctr, key))
        assert [int(w) for w in words] == list(expected)

    def test_vector_words(self):
        # All three (counter, stream) pairs as one array under each vector's
        # key: the element of the vector that owns the key gives its words.
        counters, streams, keys = zip(*(self.address(c, k) for c, k, _ in self.VECTORS))
        counter, stream = (np.array(c, dtype=np.uint64) for c in (counters, streams))
        for i, key in enumerate(keys):
            words = rngstream.philox4x32(counter, stream, key)
            assert [w.dtype for w in words] == [np.uint32] * 4
            assert [int(w[i]) for w in words] == list(self.VECTORS[i][2])

    def test_vector_matches_a_scalar_loop(self):
        rng = np.random.default_rng(17)
        n = 40
        counter, stream = rng.integers(0, 2**64, (2, n), dtype=np.uint64)
        for key in (0, int(rng.integers(0, 2**64, dtype=np.uint64)), 2**64 - 1):
            words = rngstream.philox4x32(counter, stream, key)
            for i in range(n):
                one = rngstream.philox4x32(int(counter[i]), int(stream[i]), key)
                assert [int(w[i]) for w in words] == [int(w) for w in one]
                # A scalar counter broadcasts against a vector stream, and back.
                row = rngstream.philox4x32(counter[i], stream, key)
                col = rngstream.philox4x32(counter, stream[i], key)
                assert [int(w[i]) for w in row] == [int(w) for w in one]
                assert [int(w[i]) for w in col] == [int(w) for w in one]


class TestBlocks:
    def test_uniform_is_independent_of_the_block_edges(self):
        block = rngstream._BLOCK
        n = 2 * block + 3
        rng = np.random.default_rng(23)
        streams = rng.integers(0, 2**64, n, dtype=np.uint64)
        counters = rng.integers(0, 2**64, n, dtype=np.uint64)
        whole = rngstream.uniform(31, streams, counters)
        cuts = [0, 5, block - 1, block + 1, block + 2, 2 * block + 1, n]
        parts = [
            rngstream.uniform(31, streams[a:b], counters[a:b]) for a, b in zip(cuts, cuts[1:])
        ]
        np.testing.assert_array_equal(whole, np.concatenate(parts, axis=1))
        last = rngstream.uniform(31, streams[n - 1], counters[n - 1])
        np.testing.assert_array_equal(last, whole[:, n - 1])

    def test_philox_is_independent_of_the_block_edges(self):
        block = rngstream._BLOCK
        n = 2 * block + 3
        c = np.arange(n, dtype=np.uint64)
        counter, stream = c | np.uint64(1 << 32), c | np.uint64(2 << 32)
        whole = rngstream.philox4x32(counter, stream, 4 << 32 | 3)
        for a, b in ((0, block + 1), (block + 1, n)):
            part = rngstream.philox4x32(counter[a:b], stream[a:b], 4 << 32 | 3)
            for w, p in zip(whole, part):
                np.testing.assert_array_equal(w[a:b], p)

    def test_empty_input(self):
        u = rngstream.uniform(1, np.array([], dtype=np.uint64), np.uint64(0))
        assert u.dtype == np.float64
        assert u.shape == (2, 0)
