import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aqua_qkd
from aqua_qkd import transport
from aqua_qkd.transport import (
    BeamParams,
    ChannelParams,
    TTHGParams,
    TransportStats,
    receiver_accepts,
    rotate_directions,
    run_transport,
    sample_source,
    sample_tthg_cosine,
)

WATER = dict(absorption=0.117, attenuation=0.683, length=2.37)
# Traced peak memory of a transport run per photon of a full batch, in bytes:
# ids, positions and directions beside the first event's cipher staging
# take 96.
PEAK_BYTES_PER_BATCH_PHOTON = 112


class TestParams:
    def test_albedo(self):
        ch = ChannelParams(**WATER)
        assert ch.albedo == pytest.approx(1.0 - 0.117 / 0.683)

    def test_absorption_cannot_exceed_attenuation(self):
        with pytest.raises(ValueError):
            ChannelParams(absorption=0.7, attenuation=0.683, length=2.37)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ChannelParams(length=-1.0, **{k: v for k, v in WATER.items() if k != "length"})
        with pytest.raises(ValueError):
            ChannelParams(aperture_diameter=0.0, **WATER)
        with pytest.raises(ValueError):
            ChannelParams(fov_half_angle=2.0, **WATER)

    def test_tthg_validation(self):
        with pytest.raises(ValueError):
            TTHGParams(alpha=1.5)
        with pytest.raises(ValueError):
            TTHGParams(g1=1.0)

    def test_beam_validation(self):
        with pytest.raises(ValueError):
            BeamParams(waist_radius=0.0)

    def test_stats_invariants(self):
        with pytest.raises(ValueError):
            TransportStats(
                launched=10,
                received=5,
                received_unscattered=3,
                received_scattered=1,
                ballistic_transmission=0.3,
                scattered_fraction_of_received=0.2,
            )


def uniforms(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).random(n)


def tthg_cdf(p: TTHGParams, mu: float) -> float:
    """P(cos theta <= mu) under the two-term HG mixture, in closed form."""

    def lobe(g):
        if g == 0.0:
            return (1.0 + mu) / 2.0
        root = math.sqrt(1.0 + g * g - 2.0 * g * mu)
        return (1.0 - g * g) / (2.0 * g) * (1.0 / root - 1.0 / (1.0 + g))

    return p.alpha * lobe(p.g1) + (1.0 - p.alpha) * lobe(p.g2)


def unit_directions(n: int, rng) -> np.ndarray:
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


class TestSampling:
    def test_path_length_mean(self):
        # In a pure absorber each photon takes one free path, so the fraction
        # reaching the exit plane is P(path > L) = exp(-c L); at L = 1/c, the
        # mean free path, that is 1/e.
        c, n = 0.683, 100_000
        for mean_paths in (0.5, 1.0, 2.0):
            ch = ChannelParams(
                absorption=c,
                attenuation=c,
                length=mean_paths / c,
                aperture_diameter=10.0,
                fov_half_angle=math.pi / 2,
            )
            stats = run_transport(ch, BeamParams(), n, seed=1)
            p = math.exp(-mean_paths)
            assert stats.received_scattered == 0
            assert abs(stats.received / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_path_length_requires_positive_attenuation(self):
        # Free paths are drawn with mean 1/c, so c = 0 is rejected up front.
        with pytest.raises(ValueError):
            ChannelParams(absorption=0.0, attenuation=0.0, length=2.37)

    def test_single_lobe_mean_cosine(self):
        # A pure HG lobe has mean cosine exactly g.
        p = TTHGParams(alpha=1.0, g1=0.65, g2=0.0)
        cosines = sample_tthg_cosine(p, uniforms(2, 200_000))
        assert cosines.mean() == pytest.approx(0.65, abs=0.005)
        assert np.all(np.abs(cosines) <= 1.0)

    def test_mixture_mean_cosine(self):
        p = TTHGParams()
        expected = p.alpha * p.g1 + (1 - p.alpha) * p.g2
        cosines = sample_tthg_cosine(p, uniforms(3, 200_000))
        assert cosines.mean() == pytest.approx(expected, abs=0.005)

    def test_isotropic_limit(self):
        p = TTHGParams(alpha=1.0, g1=0.0, g2=0.0)
        cosines = sample_tthg_cosine(p, uniforms(4, 100_000))
        assert cosines.mean() == pytest.approx(0.0, abs=0.01)

    @pytest.mark.parametrize(
        "p", [TTHGParams(), TTHGParams(alpha=0.6, g1=0.9, g2=-0.5)], ids=["default", "even"]
    )
    def test_cosines_follow_the_mixture_cdf(self, p):
        # The one-uniform sampler against the closed-form CDF of the
        # mixture, within 4.5 binomial standard errors at each point.
        n = 400_000
        cosines = sample_tthg_cosine(p, 1.0 - uniforms(5, n))
        for mu in (-0.95, -0.8, -0.5, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
            expected = tthg_cdf(p, mu)
            sigma = math.sqrt(expected * (1 - expected) / n)
            assert abs(np.mean(cosines <= mu) - expected) < 4.5 * sigma, mu

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("g", [0.65, 0.0, -0.3])
    def test_single_lobe_alpha_takes_one_branch(self, alpha, g):
        # alpha = 1 is lobe g1 alone and alpha = 0 lobe g2 alone: the uniform
        # goes to that lobe's inverse CDF unscaled, and the other lobe's
        # rescale, which would divide by zero, is never evaluated.
        other = 0.9
        p = TTHGParams(alpha=alpha, g1=g if alpha else other, g2=other if alpha else g)
        # The extremes of rngstream.uniform, 2^-64 and 1, included.
        u = np.concatenate([1.0 - uniforms(6, 10_000), [2.0**-64, 0.5, 1.0]])
        with np.errstate(all="raise"):
            cosines = sample_tthg_cosine(p, u)
        if g == 0.0:
            expected = 2.0 * u - 1.0
        else:
            frac = (1.0 - g * g) / (1.0 + g - 2.0 * g * u)
            expected = np.clip((1.0 + g * g - frac * frac) / (2.0 * g), -1.0, 1.0)
        np.testing.assert_allclose(cosines, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "p",
        [
            TTHGParams(),
            TTHGParams(alpha=0.6, g1=0.9, g2=-0.5),
            TTHGParams(g1=5e-7),
            TTHGParams(alpha=1.0, g1=0.65, g2=0.9),
            TTHGParams(alpha=0.0, g1=0.9, g2=-0.3),
        ],
        ids=["default", "even", "near-isotropic", "alpha-1", "alpha-0"],
    )
    def test_cosines_match_the_mixture_formula_bitwise(self, p):
        # The sampler against the mixture written out on the whole array:
        # each uniform's lobe by np.where, rescaled into that lobe, inverted
        # (2u - 1 for a lobe within 1e-6 of isotropic) and clipped.
        u = np.concatenate([1.0 - uniforms(7, 50_000), [2.0**-64, p.alpha, 1.0]])
        u = u[u > 0.0]  # uniforms lie in (0, 1]
        first = u <= p.alpha
        g = np.where(first, p.g1, p.g2)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(first, u / p.alpha, (u - p.alpha) / (1.0 - p.alpha))
            frac = (1.0 - g * g) / (1.0 + g - 2.0 * g * v)
            general = (1.0 + g * g - frac * frac) / (2.0 * g)
        expected = np.clip(np.where(np.abs(g) < 1e-6, 2.0 * v - 1.0, general), -1.0, 1.0)
        np.testing.assert_array_equal(sample_tthg_cosine(p, u), expected)

    def test_source_statistics(self):
        beam = BeamParams(waist_radius=2.5e-3, divergence_half_angle=1e-3)
        pos, d = (a.T for a in sample_source(beam, 5, np.arange(20_000, dtype=np.uint64)))
        assert pos.shape == d.shape == (20_000, 3)
        assert pos[:, 0].std() == pytest.approx(beam.waist_radius / 2, rel=0.05)
        assert np.all(pos[:, 2] == 0.0)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
        tilt = np.arccos(d[:, 2])
        # Two independent normal tilt axes: mean polar tilt = sigma * sqrt(pi/2).
        assert tilt.mean() == pytest.approx(1e-3 * math.sqrt(math.pi / 2), rel=0.05)

    def test_source_is_component_major(self):
        # One contiguous row per component: the layout the kernel works in.
        for a in sample_source(BeamParams(), 5, np.arange(1_000, dtype=np.uint64)):
            assert a.shape == (3, 1_000)
            assert a.flags.c_contiguous


class TestPropagate:
    def test_directions_stay_unit_after_many_scatters(self):
        rng = np.random.default_rng(6)
        p = TTHGParams()
        d = unit_directions(2_000, rng)
        for _ in range(200):
            cos_t = sample_tthg_cosine(p, rng.random(len(d)))
            d = rotate_directions(d.T, cos_t, 2.0 * np.pi * rng.random(len(d))).T
            assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) < 1e-9

    def test_rotation_keeps_the_scattering_angle(self):
        # The new direction makes angle acos(cos_t) with the old one.
        rng = np.random.default_rng(8)
        d = unit_directions(5_000, rng)
        cos_t = 2.0 * rng.random(len(d)) - 1.0
        new = rotate_directions(d.T, cos_t, 2.0 * np.pi * rng.random(len(d))).T
        np.testing.assert_allclose(np.sum(d * new, axis=1), cos_t, atol=1e-9)

    @pytest.mark.parametrize("uz", [1.0, 1.0 - 5e-6, -1.0, -(1.0 - 5e-6)])
    def test_rotation_about_the_z_axis(self, uz):
        # |uz| > 0.99999 takes the on-axis branch: the polar angle is measured
        # from the axis on the photon's side, forward or backward.
        ux = math.sqrt(1.0 - uz * uz)
        d = np.tile([ux, 0.0, uz], (4, 1))
        cos_t = np.array([1.0, 0.5, 0.0, -0.8])
        phi = np.array([0.0, 1.0, 2.0, 3.0])
        new = rotate_directions(d.T, cos_t, phi).T
        np.testing.assert_allclose(np.linalg.norm(new, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(new[:, 2], math.copysign(1.0, uz) * cos_t, atol=1e-12)
        sin_t = np.sqrt(1.0 - cos_t * cos_t)
        np.testing.assert_allclose(new[:, 0], sin_t * np.cos(phi), atol=1e-12)
        np.testing.assert_allclose(new[:, 1], sin_t * np.sin(phi), atol=1e-12)

    @pytest.mark.parametrize("n_oblique", [0, 1, 3, 6])
    def test_rotation_of_a_row_does_not_depend_on_the_batch(self, n_oblique):
        # Rows along +z and -z (|uz| > 0.99999) mixed with oblique rows, in
        # proportions that make either formula the one most rows take (no
        # oblique row: an all-on-axis batch).
        rng = np.random.default_rng(12)
        on_axis = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-3, 0.0, math.sqrt(1 - 1e-6)],
                   [0.0, -2e-3, -math.sqrt(1 - 4e-6)]]
        d = np.vstack([on_axis, unit_directions(n_oblique, rng)])
        d = d[rng.permutation(len(d))]
        cos_t = 2.0 * rng.random(len(d)) - 1.0
        phi = 2.0 * np.pi * rng.random(len(d))
        batch = rotate_directions(d.T, cos_t, phi).T
        for i in range(len(d)):
            alone = rotate_directions(d[i : i + 1].T, cos_t[i : i + 1], phi[i : i + 1]).T
            np.testing.assert_array_equal(batch[i], alone[0])

    @pytest.mark.parametrize("on_axis_share", [0.1, 0.9])
    def test_rotation_does_not_depend_on_the_layout(self, on_axis_share):
        # The transport passes C-ordered (3, n) directions; each branch's
        # rows, in the minority and in the majority, must match a
        # Fortran-ordered copy bit for bit.
        rng = np.random.default_rng(14)
        n = 4_000
        d = unit_directions(n, rng)
        on_axis = rng.random(n) < on_axis_share
        tilt = rng.normal(scale=1e-3, size=(on_axis.sum(), 2))
        d[on_axis] = np.column_stack([tilt, np.sqrt(1.0 - (tilt * tilt).sum(axis=1))])
        d[on_axis] *= rng.choice([-1.0, 1.0], size=(on_axis.sum(), 1))
        assert 0 < np.count_nonzero(np.abs(d[:, 2]) > 0.99999) < n
        cos_t = 2.0 * rng.random(n) - 1.0
        phi = 2.0 * np.pi * rng.random(n)
        d = np.ascontiguousarray(d.T)
        fortran = np.asfortranarray(d)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        expected = rotate_directions(d, cos_t, phi)
        np.testing.assert_array_equal(rotate_directions(fortran, cos_t, phi), expected)

    def test_rotation_in_place_matches_a_new_array(self):
        # The transport rotates into its own directions; the inputs of a
        # rotation into a new array stay as they were.
        rng = np.random.default_rng(16)
        d = unit_directions(3_000, rng).T.copy()
        d[:, :1_000] = [[0.0], [1e-4], [-1.0]]
        cos_t = 2.0 * rng.random(3_000) - 1.0
        phi = 2.0 * np.pi * rng.random(3_000)
        before = d.copy()
        expected = rotate_directions(d, cos_t, phi)
        np.testing.assert_array_equal(d, before)
        assert rotate_directions(d, cos_t, phi, out=d) is d
        np.testing.assert_array_equal(d, expected)

    def test_exit_plane_flag(self):
        # In a near-vacuum channel every photon reaches the exit plane
        # unscattered, inside the aperture and the FOV.
        ch = ChannelParams(absorption=0.0, attenuation=1e-6, length=1.0)
        stats = run_transport(ch, BeamParams(), 5_000, seed=7)
        assert stats.received_unscattered == stats.launched
        assert stats.received_scattered == 0

    def test_receiver_aperture_and_fov(self):
        ch = ChannelParams(**WATER)
        tilt = math.cos(0.2)
        x = np.array([0.0, 0.05, 0.0, 0.0127, 0.0])
        y = np.zeros(5)
        dz = np.array([1.0, 1.0, tilt, 1.0, math.cos(ch.fov_half_angle)])
        accepted = receiver_accepts(x, y, dz, ch)
        # On axis, outside the aperture, outside the FOV, on the aperture rim,
        # on the FOV edge.
        np.testing.assert_array_equal(accepted, [True, False, False, True, True])


class TestRunTransport:
    def test_beer_lambert(self):
        n = 200_000
        ch = ChannelParams(**WATER)
        stats = run_transport(ch, BeamParams(), n, seed=1)
        p = math.exp(-ch.attenuation * ch.length)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(stats.ballistic_transmission - p) < 3 * sigma

    def test_pure_absorber_has_no_scattered_arrivals(self):
        ch = ChannelParams(absorption=0.683, attenuation=0.683, length=2.37)
        stats = run_transport(ch, BeamParams(), 50_000, seed=2)
        assert stats.received_scattered == 0
        assert stats.received == stats.received_unscattered

    def test_near_vacuum_everything_arrives(self):
        ch = ChannelParams(absorption=0.0, attenuation=1e-9, length=2.37)
        stats = run_transport(ch, BeamParams(), 10_000, seed=3)
        assert stats.ballistic_transmission > 0.999

    def test_counts_are_consistent(self):
        stats = run_transport(ChannelParams(**WATER), BeamParams(), 50_000, seed=4)
        assert stats.received == stats.received_unscattered + stats.received_scattered
        assert stats.received <= stats.launched

    def test_worker_count_invariance(self, monkeypatch):
        ch = ChannelParams(**WATER)
        beam = BeamParams()
        monkeypatch.setattr(transport, "_BATCH", 16_384)
        serial = run_transport(ch, beam, 60_000, seed=5, n_workers=1)
        parallel = run_transport(ch, beam, 60_000, seed=5, n_workers=3)
        assert serial == parallel

    def test_batch_size_invariance(self, monkeypatch):
        ch = ChannelParams(**WATER)
        beam = BeamParams()
        monkeypatch.setattr(transport, "_BATCH", 1_000)
        a = run_transport(ch, beam, 40_000, seed=6)
        monkeypatch.setattr(transport, "_BATCH", 65_536)
        b = run_transport(ch, beam, 40_000, seed=6)
        monkeypatch.setattr(transport, "_BATCH", 262_144)
        c = run_transport(ch, beam, 40_000, seed=6)
        assert a == b == c

    def test_scattered_fraction_monotone_in_fov(self):
        # Same seed: histories are identical, only the acceptance cone changes.
        fractions = []
        for fov_deg in (30.0, 10.0, 5.0):
            ch = ChannelParams(fov_half_angle=math.radians(fov_deg), **WATER)
            stats = run_transport(ch, BeamParams(), 200_000, seed=7)
            fractions.append(stats.scattered_fraction_of_received)
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_photons_left_at_the_event_cap_raise(self, monkeypatch):
        # On the tank channel most photons scatter at their first event, so a
        # cap of one event leaves them in flight; they must not be dropped.
        monkeypatch.setattr(transport, "_MAX_EVENTS", 1)
        with pytest.raises(RuntimeError, match="photons still in flight") as err:
            run_transport(ChannelParams(**WATER), BeamParams(), 10_000, seed=8)
        in_flight = int(str(err.value).split()[0])
        assert 0 < in_flight < 10_000

    def test_rejects_zero_photons(self):
        with pytest.raises(ValueError):
            run_transport(ChannelParams(**WATER), BeamParams(), 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 42, 1.0, True, "42"])
    def test_rejects_seed_outside_64_bits(self, seed):
        # The cipher key is the seed's 64 bits: 2**64 + 42 would alias seed 42.
        with pytest.raises(ValueError, match="seed"):
            run_transport(ChannelParams(**WATER), BeamParams(), 10, seed=seed)

    def test_accepts_the_largest_seed(self):
        stats = run_transport(ChannelParams(**WATER), BeamParams(), 10, seed=2**64 - 1)
        assert stats.launched == 10

    def test_peak_memory_per_batch_photon(self):
        # One full batch and a partial one: memory is a fixed number of
        # bytes per photon of the batch, whatever the number of photons.
        tracemalloc.start()
        try:
            run_transport(ChannelParams(**WATER), BeamParams(), 70_000, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert transport._BATCH < 70_000
        assert peak <= PEAK_BYTES_PER_BATCH_PHOTON * transport._BATCH, peak / transport._BATCH

    def test_importing_the_package_loads_no_process_pool(self):
        # The pool and what it brings (multiprocessing, logging, subprocess)
        # are imported only by a run that asks for workers.
        code = (
            "import sys, aqua_qkd.experiments; "
            "print('concurrent.futures.process' in sys.modules)"
        )
        path = [str(Path(aqua_qkd.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
