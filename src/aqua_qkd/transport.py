"""Monte Carlo photon transport through an absorbing/scattering water channel.

Analog transport in MCML style: free path lengths are sampled from the total
attenuation coefficient; each interaction either absorbs the photon (with
probability absorption/attenuation) or scatters it through a polar angle
drawn from a two-term Henyey-Greenstein mixture.  The receiver accepts
photons that exit the far plane inside a circular aperture and within a
field-of-view cone.

``run_transport`` assigns every photon index its own counter-based random
substream (see :mod:`aqua_qkd.rngstream`), so results are bit-identical for a
fixed (seed, n_photons) regardless of batching or worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import rngstream

# Per-photon counter layout; each counter is one cipher block, two uniforms.
# Counters 0 and 1 give the source its two Box-Muller pairs.  Event k uses
# counter 2 + 2k for (path, absorb), drawn for every photon in flight, and
# 3 + 2k for (scatter, azimuth), drawn for the photons that scatter; so a
# photon's stream never depends on other photons' histories.
_SOURCE_COUNTERS = 2
# Photons per batch (one worker task), and the event cap per photon history.
_BATCH = 65_536
_MAX_EVENTS = 10_000


@dataclass(frozen=True)
class TTHGParams:
    """Two-term Henyey-Greenstein mixture: alpha * HG(g1) + (1-alpha) * HG(g2)."""

    alpha: float = 0.95
    g1: float = 0.65
    g2: float = -0.30

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            if not -1.0 < g < 1.0:
                raise ValueError(f"{name} must lie in (-1, 1), got {g}")


@dataclass(frozen=True)
class BeamParams:
    """Gaussian source: transverse waist and angular divergence."""

    waist_radius: float = 2.5e-3
    divergence_half_angle: float = 1e-3

    def __post_init__(self):
        if self.waist_radius <= 0:
            raise ValueError("waist_radius must be positive")
        if self.divergence_half_angle < 0:
            raise ValueError("divergence_half_angle must be non-negative")


@dataclass(frozen=True)
class ChannelParams:
    """Water optical properties plus receiver geometry."""

    absorption: float
    attenuation: float
    length: float
    aperture_diameter: float = 0.0254
    fov_half_angle: float = math.radians(5.0)
    phase_fn: TTHGParams = field(default_factory=TTHGParams)
    lateral_bound: float = 1.0

    def __post_init__(self):
        if self.attenuation <= 0:
            raise ValueError(f"attenuation must be positive, got {self.attenuation}")
        if not 0.0 <= self.absorption <= self.attenuation:
            raise ValueError("need 0 <= absorption <= attenuation")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.aperture_diameter <= 0:
            raise ValueError("aperture_diameter must be positive")
        if not 0.0 < self.fov_half_angle <= math.pi / 2:
            raise ValueError("fov_half_angle must lie in (0, pi/2]")
        if self.lateral_bound <= 0:
            raise ValueError("lateral_bound must be positive")

    @property
    def albedo(self) -> float:
        return 1.0 - self.absorption / self.attenuation


@dataclass(frozen=True)
class TransportStats:
    launched: int
    received: int
    received_unscattered: int
    received_scattered: int
    ballistic_transmission: float
    scattered_fraction_of_received: float

    def __post_init__(self):
        if self.received != self.received_unscattered + self.received_scattered:
            raise ValueError("received must equal unscattered + scattered")
        if max(self.received, self.received_unscattered, self.received_scattered) > self.launched:
            raise ValueError("counts cannot exceed launched")

    def to_dict(self) -> dict:
        return asdict(self)


def sample_source(beam: BeamParams, seed: int, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Launch photons ``ids`` from the Gaussian source at the entrance plane.

    Uses counters 0 and 1 of each photon's substream.  Transverse offsets are
    normal with sigma = waist_radius / 2 per axis; the direction is tilted by
    per-axis normal angles with sigma equal to the divergence half-angle, then
    renormalized by ``sqrt((dx*dx + dy*dy) + 1)``, summed in the order
    ``np.linalg.norm`` sums.  Returns (positions, directions), each a (3, n)
    array with one contiguous row per component.

    The beam is written straight into those rows, and the norm is summed in
    the rows of the second normal pair, so the source makes no batch-length
    temporaries of its own.
    """
    count = len(ids)
    pos = np.empty((3, count))
    gx, gy = rngstream.normal_pair(seed, ids, np.uint64(0))
    np.multiply(gx, beam.waist_radius / 2.0, out=pos[0])
    np.multiply(gy, beam.waist_radius / 2.0, out=pos[1])
    pos[2] = 0.0
    del gx, gy
    tx, ty = rngstream.normal_pair(seed, ids, np.uint64(1))
    d = np.empty((3, count))
    np.multiply(tx, beam.divergence_half_angle, out=d[0])
    np.multiply(ty, beam.divergence_half_angle, out=d[1])
    d[2] = 1.0
    np.multiply(d[0], d[0], out=tx)
    np.multiply(d[1], d[1], out=ty)
    tx += ty
    tx += 1.0
    d /= np.sqrt(tx, out=tx)
    return pos, d


def sample_tthg_cosine(p: TTHGParams, u: np.ndarray) -> np.ndarray:
    """Polar scattering cosines from the two-term HG mixture, one uniform each.

    ``u <= alpha`` picks lobe g1, and ``u`` is rescaled into that lobe, to
    ``u / alpha`` or ``(u - alpha) / (1 - alpha)``, both uniform on (0, 1],
    before it inverts the lobe's CDF: exactly the mixture's law, from one draw.
    Each lobe sees only the uniforms that chose it, and a lobe that none chose
    is skipped, so alpha = 0 or 1 never divides by zero.
    """
    cos_t = np.empty_like(u)
    first = u <= p.alpha
    lobes = ((first, p.g1, 0.0, p.alpha), (~first, p.g2, p.alpha, 1.0 - p.alpha))
    for chosen, g, low, width in lobes:
        idx = np.flatnonzero(chosen)
        if idx.size:
            cos_t[idx] = _hg_cosine(g, (np.take(u, idx) - low) / width)
    return cos_t


def _hg_cosine(g: float, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the Henyey-Greenstein lobe ``g`` at uniforms ``u`` in (0, 1].

    A lobe within 1e-6 of isotropic is taken as isotropic, ``2u - 1``.
    """
    if abs(g) < 1e-6:
        return 2.0 * u - 1.0
    frac = (1.0 - g * g) / (1.0 + g - 2.0 * g * u)
    return np.clip((1.0 + g * g - frac * frac) / (2.0 * g), -1.0, 1.0)


def rotate_directions(
    d: np.ndarray, cos_t: np.ndarray, phi: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Scatter unit directions ``d`` (3, n) by polar cosine ``cos_t`` and azimuth ``phi``.

    Directions with |uz| > 0.99999 are scattered about the z axis itself,
    since the general formula divides by sqrt(1 - uz^2); theta is then measured
    from +z or -z, whichever the photon travels along, so cos_t < 0 reverses
    it.  Returns the (3, n) directions renormalized to unit length, in
    ``out`` if given, else in a new array.  ``out`` may be ``d`` itself:
    every new component is complete before the first is written.
    """
    nx, ny, nz = _rotate_unnormalized(d, cos_t, phi)
    norm = nx * nx
    norm += ny * ny
    norm += nz * nz
    np.sqrt(norm, out=norm)
    if out is None:
        out = np.empty_like(d)
    for j, component in enumerate((nx, ny, nz)):
        np.divide(component, norm, out=out[j])
    return out


def _rotate_unnormalized(d, cos_t, phi):
    """The new direction components of ``rotate_directions`` before renormalizing.

    The formula most photons take is evaluated on the whole batch and the
    other only on the photons that take it: at the first event nearly every
    photon of a narrow beam is on the axis, and after that nearly none is.
    Either way a photon gets the same floating-point result as when rotated
    alone.  Its temporaries are freed before the renormalization, which
    keeps the transport's peak memory down.
    """
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    straight = np.abs(d[2]) > 0.99999
    if 2 * np.count_nonzero(straight) > straight.size:
        most, other, rest = _about_z_axis, _off_axis, ~straight
    else:
        most, other, rest = _off_axis, _about_z_axis, straight
    nx, ny, nz = most(d, sin_t, cos_t, cos_p, sin_p)
    idx = np.flatnonzero(rest)
    if idx.size:
        rows = [np.take(a, idx, axis=-1) for a in (d, sin_t, cos_t, cos_p, sin_p)]
        nx[idx], ny[idx], nz[idx] = other(*rows)
    return nx, ny, nz


def _about_z_axis(d, sin_t, cos_t, cos_p, sin_p):
    """Unnormalized new directions of photons travelling along +z or -z."""
    return sin_t * cos_p, sin_t * sin_p, np.copysign(1.0, d[2]) * cos_t


def _off_axis(d, sin_t, cos_t, cos_p, sin_p):
    """Unnormalized new directions by the general formula (|uz| <= 0.99999)."""
    ux, uy, uz = d
    den = np.sqrt(np.maximum(1.0 - uz * uz, 1e-30))
    return (
        sin_t * (ux * uz * cos_p - uy * sin_p) / den + ux * cos_t,
        sin_t * (uy * uz * cos_p + ux * sin_p) / den + uy * cos_t,
        -sin_t * cos_p * den + uz * cos_t,
    )


def receiver_accepts(x: np.ndarray, y: np.ndarray, dz: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """Aperture-and-FOV test for photons crossing the exit plane at (x, y)
    with direction z-component ``dz``."""
    return (np.hypot(x, y) <= ch.aperture_diameter / 2.0) & (dz >= math.cos(ch.fov_half_angle))


def _simulate_batch(
    ch: ChannelParams, beam: BeamParams, seed: int, start: int, count: int
) -> tuple[int, int]:
    """Vectorized transport of photons [start, start+count); returns
    (received_unscattered, received_scattered).

    Only photons still in flight are kept.  Every event either ends a photon
    (exit through the far plane, backward or lateral loss, absorption) or
    scatters it, so the photons in flight at event k have scattered exactly
    k times.

    Positions and directions are held component-major, as (3, n) arrays with
    one contiguous row per component, and photons are gathered by index with
    ``np.take``.  An event's (path, absorb) draw and every array made from it
    live only inside ``_hop``, so they are freed before the survivors are
    gathered and draw (scatter, azimuth), and the survivors' directions are
    rotated in place.  The batch's memory peaks at the first event's draw:
    the cipher's staging beside the ids, positions and directions.
    """
    ids = np.arange(start, start + count, dtype=np.uint64)
    pos, d = sample_source(beam, seed, ids)

    received = [0, 0]  # [unscattered, scattered], indexed by event > 0
    for event in range(_MAX_EVENTS):
        counter = np.uint64(_SOURCE_COUNTERS + 2 * event)
        accepted, live = _hop(ch, pos, d, rngstream.uniform(seed, ids, counter))
        received[event > 0] += accepted
        ids = np.take(ids, live)
        if ids.size == 0:
            break
        pos = np.take(pos, live, axis=1)
        d = np.take(d, live, axis=1)
        del live

        scatter, azimuth = rngstream.uniform(seed, ids, counter + np.uint64(1))
        azimuth *= 2.0 * np.pi
        rotate_directions(d, sample_tthg_cosine(ch.phase_fn, scatter), azimuth, out=d)
        del scatter, azimuth

    if ids.size:
        raise RuntimeError(
            f"{ids.size} photons still in flight at the cap of {_MAX_EVENTS} events "
            f"(batch of photons {start}..{start + count - 1})"
        )
    return received[0], received[1]


def _hop(ch: ChannelParams, pos: np.ndarray, d: np.ndarray, draws: np.ndarray):
    """One event for the photons at ``pos`` heading along ``d``.

    Moves ``pos`` in place by the free path that ``draws[0]`` gives.  Returns
    how many photons the receiver accepts where they cross the exit plane on
    the way, and the indices of the photons that scatter: those neither
    exited, nor lost backward or laterally, nor absorbed by ``draws[1]``.
    Once the absorptions are known, the rows of ``draws`` serve as the
    event's batch-length scratch.  The lateral test evaluates
    ``hypot(x, y)`` only where ``|x| + |y|``, its upper bound, comes near
    ``lateral_bound``.
    """
    step, scratch = draws
    gone = scratch < ch.absorption / ch.attenuation
    np.log(step, out=step)
    step /= -ch.attenuation

    forward = d[2] > 0
    np.subtract(ch.length, pos[2], out=scratch)
    np.divide(scratch, d[2], out=scratch, where=forward)
    exiting = forward & (scratch <= step)
    out = np.flatnonzero(exiting)
    accepted = 0
    if out.size:
        pe, de = np.take(pos, out, axis=1), np.take(d, out, axis=1)
        t = (ch.length - pe[2]) / de[2]
        ok = receiver_accepts(pe[0] + t * de[0], pe[1] + t * de[1], de[2], ch)
        accepted = int(np.count_nonzero(ok))

    for j in range(3):
        pos[j] += np.multiply(step, d[j], out=scratch)
    gone |= exiting
    gone |= pos[2] < 0
    # hypot(x, y) <= |x| + |y| always; the margin covers the rounding of both.
    # The step is spent, so its row takes |y|.
    np.abs(pos[0], out=scratch)
    scratch += np.abs(pos[1], out=step)
    near = np.flatnonzero(scratch > ch.lateral_bound * (1.0 - 1e-12))
    x, y = np.take(pos[:2], near, axis=1)
    gone[near[np.hypot(x, y) > ch.lateral_bound]] = True
    return accepted, np.flatnonzero(~gone)


def run_transport(
    ch: ChannelParams, beam: BeamParams, n_photons: int, seed: int, n_workers: int = 1
) -> TransportStats:
    """Simulate ``n_photons`` independent histories and aggregate receiver counts.

    Photons run in batches of ``_BATCH``, over ``n_workers`` processes when
    there is more than one batch.  Deterministic for fixed (seed, n_photons):
    every photon index owns its own counter-based substream, and batch/worker
    partitioning only changes the order of commutative integer sums.  Raises
    ``RuntimeError`` if any photon is still in flight after ``_MAX_EVENTS``
    events, rather than dropping it from the counts, and ``ValueError`` for
    a seed outside [0, 2^64), which the cipher key would alias.  The process
    pool is imported only here, by a run that uses it: importing the package
    loads no multiprocessing.
    """
    if n_photons < 1:
        raise ValueError("n_photons must be >= 1")
    rngstream.check_seed(seed)
    starts = range(0, n_photons, _BATCH)
    counts = [min(_BATCH, n_photons - s) for s in starts]
    simulate = functools.partial(_simulate_batch, ch, beam, seed)
    if n_workers > 1 and len(starts) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(simulate, starts, counts))
    else:
        results = list(map(simulate, starts, counts))

    unscattered, scattered = map(sum, zip(*results))
    received = unscattered + scattered
    return TransportStats(
        launched=n_photons,
        received=received,
        received_unscattered=unscattered,
        received_scattered=scattered,
        ballistic_transmission=unscattered / n_photons,
        scattered_fraction_of_received=(scattered / received) if received else 0.0,
    )
