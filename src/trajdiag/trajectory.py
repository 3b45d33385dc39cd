"""Signature space, fault trajectories and trajectory intersection counting.

A signature is the vector of golden-relative dB differences at the test
frequencies, so the golden circuit sits exactly at the origin. Sweeping
one component's deviation across its grid traces a piecewise-linear
trajectory through the origin; trajectories of different components are
distinguishable when their segments neither cross nor share pathways
away from the common origin. A :class:`Trajectory` holds its deviations
(P,) and points (P, n) as read-only arrays: one target's slice of the
signature stack that a single ensemble solve produces, and the form that
counting, classification and the CSV files all read.

Incidence between two segments is decided by their minimum distance
(closed-form clamped closest-point computation, any dimension) against a
tolerance; a pair that stays parallel over a positive overlap length is
reported as an ``overlap`` (one count per segment pair), anything else
as a ``cross``; a cross of two segments that share an endpoint lies at
that endpoint, however ill-conditioned their closest points are.
Incidences whose entire contact region lies within the origin-exclusion
ball are discarded, since every trajectory meets at the golden point by
construction.

One numpy kernel serves every counting entry point. Its broad phase
keeps only the segment pairs whose axis-aligned boxes, grown by twice
the tolerance, touch on every axis (the box test of sweep-and-prune, run
as one boolean matrix over all segment pairs, with a comparison that
stays conservative under rounding). That matrix, kept only at the pairs
``i < j`` of different trajectories, is itself the pair list: nothing of
a layout is cached, and each call builds two arrays of one entry per
segment, its trajectory and whether it ends at its trajectory's origin
point. A pair whose segments both end at the golden point meets there
unless the two overlap, and that contact is discarded, so such a pair
goes on only if it could be parallel. The closed-form closest-point
test then runs on the survivors alone, about 8% of the 1344
cross-trajectory pairs of a random 2-frequency biquad vector (5% at 3
frequencies, 20% at 1, where every pair is collinear). One loop feeds
the kernel blocks of test vectors whose box-test matrices hold at most
``_BOX_ENTRIES`` entries, so its memory does not grow with the number of
vectors. It takes each block's magnitudes from a callable, so the caller
chooses how they are solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .faultlib import FaultConfig, ensemble_for
from .netlist import Circuit

CROSS = "cross"
OVERLAP = "overlap"

# Cap on the entries of the (vectors x segments x segments) box-test matrix
# in one block of _count_in_blocks: 32 biquad vectors (56 segments) at any
# number of frequencies. In-process GA runs (biquad, population 128,
# 1 generation, n = 2; 2-core x86 VM, numpy 2.4.6) took about as long with
# blocks of 24 to 64 vectors and 15-20% longer with 16; a run's tracemalloc
# peak grows with the block: 0.65, 0.87, 1.12 and 1.99 MiB at 16, 24, 32
# and 64.
_BOX_ENTRIES = 32 * 56 * 56


@dataclass(frozen=True)
class TestVector:
    """Ordered list of positive test frequencies (rad/s); the GA phenotype."""

    frequencies: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
        if not self.frequencies:
            raise ValueError("test vector needs at least one frequency")
        if not all(0.0 < f < math.inf for f in self.frequencies):
            raise ValueError("test frequencies must be positive and finite")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One component's signature points, ascending in deviation through 0.

    ``deviations`` (P,) and ``points`` (P, n) are read-only float copies of
    the inputs; row k of ``points`` is the signature at ``deviations[k]``.
    Two trajectories are equal only when they are the same object.
    """

    component: str
    deviations: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        devs = np.array(self.deviations, dtype=float)
        points = np.array(self.points, dtype=float)
        if devs.ndim != 1 or len(devs) < 2:
            raise ValueError("trajectory needs at least two points")
        if points.ndim != 2 or len(points) != len(devs):
            raise ValueError("trajectory needs one point row per deviation")
        if np.any(devs[1:] <= devs[:-1]):
            raise ValueError("trajectory deviations must strictly increase")
        at_zero = devs == 0.0
        if np.count_nonzero(at_zero) != 1 or np.any(points[at_zero] != 0.0):
            raise ValueError("trajectory must contain exactly the origin at deviation 0")
        if not (np.isfinite(devs).all() and np.isfinite(points).all()):
            raise ValueError(f"trajectory {self.component}: non-finite deviation or coordinate")
        devs.flags.writeable = points.flags.writeable = False
        object.__setattr__(self, "deviations", devs)
        object.__setattr__(self, "points", points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class IncidenceRecord:
    component_a: str
    segment_a: int
    component_b: str
    segment_b: int
    kind: str
    point: tuple[float, ...]


def signature(golden_mags, faulty_mags) -> tuple[float, ...]:
    """Componentwise faulty-minus-golden dB differences."""
    if len(golden_mags) != len(faulty_mags):
        raise ValueError(
            f"magnitude lists differ in length: {len(golden_mags)} vs {len(faulty_mags)}"
        )
    return tuple(float(f) - float(g) for g, f in zip(golden_mags, faulty_mags))


def _signature_stack(mags, targets: int, n_below: int, n: int) -> np.ndarray:
    """Trajectory points of B test vectors from one ensemble solve.

    ``mags`` holds the ensemble magnitudes at the B vectors' frequencies
    side by side, shape (1 + faults, B * n), with the faults of each of
    ``targets`` targets ascending in deviation, ``n_below`` of them
    negative. Returns (B, targets, deviations + 1, n) golden-relative
    coordinates, ascending in deviation with the origin inserted at
    deviation 0.
    """
    diffs = (mags[1:] - mags[0]).reshape(targets, -1, mags.shape[1] // n, n)
    diffs = diffs.transpose(2, 0, 1, 3)
    stack = np.zeros(diffs.shape[:2] + (diffs.shape[2] + 1, n))
    stack[:, :, :n_below] = diffs[:, :, :n_below]
    stack[:, :, n_below + 1 :] = diffs[:, :, n_below:]
    return stack


def build_trajectories(
    circuit: Circuit, config: FaultConfig, tv: TestVector
) -> list[Trajectory]:
    """One trajectory per fault target, sampled at the test frequencies."""
    mags = ensemble_for(circuit, config).magnitudes(np.asarray(tv.frequencies))
    stack = _signature_stack(mags, len(config.targets), config.n_below, len(tv.frequencies))[0]
    grid = sorted(config.deviations() + (0.0,))
    return [
        Trajectory(component, grid, points)
        for component, points in zip(config.targets, stack)
    ]


def _dot(x, y):
    """Sum of ``x * y`` over the last axis.

    Up to two terms it is ``x0 * y0 + x1 * y1``, bit for bit what
    ``np.einsum`` gives, at a third of its cost. From three terms on einsum
    stays: its order depends on memory layout ((x0 y0 + x2 y2) + x1 y1 on
    the C-order rows passed here), and the einsum-based reference in
    ``tests/oracle_utils.py`` gives the same points only in that order; a
    left-to-right sum moves ill-conditioned 3-D crossings by up to 2e-10.
    """
    if x.shape[-1] > 2:
        return np.einsum("...n,...n->...", x, y)
    total = x[..., 0] * y[..., 0]
    if x.shape[-1] == 2:
        total += x[..., 1] * y[..., 1]
    return total


def _cross2(x, y):
    return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]


def _ratio(num, den):
    """``num / den`` where ``den > 0``, else 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _segment_layout(segments, origins):
    """Each segment's trajectory and whether it ends at its origin point.

    ``segments`` gives each trajectory's segment count and ``origins`` the
    index of its origin point, the row at deviation 0; segments are
    numbered trajectory by trajectory. Returns (S,) arrays ``(owner,
    at_origin)``: the trajectory of each of the S segments, and whether
    one of its endpoints is its trajectory's origin point.
    """
    owner = np.repeat(np.arange(len(segments)), segments)
    local = np.concatenate([np.arange(k) for k in segments])
    origin_of = np.repeat(origins, segments)
    return owner, (local == origin_of - 1) | (local == origin_of)


def _boxes_touch(p0, p1, owner, tol):
    """(B, S, S) mask: is ``i < j`` a cross-trajectory pair whose 2 tol-grown
    boxes touch on every axis?

    ``p0, p1``: (B, S, n) segment endpoints; ``owner``: each segment's
    trajectory. A pair closer than ``tol`` has axis-aligned boxes closer
    than ``tol`` on every axis, so it passes: the test is ``lo <= hi + 2 *
    tol`` both ways, with the sum rounded. That stays conservative: ``lo``
    is a float and rounding is monotone, so ``lo - hi < 2 * tol`` exactly
    gives a rounded sum of at least ``lo``. The comparison must not be
    strict, since at a tiny ``tol`` the sum rounds to ``hi`` and boxes that
    touch exactly would be dropped. The matrix is filled axis by axis, with
    no float temporary of its size; only the pairs of segments ``i < j`` of
    different trajectories stay set, each pair once.
    """
    # axis-major (n, B, S) box bounds; reach is the upper bound grown by 2 tol
    box_lo = np.moveaxis(np.minimum(p0, p1), -1, 0).copy()
    box_reach = np.moveaxis(np.maximum(p0, p1) + 2.0 * tol, -1, 0).copy()
    close = np.less_equal(box_lo[0, :, :, None], box_reach[0, :, None, :])
    axis = np.empty_like(close)
    for lo_k, reach_k in zip(box_lo[1:], box_reach[1:]):
        close &= np.less_equal(lo_k[:, :, None], reach_k[:, None, :], out=axis)
    # both ways and cross-trajectory, with no third matrix-sized temporary
    np.copyto(axis, close.transpose(0, 2, 1))
    close &= axis
    close &= np.less(owner[:, None], owner[None, :], out=axis[0])
    return close


def _incidences(p0, p1, layout, tol, origin_tol=None):
    """Incident segment pairs of a batch of segment sets, all in numpy.

    ``p0, p1``: (B, S, n) segment endpoints; ``layout``: the ``(owner,
    at_origin)`` arrays of :func:`_segment_layout`. The pairs tested are
    the segments ``i < j`` of different trajectories. A pair is incident
    when its clamped closest-point distance is below ``tol``. Parallel
    pairs with a positive common length are overlaps (point: middle of the
    common part); the rest are crosses (point: an endpoint the two share,
    else the exact 2-D crossing, else midway between the closest points).
    With ``origin_tol`` set, contacts lying wholly within ``origin_tol`` of
    the golden point, the zero vector, are dropped.

    A broad phase runs first: only the pairs set in :func:`_boxes_touch`'s
    matrix go on, read as ``divmod`` of their flat positions by S * S and
    S, and the matrix is freed before the closest-point test allocates its
    rows. With ``origin_tol`` set, a survivor whose segments both end at
    the exact zero point that does not overlap meets only there, where the
    origin rule drops it; so such a pair goes on only if it could be
    parallel, by a bound 1000 times looser than the closest-point test's
    own. The closest-point test then runs on point-major (K, n) rows of the
    survivors, gathered from the flattened (B * S, n) endpoints, with the
    same arithmetic as a pass over all pairs.

    Returns ``(batch, i, j, overlap, point)`` of the kept incidences in
    (batch, i, j) order; ``overlap`` is False for a cross.
    """
    owner, at_origin = layout
    size = p0.shape[1]
    batch, pair = np.divmod(np.flatnonzero(_boxes_touch(p0, p1, owner, tol)), size * size)
    i, j = np.divmod(pair, size)
    # the survivors' rows in the flattened (B * S, n) endpoints
    row_i, row_j = batch * size + i, batch * size + j
    p0, p1 = p0.reshape(-1, p0.shape[-1]), p1.reshape(-1, p1.shape[-1])
    step = p1 - p0
    if origin_tol is not None:
        shared = np.flatnonzero(at_origin[i] & at_origin[j])
        u, v = step.take(row_i[shared], axis=0), step.take(row_j[shared], axis=0)
        uu, vv, uv = _dot(u, u), _dot(v, v), _dot(u, v)
        parallel = uu * vv - uv * uv <= 1e-9 * uu * vv
        near = np.ones(len(batch), dtype=bool)
        near[shared] = (uu > 0.0) & (vv > 0.0) & parallel
        rows = np.flatnonzero(near)
        batch, i, j, row_i, row_j = (x.take(rows) for x in (batch, i, j, row_i, row_j))

    a0, b0 = p0.take(row_i, axis=0), p0.take(row_j, axis=0)
    u, v = step.take(row_i, axis=0), step.take(row_j, axis=0)
    uu, vv = _dot(u, u), _dot(v, v)
    r = a0 - b0
    uv, ur, vr = _dot(u, v), _dot(u, r), _dot(v, r)
    denom = uu * vv - uv * uv
    s = np.clip(_ratio(uv * vr - ur * vv, denom), 0.0, 1.0)
    t = _ratio(uv * s + vr, vv)
    # a zero-length second segment is a point: project it onto the first
    edge = (t < 0.0) | (t > 1.0) | (vv <= 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    s = np.where(edge, np.clip(_ratio(uv * t - ur, uu), 0.0, 1.0), s)
    diff = r + s[:, None] * u - t[:, None] * v
    hit = np.sqrt(_dot(diff, diff)) < tol

    # one index for the 14 gathers: a boolean mask would be scanned for each
    rows = np.flatnonzero(hit)
    survivors = (batch, i, j, row_i, row_j, a0, b0, u, v, uu, vv, s, t, denom)
    batch, i, j, row_i, row_j, a0, b0, u, v, uu, vv, s, t, denom = (
        x.take(rows, axis=0) for x in survivors
    )
    a1, b1 = p1.take(row_i, axis=0), p1.take(row_j, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lo_b = _dot(b0 - a0, u) / uu
        hi_b = _dot(b1 - a0, u) / uu
        lo = np.maximum(0.0, np.minimum(lo_b, hi_b))
        hi = np.minimum(1.0, np.maximum(lo_b, hi_b))
        overlap = (uu > 0.0) & (vv > 0.0) & (denom <= 1e-12 * uu * vv) & (hi > lo)

        point = 0.5 * ((a0 + s[:, None] * u) + (b0 + t[:, None] * v))
        if a0.shape[-1] == 2:
            w0 = b0 - a0
            uxv = _cross2(u, v)
            proper = (
                (_cross2(u, w0) * _cross2(u, b1 - a0) < 0.0)
                & (_cross2(v, a0 - b0) * _cross2(v, a1 - b0) < 0.0)
                & (uxv != 0.0)
            )
            crossing = a0 + (_cross2(w0, v) / uxv)[:, None] * u
            point = np.where(proper[:, None], crossing, point)
        # a pair that shares an endpoint and does not overlap meets there only
        for x, y in ((a0, b0), (a0, b1), (a1, b0), (a1, b1)):
            point = np.where((x == y).all(axis=1)[:, None], x, point)
        lo_end = np.where(overlap[:, None], a0 + lo[:, None] * u, point)
        hi_end = np.where(overlap[:, None], a0 + hi[:, None] * u, point)
        mid = a0 + (0.5 * (lo + hi))[:, None] * u
    point = np.where(overlap[:, None], mid, point)

    keep = slice(None)
    if origin_tol is not None:
        reach = np.maximum(*(np.sqrt(_dot(e, e)) for e in (lo_end, hi_end)))
        keep = reach > origin_tol
    return batch[keep], i[keep], j[keep], overlap[keep], point[keep]


def _check_tolerances(**tolerances) -> None:
    """Raise ``ValueError`` unless every given tolerance is positive and finite."""
    for name, value in tolerances.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _origin_tol(tol: float, origin_tol: float | None) -> float:
    """``origin_tol``, ``tol`` when None, once both are checked."""
    origin_tol = tol if origin_tol is None else origin_tol
    _check_tolerances(tol=tol, origin_tol=origin_tol)
    return origin_tol


def segment_incidence(a0, a1, b0, b1, tol: float):
    """Classify the incidence between two bare segments.

    Returns ``None`` when their minimum distance is at least ``tol``,
    otherwise ``(kind, representative point)`` with kind ``cross`` or
    ``overlap``. This is the per-pair predicate behind
    :func:`count_intersections` (which additionally applies the
    origin-exclusion rule).
    """
    _check_tolerances(tol=tol)
    p0 = np.asarray([[a0, b0]], dtype=float)
    p1 = np.asarray([[a1, b1]], dtype=float)
    # two one-segment trajectories
    _, _, _, overlap, point = _incidences(p0, p1, _segment_layout((1, 1), (0, 0)), tol)
    if not len(point):
        return None
    return (OVERLAP if overlap[0] else CROSS), tuple(point[0].tolist())


def count_intersections(trajectories, tol: float = 1e-6, origin_tol: float | None = None):
    """Count incidences between segments of distinct trajectories.

    Returns ``(I, records)``. ``tol`` is the incidence distance threshold;
    ``origin_tol`` (default: ``tol``) is the radius of the exclusion ball
    around the golden point, the zero vector every trajectory passes
    through, inside which contacts are expected and not counted.
    """
    origin_tol = _origin_tol(tol, origin_tol)
    trajectories = list(trajectories)
    if len(trajectories) < 2:
        return 0, []
    dims = {t.dimension for t in trajectories}
    if len(dims) != 1:
        raise ValueError(f"trajectories have mixed dimensions: {sorted(dims)}")

    points = [traj.points for traj in trajectories]
    p0 = np.concatenate([pts[:-1] for pts in points])
    p1 = np.concatenate([pts[1:] for pts in points])
    segments = tuple(len(pts) - 1 for pts in points)
    seg_of = np.concatenate([np.arange(k) for k in segments])
    origins = tuple(int(np.flatnonzero(t.deviations == 0.0)[0]) for t in trajectories)
    layout = _segment_layout(segments, origins)
    _, first, second, overlap, point = _incidences(p0[None], p1[None], layout, tol, origin_tol)
    owner = layout[0]
    names = [traj.component for traj in trajectories]
    records = [
        IncidenceRecord(
            names[owner[i]], int(seg_of[i]), names[owner[j]], int(seg_of[j]),
            OVERLAP if is_overlap else CROSS, tuple(rep),
        )
        for i, j, is_overlap, rep in zip(first, second, overlap.tolist(), point.tolist())
    ]
    return len(records), records


def _count_in_blocks(magnitudes, omegas, config: FaultConfig, tol, origin_tol) -> np.ndarray:
    """Intersection counts of the rows of ``omegas`` (vectors, n), in blocks.

    Each block of B vectors is one call ``magnitudes(frequencies)``, which
    returns the ensemble's (1 + faults, B * n) dB array at the block's
    frequencies taken row by row, then one incidence pass. A block's
    box-test matrices hold at most ``_BOX_ENTRIES`` entries (one vector at
    least). The tolerances must be checked already.
    """
    n = omegas.shape[1]
    targets, segments, n_below = len(config.targets), len(config.deviations()), config.n_below
    layout = _segment_layout((segments,) * targets, (n_below,) * targets)
    step = max(1, _BOX_ENTRIES // (targets * segments) ** 2)
    counts = []
    for start in range(0, len(omegas), step):
        block = omegas[start : start + step]
        stack = _signature_stack(magnitudes(block.ravel()), targets, n_below, n)
        p0 = stack[:, :, :-1].reshape(len(block), -1, n)
        p1 = stack[:, :, 1:].reshape(len(block), -1, n)
        hits = _incidences(p0, p1, layout, tol, origin_tol)[0]
        counts.append(np.bincount(hits, minlength=len(block)))
    return np.concatenate(counts)


def write_trajectories_csv(path, trajectories) -> None:
    """``component,deviation,x1,...,xn`` rows, one per signature point."""
    trajectories = list(trajectories)
    n = trajectories[0].dimension if trajectories else 0
    header = "component,deviation," + ",".join(f"x{i + 1}" for i in range(n))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for traj in trajectories:
            for deviation, coords in zip(traj.deviations.tolist(), traj.points.tolist()):
                coords = ",".join(f"{c:.17g}" for c in coords)
                fh.write(f"{traj.component},{deviation:.17g},{coords}\n")


def read_trajectories_csv(path) -> list[Trajectory]:
    """Inverse of :func:`write_trajectories_csv`; every row must have as
    many fields as the header."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: no trajectory data")
    width = len(lines[0].split(","))
    if width < 2:
        raise ValueError(f"{path}: the header needs component and deviation columns")
    grouped: dict[str, list[list[float]]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"{path}: a row has {len(fields)} fields, the header has {width}")
        grouped.setdefault(fields[0], []).append([float(x) for x in fields[1:]])
    return [
        Trajectory(component, [row[0] for row in rows], [row[1:] for row in rows])
        for component, rows in grouped.items()
    ]
