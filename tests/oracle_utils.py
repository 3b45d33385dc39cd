"""Brute-force oracles shared by the trajectory, fault and acceptance tests.

The geometry oracle decides segment incidence by dense parametric
sampling: 10^4 points on each segment, each checked against the other
segment with a distance threshold. It was written before (and
independently of) the closed-form predicate it cross-checks. The
count-only entry point runs the GA's scoring loop on the ensemble's solve,
the batch form of the kernel that the scalar reference checks. The solve
reference computes each fault variant's gains from its own stamped
matrices, one dense LU per circuit and frequency. The dictionary writer
reference writes ``dictionary.csv`` one value at a time, from the
``golden`` and ``entries`` curves. The classifier reference ranks a query
with one scalar ``project`` call per trajectory segment.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from trajdiag.diagnose import DiagnosisResult, Hypothesis
from trajdiag.netlist import deviation_target

SAMPLES = 10_000


def _point_to_segment(points, s0, s1):
    d = s1 - s0
    length_sq = float(d @ d)
    if length_sq == 0.0:
        return np.sqrt(((points - s0) ** 2).sum(axis=1))
    t = np.clip(((points - s0) @ d) / length_sq, 0.0, 1.0)
    feet = s0 + t[:, None] * d
    return np.sqrt(((points - feet) ** 2).sum(axis=1))


def sampled_gap(a0, a1, b0, b1, samples=SAMPLES):
    """Minimum distance between two segments by dense sampling."""
    ts = np.linspace(0.0, 1.0, samples)[:, None]
    on_a = a0 + ts * (a1 - a0)
    on_b = b0 + ts * (b1 - b0)
    return min(
        _point_to_segment(on_a, b0, b1).min(),
        _point_to_segment(on_b, a0, a1).min(),
    )


def random_segment_pairs(rng, count, tol, guard=(0.1, 10.0)):
    """Yield ``count`` instances outside the tolerance guard band.

    Mixes uniform random pairs with constructed collinear overlaps,
    shared endpoints and near-parallel offsets so both predicate branches
    get exercised. Each instance is ``(a0, a1, b0, b1, oracle_gap)``.
    """
    lo, hi = guard[0] * tol, guard[1] * tol
    produced = 0
    family = 0
    while produced < count:
        family = (family + 1) % 8
        if family < 5:
            pts = rng.uniform(-1.0, 1.0, (4, 2))
            a0, a1, b0, b1 = pts
        elif family == 5:
            # collinear overlap on a random line
            origin = rng.uniform(-1.0, 1.0, 2)
            direction = rng.normal(size=2)
            direction /= np.sqrt(direction @ direction)
            t = np.sort(rng.uniform(-1.0, 1.0, 4))
            a0, a1 = origin + t[0] * direction, origin + t[2] * direction
            b0, b1 = origin + t[1] * direction, origin + t[3] * direction
        elif family == 6:
            # shared endpoint
            shared = rng.uniform(-1.0, 1.0, 2)
            a0, b0 = shared.copy(), shared.copy()
            a1, b1 = rng.uniform(-1.0, 1.0, (2, 2))
        else:
            # parallel pair offset by far more or far less than tol
            a0 = rng.uniform(-1.0, 1.0, 2)
            direction = rng.normal(size=2)
            direction /= np.sqrt(direction @ direction)
            normal = np.array([-direction[1], direction[0]])
            offset = tol * (0.01 if rng.random() < 0.5 else 100.0)
            a1 = a0 + rng.uniform(0.5, 1.5) * direction
            b0 = a0 + offset * normal + rng.uniform(-0.3, 0.3) * direction
            b1 = b0 + rng.uniform(0.5, 1.5) * direction
        gap = sampled_gap(a0, a1, b0, b1)
        if lo <= gap <= hi:
            continue
        produced += 1
        yield a0, a1, b0, b1, gap


# ------------------------------------------------- scalar incidence reference
#
# The counter the package's vectorized kernel replaced: closed-form gaps
# for all segment pairs at once, then every incident pair classified one
# at a time in plain Python floats. Kept as the slow reference.


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _sub(x, y):
    return [a - b for a, b in zip(x, y)]


def _axpy(alpha, x, y):
    """``y + alpha * x``."""
    return [b + alpha * a for a, b in zip(x, y)]


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def segment_gaps(p0, p1, q0, q1):
    """Pairwise minimum distances between two segment families.

    ``p0, p1``: (Sa, n) endpoints; ``q0, q1``: (Sb, n). Returns
    ``(gap, s, t)`` of shape (Sa, Sb) with the clamped closest-point
    parameters on each segment. A zero-length segment is a point.
    """
    u = p1 - p0
    v = q1 - q0
    r = p0[:, None, :] - q0[None, :, :]
    a = np.einsum("in,in->i", u, u)[:, None]
    e = np.einsum("jn,jn->j", v, v)[None, :]
    b = np.einsum("in,jn->ij", u, v)
    c = np.einsum("in,ijn->ij", u, r)
    f = np.einsum("jn,ijn->ij", v, r)

    denom = a * e - b * b
    shape = np.broadcast_shapes(denom.shape, c.shape)
    s = np.zeros(shape)
    np.divide(b * f - c * e, denom, out=s, where=denom > 0.0)
    np.clip(s, 0.0, 1.0, out=s)

    t = np.zeros(shape)
    np.divide(b * s + f, np.broadcast_to(e, shape), out=t, where=e > 0.0)
    clamped = (t < 0.0) | (t > 1.0) | (e <= 0.0)
    np.clip(t, 0.0, 1.0, out=t)

    s_edge = np.zeros(shape)
    np.divide(b * t - c, np.broadcast_to(a, shape), out=s_edge, where=a > 0.0)
    np.clip(s_edge, 0.0, 1.0, out=s_edge)
    s = np.where(clamped, s_edge, s)

    diff = r + s[..., None] * u[:, None, :] - t[..., None] * v[None, :, :]
    gap = np.sqrt(np.einsum("ijn,ijn->ij", diff, diff))
    return gap, s, t


def classify_incidence(a0, a1, b0, b1, s, t):
    """Classify one incident segment pair.

    Returns ``(kind, representative point, extreme points)`` where the
    extreme points bound the contact region (a single point for a cross,
    the overlap ends for a parallel overlap).
    """
    u = _sub(a1, a0)
    v = _sub(b1, b0)
    uu, vv, uv = _dot(u, u), _dot(v, v), _dot(u, v)
    denom = uu * vv - uv * uv

    if uu > 0.0 and vv > 0.0 and denom <= 1e-12 * uu * vv:
        lo_b = _dot(_sub(b0, a0), u) / uu
        hi_b = _dot(_sub(b1, a0), u) / uu
        lo = max(0.0, min(lo_b, hi_b))
        hi = min(1.0, max(lo_b, hi_b))
        if hi > lo:
            rep = _axpy(0.5 * (lo + hi), u, a0)
            return "overlap", rep, (_axpy(lo, u, a0), _axpy(hi, u, a0))

    # a pair that shares an endpoint and does not overlap meets there only
    for x, y in ((a0, b0), (a0, b1), (a1, b0), (a1, b1)):
        if list(x) == list(y):
            return "cross", list(x), (list(x),)

    if len(a0) == 2:
        w0 = _sub(b0, a0)
        o1 = _cross2(u, w0)
        o2 = _cross2(u, _sub(b1, a0))
        o3 = _cross2(v, _sub(a0, b0))
        o4 = _cross2(v, _sub(a1, b0))
        uxv = _cross2(u, v)
        if o1 * o2 < 0.0 and o3 * o4 < 0.0 and uxv != 0.0:
            rep = _axpy(_cross2(w0, v) / uxv, u, a0)
            return "cross", rep, (rep,)

    rep = [0.5 * (p + q) for p, q in zip(_axpy(s, u, a0), _axpy(t, v, b0))]
    return "cross", rep, (rep,)


def reference_count(trajectories, tol):
    """``(I, records)`` like ``count_intersections(trajectories, tol)``.

    Records are ``(component_a, segment_a, component_b, segment_b, kind,
    point)`` tuples in the order the package emits them.
    """
    segments = []
    for traj in trajectories:
        points = traj.points.tolist()
        segments += [
            (traj.component, index, p, q) for index, (p, q) in enumerate(zip(points, points[1:]))
        ]
    if not segments:
        return 0, []
    p0 = np.asarray([seg[2] for seg in segments])
    p1 = np.asarray([seg[3] for seg in segments])
    gap, s, t = segment_gaps(p0, p1, p0, p1)
    records = []
    for i, j in zip(*np.nonzero(gap < tol)):
        (comp_a, seg_a, a0, a1), (comp_b, seg_b, b0, b1) = segments[i], segments[j]
        if i >= j or comp_a == comp_b:
            continue
        kind, rep, extremes = classify_incidence(
            a0, a1, b0, b1, float(s[i, j]), float(t[i, j])
        )
        if max(_dot(p, p) ** 0.5 for p in extremes) > tol:
            records.append((comp_a, seg_a, comp_b, seg_b, kind, tuple(rep)))
    return len(records), records


def intersection_counts(circuit, config, vectors, tol=1e-6, origin_tol=None):
    """Intersection count of each equal-length test vector, as an array.

    Count-only counterpart of ``build_trajectories`` followed by
    ``count_intersections``, with the same results: the GA's scoring loop,
    ``trajectory._count_in_blocks``, with the ensemble's solve as its
    magnitudes. The vectors go in blocks whose box-test matrices hold at
    most ``trajectory._BOX_ENTRIES`` entries (one vector at least); each
    block is one ensemble solve and one incidence pass, so memory does not
    grow with the number of vectors, and no count depends on the blocking.
    """
    from trajdiag.faultlib import ensemble_for
    from trajdiag.trajectory import _count_in_blocks, _origin_tol

    origin_tol = _origin_tol(tol, origin_tol)
    if not vectors:
        raise ValueError("need at least one test vector")
    n = len(vectors[0].frequencies)
    if any(len(tv.frequencies) != n for tv in vectors):
        raise ValueError("test vectors must all have the same number of frequencies")
    omegas = np.array([tv.frequencies for tv in vectors])
    magnitudes = ensemble_for(circuit, config).magnitudes
    return _count_in_blocks(magnitudes, omegas, config, tol, origin_tol)


def random_rlc_vcvs_netlist(rng) -> str:
    """Seeded ladder: random series R/C/L, shunt R (sometimes also C) at
    every node, and vcvs buffers between some sections."""
    def value():
        return f"{10.0 ** rng.uniform(-1.0, 1.0):.6g}"

    lines = [f"V1 n0 0 {value()}"]
    node = "n0"
    for k in range(1, int(rng.integers(3, 6)) + 1):
        nxt = f"n{k}"
        lines.append(f"{rng.choice(list('RCL'))}S{k} {node} {nxt} {value()}")
        lines.append(f"RP{k} {nxt} 0 {value()}")
        if rng.random() < 0.5:
            lines.append(f"CP{k} {nxt} 0 {value()}")
        node = nxt
        if k == 2 or rng.random() < 0.3:
            lines.append(f"E{k} b{k} 0 {node} 0 {rng.uniform(0.5, 3.0):.6g}")
            node = f"b{k}"
    lines += [".input V1", f".output {node}"]
    return "\n".join(lines) + "\n"


def reference_gains(circuit, specs, omegas):
    """Complex V(output)/V(source) of the golden circuit (row 0) and each
    fault in ``specs``: a direct LU per variant and frequency of that
    variant's own stamped MNA matrices ``G + jwC``, with no rank-one update."""
    from trajdiag.acsim import MnaSystem

    omegas = np.asarray(omegas, dtype=float)
    variants = [circuit] + [apply_deviation(circuit, spec) for spec in specs]
    outputs = np.empty((len(variants), len(omegas)), dtype=complex)
    for row, variant in enumerate(variants):
        system = MnaSystem(variant)
        matrices = system.g + 1j * omegas[:, None, None] * system.c
        # an explicit (frequencies, size, 1) stack: numpy 1.x reads a lower-rank
        # b against a stack of matrices as a stack of vectors
        sources = np.broadcast_to(system.rhs[:, :1], (len(omegas), system.size, 1))
        outputs[row] = np.linalg.solve(matrices, sources)[:, system.out_index, 0]
    return outputs


def apply_deviation(circuit, fault):
    """A copy of ``circuit`` with one passive value scaled by (1 + deviation).

    The input circuit is left untouched; faults are checked by
    ``netlist.deviation_target``.
    """
    element = deviation_target(circuit, fault)
    scaled = replace(element, value=element.value * (1.0 + fault.deviation))
    return replace(
        circuit,
        elements=tuple(scaled if e.id == element.id else e for e in circuit.elements),
    )


def reference_dictionary_csv(path, dictionary, frequencies=None):
    """``dictionary.csv`` written one value at a time from the curve views."""
    from trajdiag.faultlib import GOLDEN_LABEL

    freqs = (
        dictionary.golden.frequencies if frequencies is None else tuple(frequencies)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("component,deviation,freq,mag_db\n")
        for f, m in zip(freqs, dictionary.golden.magnitudes_db):
            fh.write(f"{GOLDEN_LABEL},0,{f:.17g},{m:.17g}\n")
        for spec, curve in dictionary.entries.items():
            for f, m in zip(freqs, curve.magnitudes_db):
                fh.write(
                    f"{spec.component},{spec.deviation:.17g},{f:.17g},{m:.17g}\n"
                )


class ProjectionResult(NamedTuple):
    t: float
    distance: float
    has_perpendicular: bool


def project(point, segment) -> ProjectionResult:
    """Orthogonal projection of ``point`` onto a segment.

    ``t`` is the clamped [0, 1] parameter of the projection foot;
    ``has_perpendicular`` tells whether the unclamped foot lies inside;
    ``distance`` is Euclidean distance to the clamped foot.
    """
    p = np.asarray(point, dtype=float)
    a = np.asarray(segment[0], dtype=float)
    b = np.asarray(segment[1], dtype=float)
    d = b - a
    length_sq = float(d @ d)
    if length_sq == 0.0:
        raise ValueError("zero-length segment")
    t_raw = float((p - a) @ d) / length_sq
    t = min(1.0, max(0.0, t_raw))
    foot = a + t * d
    distance = float(np.sqrt((p - foot) @ (p - foot)))
    return ProjectionResult(t, distance, 0.0 <= t_raw <= 1.0)


def reference_classify(point, trajectories, ambiguity_margin=0.05, origin_tol=1e-6):
    """``classify`` as a loop over each trajectory's segments, one
    ``project`` call each; the query is taken as valid."""
    query = np.asarray(point, dtype=float)
    if float(np.sqrt(query @ query)) <= origin_tol:
        return DiagnosisResult((), ambiguous=False, nominal=True)
    hypotheses = []
    for trajectory in trajectories:
        points, deviations = trajectory.points, trajectory.deviations.tolist()
        steps = np.diff(points, axis=0)
        perpendicular, fallback = [], []
        for index, length_sq in enumerate(np.einsum("ij,ij->i", steps, steps).tolist()):
            if length_sq == 0.0:
                continue  # a repeated point: its neighbouring segments end there
            a = points[index]
            result = project(query, (a, points[index + 1]))
            foot = a + result.t * steps[index]
            if float(np.sqrt(foot @ foot)) <= origin_tol:
                continue  # the shared golden point is not evidence
            start, end = deviations[index], deviations[index + 1]
            hypothesis = Hypothesis(
                trajectory.component,
                result.distance,
                start + result.t * (end - start),
                index,
                result.has_perpendicular,
            )
            (perpendicular if result.has_perpendicular else fallback).append(hypothesis)
        candidates = perpendicular or fallback
        if candidates:
            hypotheses.append(min(candidates, key=lambda h: (h.distance, h.segment_index)))
    hypotheses.sort(key=lambda h: (h.distance, h.component))
    ambiguous = (
        len(hypotheses) >= 2
        and hypotheses[1].distance - hypotheses[0].distance < ambiguity_margin
    )
    return DiagnosisResult(tuple(hypotheses), ambiguous=ambiguous)
