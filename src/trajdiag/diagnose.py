"""Classify an unknown signature point against known fault trajectories.

Rule: a trajectory's candidate segments are those admitting a true
perpendicular drop from the query (orthogonal projection lands inside
the segment). The best candidate per trajectory yields one ranked
hypothesis; a trajectory with no perpendicular-admitting segment falls
back to its nearest segment endpoint, flagged ``via_perpendicular =
False``. Feet landing on the shared origin point are never candidates,
and a query within the origin ball is reported as nominal. A segment of
zero length (a repeated point) is skipped; the repeated point is still
reached as the end of a neighbouring segment that has length, if the
trajectory has one. A trajectory with no segment of nonzero length (a
component with no effect at the test frequencies, all of whose points
are the origin), or whose every candidate foot lies in the origin ball,
contributes no hypothesis. The deviation estimate interpolates the
matched segment's endpoint deviations; it is an extension beyond
component identification and is labelled as such in reports.

:func:`classify` projects the query onto every segment of every
trajectory in one numpy pass. The segment arrays it reads are built
once per trajectory set and kept for the last few sets, so a loop of
queries against one set does not rebuild them; no per-segment
projection is part of the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trajectory import _check_tolerances, _dot


@dataclass(frozen=True)
class Hypothesis:
    component: str
    distance: float
    estimated_deviation: float
    segment_index: int
    via_perpendicular: bool


@dataclass(frozen=True)
class DiagnosisResult:
    hypotheses: tuple[Hypothesis, ...]
    ambiguous: bool
    nominal: bool = False


# trajectory sets whose segment layout is kept; a loop of queries uses one
_LAYOUTS = 4


@lru_cache(maxsize=_LAYOUTS)
def _layout(trajectories: tuple) -> tuple:
    """Every segment of nonzero length of a trajectory set, in one array each.

    Returns the component names, the dimension and, per segment, its
    start point, step, squared length, trajectory (``owner``), index in
    that trajectory, deviation at its start and deviation span along it,
    ordered by trajectory and then by index. A ``Trajectory`` is
    immutable and equal only to itself, so the tuple is a safe key.
    """
    if not trajectories:
        raise ValueError("no trajectories to classify against")
    dims = {t.dimension for t in trajectories}
    if len(dims) != 1:
        raise ValueError("trajectories have mixed dimensions")
    # every segment of every trajectory, in one array: segment k of the
    # concatenation runs from point k to point k + 1, except across the
    # end of a trajectory; zero-length segments are repeated points
    sizes = np.array([len(t.deviations) for t in trajectories])
    ends = np.cumsum(sizes) - 1
    points = np.concatenate([t.points for t in trajectories])
    steps = np.diff(points, axis=0)
    length_sq = _dot(steps, steps)
    segment = length_sq != 0.0
    segment[ends[:-1]] = False
    start = np.flatnonzero(segment)
    owner = np.searchsorted(ends, start)
    deviations = np.concatenate([t.deviations for t in trajectories])
    low = deviations[start]
    arrays = (
        points[start],
        steps[start],
        length_sq[start],
        owner,
        start - (ends - sizes + 1)[owner],
        low,
        deviations[start + 1] - low,
    )
    for array in arrays:  # every later call reads the same arrays
        array.flags.writeable = False
    return (tuple(t.component for t in trajectories), dims.pop(), *arrays)


def classify(
    point,
    trajectories,
    ambiguity_margin: float = 0.05,
    origin_tol: float = 1e-6,
) -> DiagnosisResult:
    """Rank components by distance from the query to their trajectories.

    Raises ``ValueError`` for no trajectories, mixed dimensions, a query
    of the wrong dimension or with a non-finite coordinate, an
    ``origin_tol`` that is not positive and finite, or an
    ``ambiguity_margin`` that is not finite and non-negative.
    """
    _check_tolerances(origin_tol=origin_tol)
    if not 0.0 <= ambiguity_margin < np.inf:
        raise ValueError(
            f"ambiguity_margin must be finite and non-negative, got {ambiguity_margin}"
        )
    components, n, a, d, length_sq, owner, index, low, span = _layout(tuple(trajectories))
    query = np.asarray(point, dtype=float)
    if query.shape != (n,):
        raise ValueError(
            f"query dimension {query.shape} does not match trajectories ({n})"
        )
    if not np.isfinite(query).all():
        raise ValueError("query has a non-finite coordinate")
    if float(np.sqrt(query @ query)) <= origin_tol:
        return DiagnosisResult((), ambiguous=False, nominal=True)

    # a scalar projection's order of operations, ((q - a).d) / (d.d): t_raw is
    # exactly 0 or 1 when the query is one of the segment's ends
    t_raw = _dot(query - a, d) / length_sq
    t = np.clip(t_raw, 0.0, 1.0)
    foot = a + t[:, None] * d
    gap = query - foot
    distance = np.sqrt(_dot(gap, gap))
    perpendicular = (0.0 <= t_raw) & (t_raw <= 1.0)
    # the shared golden point is not evidence
    kept = np.flatnonzero(np.sqrt(_dot(foot, foot)) > origin_tol)

    # per trajectory: perpendicular candidates first, then by distance and
    # segment; the first of each trajectory is its hypothesis
    order = kept[np.lexsort((kept, distance[kept], ~perpendicular[kept], owner[kept]))]
    first = np.ones(len(order), dtype=bool)
    first[1:] = owner[order[1:]] != owner[order[:-1]]
    best = order[first]
    estimate = low[best] + t[best] * span[best]
    hypotheses = [
        Hypothesis(components[k], dist, est, i, flag)
        for k, dist, est, i, flag in zip(
            owner[best].tolist(),
            distance[best].tolist(),
            estimate.tolist(),
            index[best].tolist(),
            perpendicular[best].tolist(),
        )
    ]
    hypotheses.sort(key=lambda h: (h.distance, h.component))
    ambiguous = (
        len(hypotheses) >= 2
        and hypotheses[1].distance - hypotheses[0].distance < ambiguity_margin
    )
    return DiagnosisResult(tuple(hypotheses), ambiguous=ambiguous)


def format_report(result: DiagnosisResult) -> str:
    """Human-readable ranking. Deviation estimates are interpolated."""
    if result.nominal:
        return "nominal / no fault: query lies at the golden point\n"
    lines = ["rank  component  distance_db  est_deviation  via_perpendicular"]
    for rank, h in enumerate(result.hypotheses, start=1):
        lines.append(
            f"{rank:<5d} {h.component:<10s} {h.distance:<12.6g} "
            f"{h.estimated_deviation:<+13.4f} {'yes' if h.via_perpendicular else 'no'}"
        )
    if result.ambiguous:
        lines.append("warning: top hypotheses are within the ambiguity margin")
    lines.append("note: est_deviation interpolates the matched segment endpoints")
    return "\n".join(lines) + "\n"


def write_diagnosis_csv(path, result: DiagnosisResult) -> None:
    """``rank,component,distance_db,est_deviation,via_perpendicular`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,component,distance_db,est_deviation,via_perpendicular\n")
        for rank, h in enumerate(result.hypotheses, start=1):
            fh.write(
                f"{rank},{h.component},{h.distance:.17g},"
                f"{h.estimated_deviation:.17g},{h.via_perpendicular}\n"
            )
