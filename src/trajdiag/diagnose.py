"""Classify an unknown signature point against known fault trajectories.

Rule: a trajectory's candidate segments are those admitting a true
perpendicular drop from the query (orthogonal projection lands inside
the segment). The best candidate per trajectory yields one ranked
hypothesis; a trajectory with no perpendicular-admitting segment falls
back to its nearest segment endpoint, flagged ``via_perpendicular =
False``. Feet landing on the shared origin point are never candidates,
and a query within the origin ball is reported as nominal. A segment of
zero length (a repeated point, as when a component has no effect at the
test frequencies) is skipped; its point is also the end of a segment
that has length, so no candidate is lost. The deviation estimate
interpolates the matched segment's endpoint deviations; it is an
extension beyond component identification and is labelled as such in
reports.

:func:`classify` projects the query onto every segment of every
trajectory in one numpy pass over arrays it builds per call; no
per-segment projection is part of the API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import _dot


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


def classify(
    point,
    trajectories,
    ambiguity_margin: float = 0.05,
    origin_tol: float = 1e-6,
) -> DiagnosisResult:
    """Rank components by distance from the query to their trajectories.

    Raises ``ValueError`` for no trajectories, mixed dimensions, or a query
    of the wrong dimension or with a non-finite coordinate.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("no trajectories to classify against")
    dims = {t.dimension for t in trajectories}
    if len(dims) != 1:
        raise ValueError("trajectories have mixed dimensions")
    n = dims.pop()
    query = np.asarray(point, dtype=float)
    if query.shape != (n,):
        raise ValueError(
            f"query dimension {query.shape} does not match trajectories ({n})"
        )
    if not np.isfinite(query).all():
        raise ValueError("query has a non-finite coordinate")
    if float(np.sqrt(query @ query)) <= origin_tol:
        return DiagnosisResult((), ambiguous=False, nominal=True)

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
    a, d, length_sq = points[start], steps[start], length_sq[start]

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
    order = kept[np.lexsort((start[kept], distance[kept], ~perpendicular[kept], owner[kept]))]
    first = np.ones(len(order), dtype=bool)
    first[1:] = owner[order[1:]] != owner[order[:-1]]
    best = order[first]
    deviations = np.concatenate([t.deviations for t in trajectories])
    low, high = deviations[start[best]], deviations[start[best] + 1]
    estimate = low + t[best] * (high - low)
    index = start[best] - (ends - sizes + 1)[owner[best]]
    hypotheses = [
        Hypothesis(trajectories[k].component, dist, est, i, flag)
        for k, dist, est, i, flag in zip(
            owner[best].tolist(),
            distance[best].tolist(),
            estimate.tolist(),
            index.tolist(),
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
