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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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
    """Rank components by distance from the query to their trajectories."""
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
    if float(np.sqrt(query @ query)) <= origin_tol:
        return DiagnosisResult((), ambiguous=False, nominal=True)

    hypotheses = []
    for trajectory in trajectories:
        points, deviations = trajectory.points, trajectory.deviations.tolist()
        steps = np.diff(points, axis=0)
        perpendicular: list[Hypothesis] = []
        fallback: list[Hypothesis] = []
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
            hypotheses.append(
                min(candidates, key=lambda h: (h.distance, h.segment_index))
            )

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
