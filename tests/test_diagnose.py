import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiag import diagnose
from trajdiag.diagnose import classify
from trajdiag.faultlib import FaultConfig, FaultSpec, evaluate_at
from trajdiag.netlist import parse_netlist
from trajdiag.trajectory import (
    TestVector,
    Trajectory,
    build_trajectories,
    count_intersections,
    signature,
)

from conftest import ORACLE_VECTOR
from oracle_utils import project, reference_classify


def make_trajectory(component, pts, devs=None):
    devs = devs or [0.1 * (i + 1) for i in range(len(pts))]
    return Trajectory(component, [0.0, *devs], [(0.0,) * len(pts[0]), *pts])


@pytest.fixture(scope="module")
def biquad_setup(biquad, biquad_faults):
    tv = TestVector(ORACLE_VECTOR)
    trajectories = build_trajectories(biquad, biquad_faults, tv)
    count, _ = count_intersections(trajectories, 1e-6)
    assert count == 0  # intersection-free vector, precondition for diagnosis
    golden = evaluate_at(biquad, None, tv.frequencies)
    return tv, trajectories, golden


# ---------------------------------------------------------------- project


def test_project_symmetric_drop():
    result = project((1.0, 1.0), ((0.0, 0.0), (2.0, 0.0)))
    assert result.t == pytest.approx(0.5)
    assert result.distance == pytest.approx(1.0)
    assert result.has_perpendicular


def test_project_beyond_end():
    result = project((3.0, 0.0), ((0.0, 0.0), (2.0, 0.0)))
    assert result.t == 1.0  # clamped
    assert result.distance == pytest.approx(1.0)
    assert not result.has_perpendicular


def test_project_point_on_segment():
    result = project((1.0, 0.0), ((0.0, 0.0), (2.0, 0.0)))
    assert result.distance == 0.0
    assert result.has_perpendicular


def test_project_zero_length_segment():
    with pytest.raises(ValueError, match="zero-length"):
        project((1.0, 1.0), ((2.0, 2.0), (2.0, 2.0)))


# ---------------------------------------------------------------- classify


def test_perpendicular_rule_prefers_nearer_trajectory():
    # two trajectories admitting one perpendicular each; the query is
    # nearer the first one's supporting segment
    n_type = make_trajectory("N", [(1.0, 0.0), (2.0, 0.0)])
    m_type = make_trajectory("M", [(0.0, 1.0), (0.0, 2.0)])
    result = classify((1.5, 0.8), [n_type, m_type])
    assert [h.component for h in result.hypotheses] == ["N", "M"]
    top = result.hypotheses[0]
    assert top.distance == pytest.approx(0.8)
    assert top.via_perpendicular
    assert top.segment_index == 1
    assert result.hypotheses[1].distance == pytest.approx(1.5)


def test_dictionary_point_classifies_to_itself(biquad, biquad_setup):
    tv, trajectories, golden = biquad_setup
    spec = FaultSpec("R4", 0.3)
    query = signature(golden, evaluate_at(biquad, spec, tv.frequencies))
    result = classify(query, trajectories)
    top = result.hypotheses[0]
    assert top.component == "R4"
    assert top.distance <= 1e-9
    assert abs(top.estimated_deviation - 0.3) <= 1e-6


def test_off_grid_round_trip(biquad, biquad_setup):
    tv, trajectories, golden = biquad_setup
    for component in ("R1", "R3", "C2"):
        spec = FaultSpec(component, 0.15)
        query = signature(golden, evaluate_at(biquad, spec, tv.frequencies))
        result = classify(query, trajectories)
        top = result.hypotheses[0]
        assert top.component == component
        assert 0.10 < top.estimated_deviation < 0.20
        assert top.via_perpendicular


def test_nominal_query(biquad_setup):
    _, trajectories, _ = biquad_setup
    result = classify((0.0, 0.0), trajectories)
    assert result.nominal
    assert result.hypotheses == ()
    result = classify((1e-9, -1e-9), trajectories)
    assert result.nominal


def test_every_trajectory_contributes_one_hypothesis(biquad_setup):
    _, trajectories, _ = biquad_setup
    result = classify((0.5, -0.25), trajectories)
    assert len(result.hypotheses) == 7
    assert len({h.component for h in result.hypotheses}) == 7
    distances = [h.distance for h in result.hypotheses]
    assert distances == sorted(distances)
    assert all(h.distance >= 0.0 for h in result.hypotheses)


def test_estimated_deviation_within_segment(biquad_setup):
    _, trajectories, _ = biquad_setup
    by_component = {t.component: t for t in trajectories}
    rng = np.random.default_rng(11)
    for _ in range(25):
        query = rng.normal(size=2) * rng.uniform(0.05, 3.0)
        for hypothesis in classify(query, trajectories).hypotheses:
            index = hypothesis.segment_index
            deviations = by_component[hypothesis.component].deviations
            low, high = sorted(deviations[index : index + 2])
            assert low <= hypothesis.estimated_deviation <= high


def test_top_hypothesis_is_candidate_set_minimum(biquad_setup):
    _, trajectories, _ = biquad_setup
    rng = np.random.default_rng(5)
    for _ in range(30):
        query = rng.normal(size=2) * rng.uniform(0.1, 3.0)
        result = classify(query, trajectories)
        best = None
        for trajectory in trajectories:
            perpendicular, fallback = [], []
            points = trajectory.points
            for start, end in zip(points[:-1], points[1:]):
                projection = project(query, (start, end))
                foot = start + projection.t * (end - start)
                if float(np.sqrt(foot @ foot)) <= 1e-6:
                    continue
                bucket = perpendicular if projection.has_perpendicular else fallback
                bucket.append(projection.distance)
            candidates = perpendicular or fallback
            if candidates:
                value = min(candidates)
                best = value if best is None else min(best, value)
        assert abs(result.hypotheses[0].distance - best) <= 1e-12


def test_monotone_degradation(biquad, biquad_setup):
    tv, trajectories, golden = biquad_setup
    rng = np.random.default_rng(17)
    for component, deviation in [("R1", 0.17), ("C2", -0.23), ("R4", 0.31)]:
        spec = FaultSpec(component, deviation)
        query = np.asarray(
            signature(golden, evaluate_at(biquad, spec, tv.frequencies))
        )
        base = classify(query, trajectories).hypotheses[0].distance
        for epsilon in (1e-4, 1e-3, 1e-2):
            for _ in range(10):
                direction = rng.normal(size=2)
                direction /= np.sqrt(direction @ direction)
                noisy = query + epsilon * direction
                top = classify(noisy, trajectories).hypotheses[0].distance
                assert top <= base + epsilon + 1e-12


def test_coordinate_swap_leaves_ranking(biquad, biquad_faults):
    forward = TestVector((0.25, 4.0))
    backward = TestVector((4.0, 0.25))
    t_forward = build_trajectories(biquad, biquad_faults, forward)
    t_backward = build_trajectories(biquad, biquad_faults, backward)
    golden_f = evaluate_at(biquad, None, forward.frequencies)
    golden_b = evaluate_at(biquad, None, backward.frequencies)
    for component, deviation in [("R2", 0.25), ("C1", -0.33)]:
        spec = FaultSpec(component, deviation)
        q_f = signature(golden_f, evaluate_at(biquad, spec, forward.frequencies))
        q_b = signature(golden_b, evaluate_at(biquad, spec, backward.frequencies))
        ranked_f = [h.component for h in classify(q_f, t_forward).hypotheses]
        ranked_b = [h.component for h in classify(q_b, t_backward).hypotheses]
        assert ranked_f == ranked_b


def test_ambiguity_flag():
    a = make_trajectory("A", [(1.0, 0.0), (2.0, 0.0)])
    b = make_trajectory("B", [(1.0, 0.1), (2.0, 0.1)])
    near_tie = classify((1.5, 0.05), [a, b], ambiguity_margin=0.05)
    assert near_tie.ambiguous
    clear = classify((1.5, -0.5), [a, b], ambiguity_margin=0.05)
    assert not clear.ambiguous
    assert clear.hypotheses[0].component == "A"


def test_endpoint_fallback_flagged():
    # query beyond the far end: no segment of A admits a perpendicular
    a = make_trajectory("A", [(1.0, 0.0)])
    result = classify((2.0, 0.5), [a])
    top = result.hypotheses[0]
    assert not top.via_perpendicular
    assert top.distance == pytest.approx(np.hypot(1.0, 0.5))
    assert top.estimated_deviation == pytest.approx(0.1)


def test_zero_length_segments_are_skipped():
    # A repeats its point at 0.2, so its segment 1 has no length; every
    # point of F sits at the origin, like a component with no effect on
    # the output
    a = make_trajectory("A", [(1.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    flat = Trajectory("F", [-0.1, 0.0, 0.1], [(0.0, 0.0)] * 3)
    result = classify((1.5, 0.5), [flat, a])
    assert [h.component for h in result.hypotheses] == ["A"]
    top = result.hypotheses[0]
    assert (top.segment_index, top.via_perpendicular) == (2, True)
    assert top.distance == pytest.approx(0.5)
    assert top.estimated_deviation == pytest.approx(0.25)
    # the repeated point is still reached as a neighbouring segment's end
    top = classify((1.0, 0.5), [a]).hypotheses[0]
    assert top.distance == pytest.approx(0.5)
    assert top.estimated_deviation == pytest.approx(0.1)


def test_component_of_no_effect_gives_no_hypothesis():
    # R9 is a self-loop, so every point of its trajectory is the origin and
    # no segment of it has length: it is left out of the ranking, and the
    # other trajectories rank as they do without it
    circuit = parse_netlist(
        "V1 in 0 1\nR1 in out 1\nR9 out out 5\nC1 out 0 1\n.input V1\n.output out\n"
    )
    tv = TestVector((0.5, 2.0))
    trajectories = build_trajectories(circuit, FaultConfig(circuit.passive_ids()), tv)
    assert [t.component for t in trajectories] == ["R1", "R9", "C1"]
    assert not trajectories[1].points.any()
    golden = evaluate_at(circuit, None, tv.frequencies)
    query = signature(golden, evaluate_at(circuit, FaultSpec("R1", 0.2), tv.frequencies))
    result = classify(query, trajectories)
    assert sorted(h.component for h in result.hypotheses) == ["C1", "R1"]
    assert result == classify(query, [trajectories[0], trajectories[2]])


def test_layout_is_reused_across_interleaved_sets(biquad_setup):
    _, trajectories, _ = biquad_setup
    other = [
        make_trajectory("A", [(1.0, 0.0), (1.0, 0.0), (2.0, 0.5)]),
        make_trajectory("B", [(0.0, 1.0), (-1.0, 2.0)]),
    ]
    rng = np.random.default_rng(23)
    queries = rng.normal(size=(10, 2)) * rng.uniform(0.05, 3.0, size=(10, 1))
    diagnose._layout.cache_clear()
    first = {}
    for _ in range(3):
        for query in queries:
            for key, case in enumerate((trajectories, other, tuple(trajectories))):
                result = classify(query, case)
                expected = reference_classify(query, case)
                assert [(h.component, h.segment_index, h.via_perpendicular)
                        for h in result.hypotheses] == [
                    (h.component, h.segment_index, h.via_perpendicular)
                    for h in expected.hypotheses
                ]
                for got, want in zip(result.hypotheses, expected.hypotheses):
                    assert abs(got.distance - want.distance) <= 1e-12
                    assert abs(got.estimated_deviation - want.estimated_deviation) <= 1e-12
                # a list and a tuple of the same trajectories are one set
                assert first.setdefault((tuple(query), key % 2), result) == result
    info = diagnose._layout.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.maxsize == diagnose._LAYOUTS <= 8  # a few sets, by a constant


def test_mixed_dimensions_raise_on_every_call_and_are_never_cached():
    mixed = [make_trajectory("A", [(1.0, 0.0)]), make_trajectory("B", [(1.0, 0.0, 0.0)])]
    diagnose._layout.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match=r"^trajectories have mixed dimensions: \[2, 3\]$"):
            classify((1.0, 1.0), mixed)
    assert diagnose._layout.cache_info().currsize == 0


def test_a_component_named_twice_raises_and_is_never_cached(biquad, biquad_setup):
    # a repeated R2 was ranked twice at distance 0, and the result flagged
    # ambiguous against itself
    tv, trajectories, golden = biquad_setup
    query = signature(golden, evaluate_at(biquad, FaultSpec("R2", -0.2), tv.frequencies))
    repeated = [*trajectories, trajectories[1]]
    diagnose._layout.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="component 'R2' has two trajectories"):
            classify(query, repeated)
    assert diagnose._layout.cache_info().currsize == 0


def test_permuted_set_gets_its_own_layout(biquad_setup):
    _, trajectories, _ = biquad_setup
    diagnose._layout.cache_clear()
    query = (0.5, -0.25)
    forward = classify(query, trajectories)
    backward = classify(query, trajectories[::-1])
    assert diagnose._layout.cache_info().currsize == 2
    assert backward == forward
    assert classify(query, trajectories) == forward


def test_classify_validation(biquad_setup):
    _, trajectories, _ = biquad_setup
    with pytest.raises(ValueError, match="dimension"):
        classify((1.0, 2.0, 3.0), trajectories)
    with pytest.raises(ValueError, match="no trajectories"):
        classify((1.0, 2.0), [])


@pytest.mark.parametrize(
    "kwargs,match",
    [
        # a NaN ball gave an empty ranking, neither nominal nor ambiguous
        (dict(origin_tol=np.nan), "origin_tol must be positive and finite"),
        # an infinite ball called every query nominal
        (dict(origin_tol=np.inf), "origin_tol must be positive and finite"),
        (dict(origin_tol=0.0), "origin_tol must be positive and finite"),
        (dict(origin_tol=-1e-6), "origin_tol must be positive and finite"),
        # a NaN margin never flagged ambiguity
        (dict(ambiguity_margin=np.nan), "ambiguity_margin must be finite and non-negative"),
        (dict(ambiguity_margin=np.inf), "ambiguity_margin must be finite and non-negative"),
        (dict(ambiguity_margin=-0.01), "ambiguity_margin must be finite and non-negative"),
    ],
)
def test_classify_rejects_bad_tolerances(biquad, biquad_setup, kwargs, match):
    tv, trajectories, golden = biquad_setup
    query = signature(golden, evaluate_at(biquad, FaultSpec("R2", -0.25), tv.frequencies))
    with pytest.raises(ValueError, match=match):
        classify(query, trajectories, **kwargs)
    assert classify(query, trajectories, ambiguity_margin=0.0).hypotheses


@pytest.mark.parametrize("query", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.0)])
def test_classify_rejects_non_finite_query(biquad_setup, query):
    # every distance from such a query is NaN, which no ranking can order
    _, trajectories, _ = biquad_setup
    with pytest.raises(ValueError, match="non-finite"):
        classify(query, trajectories)


def test_report_and_csv(tmp_path, biquad_setup):
    from trajdiag.diagnose import format_report, write_diagnosis_csv

    _, trajectories, _ = biquad_setup
    result = classify((0.5, -0.25), trajectories)
    report = format_report(result)
    assert "rank" in report and "est_deviation" in report
    assert "interpolates" in report  # estimate labelled as an extension
    path = tmp_path / "diagnosis.csv"
    write_diagnosis_csv(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,component,distance_db,est_deviation,via_perpendicular"
    assert len(lines) == 8
    nominal = classify((0.0, 0.0), trajectories)
    assert "nominal" in format_report(nominal)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.tuples(*[st.floats(-40.0, 40.0)] * 2),
    st.permutations(range(7)),
    st.floats(0.0, 1.0),
)
def test_classify_invariant_under_trajectory_order(biquad_setup, query, order, margin):
    _, trajectories, _ = biquad_setup
    shuffled = [trajectories[k] for k in order]
    assert classify(query, shuffled, margin) == classify(query, trajectories, margin)


# coordinates from a few exact values and from ranges, so that points
# repeat (zero-length segments) and sit on the origin or on each other
COORDINATES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]), st.floats(-5.0, 5.0))


@st.composite
def trajectory_sets(draw, n):
    point = st.tuples(*[COORDINATES] * n)
    trajectories = []
    for k in range(draw(st.integers(1, 4))):
        below, above = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if below + above == 0:
            above = 1
        points = draw(st.lists(point, min_size=below + above, max_size=below + above))
        repeat = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
        rows = [*points[:below], (0.0,) * n, *points[below:]]
        for i, again in enumerate(repeat, start=1):
            if again and i != below:  # a repeated point: a zero-length segment
                rows[i] = rows[i - 1]
        deviations = [0.1 * (i - below) for i in range(len(rows))]
        trajectories.append(Trajectory(f"T{k}", deviations, rows))
    # the query: anywhere, or a multiple of a trajectory point, which puts
    # it on that point, on its segment out of the origin, or behind the
    # origin so that the foot is the origin itself
    rows = [row for t in trajectories for row in t.points.tolist() if any(row)] or [(1.0,) * n]
    scale = draw(st.sampled_from([1.0, 0.5, -0.5, -1.0, -2.0, 3.0]))
    query = draw(st.one_of(
        st.tuples(*[COORDINATES] * n),
        st.sampled_from(rows).map(lambda row: tuple(scale * x for x in row)),
    ))
    return trajectories, query


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_matches_segment_loop(n):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trajectory_sets(n))
    def check(case):
        trajectories, query = case
        result = classify(query, trajectories)
        expected = reference_classify(query, trajectories)
        assert result.nominal == expected.nominal
        assert [
            (h.component, h.segment_index, h.via_perpendicular) for h in result.hypotheses
        ] == [
            (h.component, h.segment_index, h.via_perpendicular) for h in expected.hypotheses
        ]
        for got, want in zip(result.hypotheses, expected.hypotheses):
            assert abs(got.distance - want.distance) <= 1e-12
            assert abs(got.estimated_deviation - want.estimated_deviation) <= 1e-12

    check()
