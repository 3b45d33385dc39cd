import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiag import trajectory
from trajdiag.faultlib import FaultConfig, enumerate_faults, evaluate_at
from trajdiag.trajectory import (
    CROSS,
    OVERLAP,
    TestVector,
    Trajectory,
    build_trajectories,
    count_intersections,
    read_trajectories_csv,
    segment_incidence,
    signature,
    write_trajectories_csv,
)

from oracle_utils import intersection_counts, random_segment_pairs, reference_count, sampled_gap


def make_trajectory(component, pts, devs=None):
    """Synthetic trajectory through the origin from bare coordinates.

    ``pts`` are the points after the origin (positive deviations).
    """
    devs = devs or [0.1 * (i + 1) for i in range(len(pts))]
    return Trajectory(component, [0.0, *devs], [(0.0,) * len(pts[0]), *pts])


def assert_read_only(trajectory):
    for array in (trajectory.deviations, trajectory.points):
        assert array.dtype == np.float64 and not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        trajectory.points[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        trajectory.deviations[0] = 1.0


# ---------------------------------------------------------------- signature


def test_signature_golden_is_origin():
    assert signature((1.5, -3.25), (1.5, -3.25)) == (0.0, 0.0)


def test_signature_componentwise():
    assert signature((-3.0, -10.0), (-5.0, -9.0)) == (-2.0, 1.0)


def test_signature_one_dimensional():
    assert signature((-3.0,), (-4.5,)) == (-1.5,)


def test_signature_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        signature((1.0, 2.0), (1.0,))


# ---------------------------------------------------------------- test vector


def test_test_vector_validation():
    with pytest.raises(ValueError):
        TestVector(())
    with pytest.raises(ValueError):
        TestVector((1.0, -2.0))


# ---------------------------------------------------------------- building


def test_build_trajectories_default(biquad, biquad_faults):
    trajectories = build_trajectories(biquad, biquad_faults, TestVector((0.4, 1.7)))
    assert len(trajectories) == 7
    for trajectory in trajectories:
        assert trajectory.points.shape == (9, 2)  # 8 faulty + origin
        assert trajectory.deviations.tolist() == sorted(biquad_faults.deviations() + (0.0,))
        origin = trajectory.points[trajectory.deviations == 0.0]
        assert origin.tolist() == [[0.0, 0.0]]
        assert_read_only(trajectory)


def test_build_trajectories_small_grid(biquad):
    config = FaultConfig(("R1", "C2"), range_low=0.9, range_high=1.1, step=0.1)
    trajectories = build_trajectories(biquad, config, TestVector((0.4, 1.7)))
    assert [t.component for t in trajectories] == ["R1", "C2"]
    assert all(t.points.shape == (3, 2) for t in trajectories)
    assert all(t.deviations.tolist() == [-0.1, 0.0, 0.1] for t in trajectories)


def test_build_matches_evaluate_plus_signature(biquad, biquad_faults):
    tv = TestVector((0.25, 4.0))
    trajectories = build_trajectories(biquad, biquad_faults, tv)
    golden = evaluate_at(biquad, None, tv.frequencies)
    by_component = {t.component: t for t in trajectories}
    for spec in enumerate_faults(biquad_faults)[::11]:
        faulty = evaluate_at(biquad, spec, tv.frequencies)
        expected = signature(golden, faulty)
        trajectory = by_component[spec.component]
        (row,) = np.flatnonzero(trajectory.deviations == spec.deviation)
        assert np.max(np.abs(trajectory.points[row] - expected)) <= 1e-12


def test_degenerate_vector_flagged(biquad, biquad_faults):
    trajectories = build_trajectories(biquad, biquad_faults, TestVector((1.0, 1.0)))
    count, _ = count_intersections(trajectories, 1e-6)
    assert count > 0  # everything collapses onto the diagonal


def test_trajectory_invariants():
    cases = [
        ([0.0], [(0.0,)], "at least two points"),
        ([[0.0, 0.1]], [(0.0,), (1.0,)], "at least two points"),
        ([0.0, 0.1], [(0.0,)], "one point row per deviation"),
        ([0.0, 0.1], [0.0, 1.0], "one point row per deviation"),
        ([0.0, 0.0], [(0.0,), (1.0,)], "strictly increase"),
        ([-0.1, 0.0, 0.0], [(1.0,), (0.0,), (0.0,)], "strictly increase"),
        ([0.0, 0.1], [(0.1,), (1.0,)], "origin"),
        ([-0.1, 0.1], [(1.0,), (2.0,)], "origin"),
    ]
    for deviations, points, message in cases:
        with pytest.raises(ValueError, match=message):
            Trajectory("R1", deviations, points)


def test_trajectory_copies_its_inputs():
    deviations, points = np.array([0.0, 0.1]), np.array([[0.0, 0.0], [1.0, 2.0]])
    trajectory = Trajectory("R1", deviations, points)
    deviations[1], points[1, 0] = 0.2, 5.0
    assert trajectory.deviations.tolist() == [0.0, 0.1]
    assert trajectory.points.tolist() == [[0.0, 0.0], [1.0, 2.0]]
    assert_read_only(trajectory)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trajectory_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        make_trajectory("R1", [(1.0, bad)])
    with pytest.raises(ValueError, match="non-finite"):
        make_trajectory("R1", [(1.0, 2.0), (2.0, 3.0)], devs=[0.1, abs(bad)])


# ---------------------------------------------------------------- counting


def test_x_configuration_counts_one():
    a = make_trajectory("A", [(1.0, 1.0), (2.0, 0.0)])
    b = make_trajectory("B", [(1.0, 0.0), (2.0, 1.0)])
    count, records = count_intersections([a, b], 1e-6)
    assert count == 1
    assert records[0].kind == CROSS
    assert records[0].point == pytest.approx((1.5, 0.5))


def test_parallel_disjoint_counts_zero():
    a = make_trajectory("A", [(1.0, 1.0), (2.0, 2.0)])
    b = make_trajectory("B", [(1.0, -1.0), (2.0, 0.0)])
    count, records = count_intersections([a, b], 1e-6)
    assert count == 0 and records == []


def test_origin_touch_is_excluded():
    a = make_trajectory("A", [(1.0, 0.0), (2.0, 0.0)])
    b = make_trajectory("B", [(0.0, 1.0), (0.0, 2.0)])
    count, _ = count_intersections([a, b], 1e-6)
    assert count == 0


def test_radiating_configuration_is_intersection_free():
    rays = []
    for index in range(5):
        angle = 0.3 + index * 1.1
        direction = (np.cos(angle), np.sin(angle))
        rays.append(
            make_trajectory(
                f"T{index}",
                [
                    (0.5 * direction[0], 0.5 * direction[1]),
                    (1.0 * direction[0], 1.0 * direction[1]),
                ],
            )
        )
    count, _ = count_intersections(rays, 1e-6)
    assert count == 0


def test_collinear_overlap_counts_once_per_segment_pair():
    a = make_trajectory("A", [(1.0, 0.0), (2.0, 0.0)])
    b = make_trajectory("B", [(0.5, 0.0), (1.5, 0.0)])
    count, records = count_intersections([a, b], 1e-6)
    # seg pairs sharing positive common length: (A1,B1), (A1,B2), (A2,B2)
    assert count == 3
    assert all(r.kind == OVERLAP for r in records)


def test_overlap_through_origin_counts():
    # both trajectories leave the origin along +x: a genuine common pathway
    a = make_trajectory("A", [(1.0, 0.0)])
    b = make_trajectory("B", [(2.0, 0.0)])
    count, records = count_intersections([a, b], 1e-6)
    assert count == 1
    assert records[0].kind == OVERLAP


def test_symmetry_under_permutation(biquad, biquad_faults):
    trajectories = build_trajectories(biquad, biquad_faults, TestVector((0.7, 1.4)))
    base, _ = count_intersections(trajectories, 1e-6)
    rng = np.random.default_rng(3)
    for _ in range(5):
        order = rng.permutation(len(trajectories))
        shuffled = [trajectories[i] for i in order]
        count, _ = count_intersections(shuffled, 1e-6)
        assert count == base


def test_pair_decomposition(biquad, biquad_faults):
    trajectories = build_trajectories(biquad, biquad_faults, TestVector((0.7, 1.4)))
    total, _ = count_intersections(trajectories, 1e-6)
    pair_sum = 0
    for i in range(len(trajectories)):
        for j in range(i + 1, len(trajectories)):
            count, _ = count_intersections([trajectories[i], trajectories[j]], 1e-6)
            pair_sum += count
    assert pair_sum == total


def test_mixed_dimension_rejected():
    a = make_trajectory("A", [(1.0, 1.0)])
    b = make_trajectory("B", [(1.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="dimension"):
        count_intersections([a, b], 1e-6)


def test_three_dimensional_counting():
    a = make_trajectory("A", [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
    b = make_trajectory("B", [(1.5, 1.0, 0.3), (1.5, -1.0, 0.3)])
    # segment B passes 0.3 above segment A's midpoint
    count, _ = count_intersections([a, b], tol=0.4)
    assert count == 1
    count, _ = count_intersections([a, b], tol=0.2)
    assert count == 0


def test_tolerance_validation():
    a = make_trajectory("A", [(1.0, 1.0)])
    with pytest.raises(ValueError):
        count_intersections([a], -1.0)
    assert count_intersections([a], 1e-6) == (0, [])


@pytest.mark.parametrize(
    "tol,origin_tol",
    [(math.nan, None), (math.inf, None), (0.0, None),
     (1e-6, math.nan), (1e-6, math.inf), (1e-6, -1.0)],
)
def test_bad_tolerances_rejected(biquad, biquad_faults, tol, origin_tol):
    a = make_trajectory("A", [(1.0, 1.0)])
    b = make_trajectory("B", [(1.0, 0.0)])
    with pytest.raises(ValueError, match="positive and finite"):
        count_intersections([a, b], tol, origin_tol)
    with pytest.raises(ValueError, match="positive and finite"):
        intersection_counts(biquad, biquad_faults, [TestVector((0.4, 1.7))], tol, origin_tol)
    if origin_tol is None:
        with pytest.raises(ValueError, match="positive and finite"):
            segment_incidence((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), tol)


def test_intersection_counts_rejects_bad_batches(biquad, biquad_faults):
    with pytest.raises(ValueError, match="at least one test vector"):
        intersection_counts(biquad, biquad_faults, [])
    mixed = [TestVector((0.4,)), TestVector((0.4, 1.7, 3.0))]
    with pytest.raises(ValueError, match="same number of frequencies"):
        intersection_counts(biquad, biquad_faults, mixed)


# ------------------------------------------------- fast predicate vs oracle


def test_fast_predicate_matches_sampling_oracle():
    rng = np.random.default_rng(20240817)
    tol = 0.05
    agreements = 0
    for a0, a1, b0, b1, gap in random_segment_pairs(rng, 400, tol):
        fast = segment_incidence(a0, a1, b0, b1, tol)
        assert (fast is not None) == (gap < tol), (a0, a1, b0, b1, gap, fast)
        agreements += 1
    assert agreements == 400


def test_segment_incidence_kinds():
    assert segment_incidence((0, 0), (2, 0), (1, -1), (1, 1), 1e-6)[0] == CROSS
    assert segment_incidence((0, 0), (2, 0), (1, 0), (3, 0), 1e-6)[0] == OVERLAP
    assert segment_incidence((0, 0), (2, 0), (0, 1), (2, 1), 1e-6) is None
    kind, point = segment_incidence((0, 0), (2, 2), (0, 2), (2, 0), 1e-6)
    assert kind == CROSS and point == pytest.approx((1.0, 1.0))


def test_sampling_oracle_self_check():
    # the oracle itself must see an exact crossing as distance ~0
    assert sampled_gap(
        np.array([0.0, 0.0]), np.array([2.0, 2.0]),
        np.array([0.0, 2.0]), np.array([2.0, 0.0]),
    ) < 1e-3


# ------------------------------------------- vectorized kernel vs reference


def assert_matches_reference(trajectories):
    """count_intersections equals the scalar reference, record by record."""
    count, records = count_intersections(trajectories, 1e-6)
    ref_count, ref_records = reference_count(trajectories, 1e-6)
    assert count == ref_count == len(records)
    for got, want in zip(records, ref_records):
        assert (
            got.component_a, got.segment_a, got.component_b, got.segment_b, got.kind
        ) == want[:5]
        assert np.max(np.abs(np.subtract(got.point, want[5]))) <= 1e-12, (got, want)
    return count


def assert_batch_matches_reference(circuit, config, vectors, chunk=64):
    counts = np.concatenate(
        [
            intersection_counts(circuit, config, vectors[k : k + chunk])
            for k in range(0, len(vectors), chunk)
        ]
    )
    for tv, batched in zip(vectors, counts):
        trajectories = build_trajectories(circuit, config, tv)
        assert assert_matches_reference(trajectories) == batched, tv.frequencies


def test_dot_at_three_terms_sums_in_einsum_order():
    # the kernel-vs-reference tests at n = 3 hold only while _dot sums
    # (x0 y0 + x2 y2) + x1 y1, the order einsum takes on these rows; a
    # left-to-right sum differs in the last bit on about 30% of them
    rng = np.random.default_rng(3303)
    for _ in range(20):
        x, y = rng.normal(size=(2, 1000, 3)) * 10.0 ** rng.uniform(-3, 3, (1000, 1))
        rows = rng.integers(0, 1000, 1500)
        for u, v in ((x, y), (x.take(rows, axis=0), y.take(rows, axis=0))):
            expected = (u[:, 0] * v[:, 0] + u[:, 2] * v[:, 2]) + u[:, 1] * v[:, 1]
            assert np.array_equal(trajectory._dot(u, v), expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_matches_reference_on_random_vectors(biquad, biquad_faults, n):
    rng = np.random.default_rng(7100 + n)
    vectors = [
        TestVector(tuple((10.0 ** rng.uniform(-2.0, 2.0, n)).tolist()))
        for _ in range(2000)
    ]
    assert_batch_matches_reference(biquad, biquad_faults, vectors)


def test_kernel_matches_reference_on_c6_grid(biquad, biquad_faults):
    grid = np.geomspace(0.01, 100.0, 100)
    vectors = [
        TestVector((grid[i], grid[j])) for i in range(100) for j in range(i, 100)
    ]
    assert len(vectors) == 5050  # includes the 100 duplicate-frequency vectors
    assert_batch_matches_reference(biquad, biquad_faults, vectors)


def test_kernel_degenerate_vectors(biquad, biquad_faults):
    vectors = [TestVector((f, f)) for f in (0.05, 1.0, 30.0)]
    vectors += [TestVector((0.3, 0.3, 2.0)), TestVector((2.0, 0.3, 2.0))]
    for tv in vectors:
        assert len(set(tv.frequencies)) < len(tv.frequencies)
    for size in (2, 3):
        same = [tv for tv in vectors if len(tv.frequencies) == size]
        counts = intersection_counts(biquad, biquad_faults, same)
        for tv, batched in zip(same, counts):
            trajectories = build_trajectories(biquad, biquad_faults, tv)
            assert assert_matches_reference(trajectories) == batched
    # with n = 2, every trajectory collapses onto the diagonal
    assert all(intersection_counts(biquad, biquad_faults, vectors[:3]) > 0)


def test_shared_endpoint_cross_is_at_that_endpoint(biquad, biquad_faults):
    # generation-0 vector of `optimize --seed 1`: R3 and C1 segments 3 both end
    # at the origin, 1.4e-5 rad apart, and their clamped closest points fall
    # 1.1e-6 from it, outside origin_tol
    tv = TestVector((46.376219227163986, 49.7365531917399))
    assert intersection_counts(biquad, biquad_faults, [tv])[0] == 0
    assert assert_matches_reference(build_trajectories(biquad, biquad_faults, tv)) == 0


def test_boxes_that_touch_exactly_pass_at_a_tiny_tolerance():
    # At tol = 1e-300, hi + 2 tol rounds to hi, so a box test with a strict
    # comparison would drop this pair: its segments meet only at the shared
    # endpoint (2, 1), where the two boxes touch exactly.
    assert segment_incidence((1.0, 1.0), (2.0, 1.0), (2.0, 1.0), (3.0, 2.0), 1e-300) == (
        CROSS, (2.0, 1.0),
    )
    a = make_trajectory("A", [(1.0, 1.0), (2.0, 1.0)])
    b = make_trajectory("B", [(3.0, 0.0), (3.0, 2.0), (2.0, 1.0)])
    count, records = count_intersections([a, b], 1e-300)
    assert count == 1
    assert (records[0].segment_a, records[0].segment_b, records[0].point) == (1, 2, (2.0, 1.0))


def _random_vectors(seed, n, size):
    rng = np.random.default_rng(seed)
    return [
        TestVector(tuple((10.0 ** rng.uniform(-2.0, 2.0, n)).tolist())) for _ in range(size)
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_intersection_counts_independent_of_block_size(
    biquad, biquad_faults, monkeypatch, n
):
    vectors = _random_vectors(7400 + n, n, 100)
    segments = len(biquad_faults.targets) * len(biquad_faults.deviations())
    blocks = []
    incidences = trajectory._incidences

    def recording(p0, *args):
        blocks.append(len(p0))
        return incidences(p0, *args)

    monkeypatch.setattr(trajectory, "_incidences", recording)
    counts = []
    for size in (1, 7, 32, len(vectors)):
        monkeypatch.setattr(trajectory, "_BOX_ENTRIES", size * segments**2)
        blocks.clear()
        counts.append(intersection_counts(biquad, biquad_faults, vectors))
        assert max(blocks) == size and sum(blocks) == len(vectors)
    for other in counts[1:]:
        np.testing.assert_array_equal(other, counts[0])


def test_intersection_counts_memory_does_not_grow_with_vectors(biquad, biquad_faults):
    # the same 32 vectors 32 times over, so that every block does the same work
    vectors = _random_vectors(7500, 2, 32)
    intersection_counts(biquad, biquad_faults, vectors)  # fill the caches
    peaks = []
    for batch in (vectors, vectors * 32):
        tracemalloc.start()
        try:
            intersection_counts(biquad, biquad_faults, batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_count_intersections_holds_nothing_after_it_returns():
    # 7 rays of 400 segments from the origin: 3.36 M cross-trajectory pairs,
    # whose index arrays no cache may keep once the call returns
    radii = np.linspace(0.0025, 1.0, 400)
    trajectories = [
        make_trajectory(f"T{k}", np.outer(radii, _rotated(k)).tolist()) for k in range(7)
    ]
    count_intersections(trajectories[:2], 1e-6)  # numpy's own first-call state
    tracemalloc.start()
    try:
        assert count_intersections(trajectories, 1e-6) == (0, [])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held


# ------------------------------------------------- shared-origin shortcut


def count_on_full_path(trajectories):
    """count_intersections with no segment marked at its origin, so every
    pair that passes the box test reaches the closest-point test."""
    segment_layout = trajectory._segment_layout

    def nothing_at_origin(segments, origins):
        owner, at_origin = segment_layout(segments, origins)
        return owner, np.zeros_like(at_origin)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trajectory, "_segment_layout", nothing_at_origin)
        return count_intersections(trajectories, 1e-6)


def assert_shortcut_matches(trajectories):
    """Same count and records (points bit for bit) with and without the
    shared-origin shortcut, and the same as the scalar reference."""
    count, records = count_intersections(trajectories, 1e-6)
    assert (count, records) == count_on_full_path(trajectories)
    assert assert_matches_reference(trajectories) == count
    return count


def _rotated(angle, length=1.0):
    return (length * math.cos(angle), length * math.sin(angle))


@pytest.mark.parametrize(
    "segments,origins",
    [((1, 1), (0, 0)), ((8,) * 7, (4,) * 7), ((3, 1, 5, 2), (0, 1, 5, 1)), ((2, 6), (2, 3))],
)
def test_kernel_matches_reference_on_uneven_layouts(segments, origins):
    # random trajectories of uneven lengths with the origin at an end or
    # inside; in half of the draws every segment leaving the origin forwards
    # lies on one ray, so origin-adjacent pairs overlap there
    rng = np.random.default_rng(7700 + sum(segments))
    for n in (1, 2, 3):
        for draw in range(20):
            ray = rng.uniform(-1.0, 1.0, n)
            trajectories = []
            for k, (count, origin) in enumerate(zip(segments, origins)):
                points = rng.uniform(-1.0, 1.0, (count + 1, n))
                points[origin] = 0.0
                if draw % 2 and origin < count:
                    points[origin + 1] = rng.uniform(0.2, 1.0) * ray
                devs = np.arange(count + 1.0) - origin
                trajectories.append(Trajectory(f"T{k}", devs, points))
            assert_shortcut_matches(trajectories)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        # collinear overlaps of two origin-adjacent segments, counted: both
        # leaving the origin, and one arriving at it while the other leaves
        (([0.0, 0.1], [(0.0, 0.0), (1.0, 0.0)]), ([0.0, 0.1], [(0.0, 0.0), (2.0, 0.0)]), 1),
        (([-0.1, 0.0], [(1.0, 1.0), (0.0, 0.0)]), ([0.0, 0.1], [(0.0, 0.0), (2.0, 2.0)]), 1),
        # 1e-7 rad apart is parallel to the closest-point test (sin^2 <= 1e-12):
        # an overlap, counted
        (([0.0, 0.1], [(0.0, 0.0), (1.0, 0.0)]), ([0.0, 0.1], [(0.0, 0.0), _rotated(1e-7)]), 1),
        # 1e-5 rad apart passes the looser pre-test, then meets only at the
        # origin; 1e-3 rad apart is dropped by the pre-test itself
        (([0.0, 0.1], [(0.0, 0.0), (1.0, 0.0)]), ([0.0, 0.1], [(0.0, 0.0), _rotated(1e-5)]), 0),
        (([0.0, 0.1], [(0.0, 0.0), (1.0, 0.0)]), ([0.0, 0.1], [(0.0, 0.0), _rotated(1e-3)]), 0),
        # a zero-length origin-adjacent segment, then an overlap off it
        (
            ([-0.1, 0.0, 0.1], [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]),
            ([0.0, 0.1], [(0.0, 0.0), (2.0, 0.0)]),
            1,
        ),
        (
            ([0.0, 0.1, 0.2], [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]),
            ([-0.1, 0.0], [(0.0, 0.0), (0.0, 0.0)]),
            0,
        ),
    ],
)
def test_shortcut_constructed_configurations(a, b, expected):
    a, b = Trajectory("A", *a), Trajectory("B", *b)
    assert assert_shortcut_matches([a, b]) == expected
    assert assert_shortcut_matches([b, a]) == expected


@settings(max_examples=90, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    )
)
def test_shortcut_matches_full_path_on_random_vectors(biquad, biquad_faults, exponents):
    tv = TestVector(tuple(10.0**e for e in exponents))
    count = assert_shortcut_matches(build_trajectories(biquad, biquad_faults, tv))
    assert intersection_counts(biquad, biquad_faults, [tv])[0] == count


@pytest.mark.parametrize(
    "a_pts,b_pts,expected",
    [
        # collinear overlaps away from, and starting at, the origin
        ([(1.0, 0.0), (2.0, 0.0)], [(0.5, 0.0), (1.5, 0.0)], 3),
        ([(1.0, 1.0)], [(2.0, 2.0), (3.0, 3.0)], 1),
        ([(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], [(1.5, 1.5, 1.5), (3.0, 3.0, 3.0)], 3),
        # collinear, touching end to end at the origin only
        ([(1.0, 0.0)], [(-1.0, 0.0)], 0),
        # shared segment and endpoint off the origin, and an exact crossing
        ([(1.0, 1.0), (2.0, 0.0)], [(1.0, 1.0), (0.0, 2.0)], 4),
        ([(1.0, 1.0), (2.0, 0.0)], [(1.0, 0.0), (2.0, 1.0)], 1),
        # zero-length segments (repeated points) on another trajectory
        ([(1.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0.5, 1.0), (1.5, 0.0), (1.5, 0.0)], 2),
        ([(2.0, 0.0)], [(0.5, 0.5), (1.0, 0.0), (1.0, 0.0)], 2),
        # near tol away from the origin, where the box test must pass the pair on:
        # parallel segments 0.9e-6 and 1.1e-6 apart,
        ([(1.0, 0.0), (1.0, 1.0)], [(1.0 + 0.9e-6, 2.0), (1.0 + 0.9e-6, 0.5)], 1),
        ([(1.0, 0.0), (1.0, 1.0)], [(1.0 + 1.1e-6, 2.0), (1.0 + 1.1e-6, 0.5)], 0),
        # diagonal parallels with overlapping boxes, 1.56e-6 apart,
        (
            [(1.0, 1.0), (2.0, 2.0)],
            [(1.0 + 1.1e-6, 1.0 - 1.1e-6), (2.0 + 1.1e-6, 2.0 - 1.1e-6)],
            0,
        ),
        # and an end 0.9e-6 (then 1.1e-6) short of a segment: box gap on x only
        ([(1.0, 0.0), (1.0, 1.0)], [(2.0, -1.0), (2.0, 0.5), (1.0 + 0.9e-6, 0.5)], 1),
        ([(1.0, 0.0), (1.0, 1.0)], [(2.0, -1.0), (2.0, 0.5), (1.0 + 1.1e-6, 0.5)], 0),
    ],
)
def test_kernel_constructed_configurations(a_pts, b_pts, expected):
    a = make_trajectory("A", a_pts)
    b = make_trajectory("B", b_pts)
    assert assert_matches_reference([a, b]) == expected
    assert assert_matches_reference([b, a]) == expected


def _lattice_trajectory(draw, name, dim):
    point = st.tuples(*[st.integers(-3, 3).map(float)] * dim)
    below = draw(st.lists(point, max_size=2))
    above = draw(st.lists(point, min_size=1, max_size=3))
    deviations = [-0.1 * (len(below) - k) for k in range(len(below))]
    deviations += [0.0] + [0.1 * (k + 1) for k in range(len(above))]
    return Trajectory(name, deviations, [*below, (0.0,) * dim, *above])


@st.composite
def lattice_trajectories(draw):
    """2-4 trajectories on a small integer lattice.

    Lattice geometry keeps every true contact distance either exactly 0
    or far above the tolerances, so rounding cannot flip a decision.
    """
    dim = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(2, 4))
    return [_lattice_trajectory(draw, f"T{k}", dim) for k in range(count)]


def _record_map(records):
    return {
        frozenset({(r.component_a, r.segment_a), (r.component_b, r.segment_b)}): (
            r.kind,
            r.point,
        )
        for r in records
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lattice_trajectories(), st.randoms(use_true_random=False))
def test_count_invariant_under_trajectory_order(trajectories, random):
    base = assert_matches_reference(trajectories)
    shuffled = list(trajectories)
    random.shuffle(shuffled)
    assert count_intersections(shuffled, 1e-6)[0] == base


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lattice_trajectories())
def test_record_set_symmetric(trajectories):
    _, forward = count_intersections(trajectories, 1e-6)
    _, backward = count_intersections(trajectories[::-1], 1e-6)
    forward, backward = _record_map(forward), _record_map(backward)
    assert forward.keys() == backward.keys()
    for key, (kind, point) in forward.items():
        assert backward[key][0] == kind
        assert backward[key][1] == pytest.approx(point, abs=1e-12)


def _reversed(trajectory):
    """The same polyline walked backwards: every segment's endpoints swap."""
    return Trajectory(
        trajectory.component, -trajectory.deviations[::-1], trajectory.points[::-1]
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lattice_trajectories(), st.data())
def test_count_invariant_under_segment_reversal(trajectories, data):
    size = len(trajectories)
    flips = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    flipped = [_reversed(t) if flip else t for t, flip in zip(trajectories, flips)]
    count, records = count_intersections(trajectories, 1e-6)
    flipped_count, flipped_records = count_intersections(flipped, 1e-6)
    assert flipped_count == count
    assert sorted(r.kind for r in flipped_records) == sorted(r.kind for r in records)


# ---------------------------------------------------------------- csv round trip


def test_trajectories_csv_round_trip(tmp_path, biquad, biquad_faults):
    trajectories = build_trajectories(biquad, biquad_faults, TestVector((0.4, 1.7)))
    path = tmp_path / "trajectories.csv"
    write_trajectories_csv(path, trajectories)
    lines = path.read_text().splitlines()
    assert lines[0] == "component,deviation,x1,x2"
    assert len(lines) == 1 + 7 * 9
    loaded = read_trajectories_csv(path)
    assert [t.component for t in loaded] == [t.component for t in trajectories]
    for got, want in zip(loaded, trajectories):
        # %.17g round-trips doubles exactly
        assert np.array_equal(got.deviations, want.deviations)
        assert np.array_equal(got.points, want.points)
        assert_read_only(got)


def test_read_trajectories_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("component,deviation,x1,x2\n")
    with pytest.raises(ValueError, match="no trajectory data"):
        read_trajectories_csv(path)

