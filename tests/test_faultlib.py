import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajdiag as td
from trajdiag.acsim import ResponseCurve, log_grid, sweep
from trajdiag.errors import ConfigError
from trajdiag.faultlib import (
    _CHUNK_VALUES,
    _FAST_HIGH,
    _FAST_LOW,
    _LABEL,
    FaultConfig,
    FaultDictionary,
    FaultSpec,
    _format_g17,
    build_dictionary,
    enumerate_faults,
    evaluate_at,
    write_dictionary_csv,
)
from trajdiag.data import biquad_path
from trajdiag.netlist import parse_netlist

from conftest import ONE_POLE_RC, ORACLE_VECTOR
from oracle_utils import random_rlc_vcvs_netlist, reference_dictionary_csv, reference_gains


def test_default_grid_enumeration(biquad_faults):
    faults = enumerate_faults(biquad_faults)
    assert len(faults) == 56  # 7 components x 8 deviations
    assert biquad_faults.deviations() == (-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4)
    # (component, ascending deviation) order
    assert faults[0] == FaultSpec("R1", -0.4)
    assert faults[7] == FaultSpec("R1", 0.4)
    assert faults[8] == FaultSpec("R2", -0.4)
    assert faults[-1] == FaultSpec("C2", 0.4)
    assert all(f.deviation != 0.0 for f in faults)


def test_smallest_grid():
    config = FaultConfig(("R1",), range_low=0.9, range_high=1.1, step=0.1)
    assert config.deviations() == (-0.1, 0.1)
    assert len(enumerate_faults(config)) == 2


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(targets=(), ), "empty"),
        (dict(targets=("R1", "R1")), "duplicate"),
        (dict(targets=("R1",), step=0.07), "integer number of steps"),
        (dict(targets=("R1",), range_low=1.2), "range_low < 1"),
        (dict(targets=("R1",), range_high=0.8), "range_low < 1"),
        (dict(targets=("R1",), range_low=-0.1), "range_low < 1"),
        (dict(targets=("R1",), step=-0.1), "positive"),
        (dict(targets=("R1",), step=0.0), "positive"),
        (dict(targets=("R1",), step=float("inf")), "finite"),
        # tuple("R1") would be the targets 'R', '1'
        (dict(targets="R1"), "not the string 'R1'"),
        # 1 - 1e-12 is 10 steps of 0.1 within 1e-9, and -10 * 0.1 rounds to -1
        (dict(targets=("R1",), range_low=1e-12), "range_low rounds to deviation -1, "),
    ],
)
def test_config_validation(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        FaultConfig(**kwargs)


def test_cardinality_formula():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_lo = int(rng.integers(1, 9))
        n_hi = int(rng.integers(1, 9))
        step = float(rng.choice([0.05, 0.1, 0.2, 0.25]))
        if n_lo * step >= 1.0:
            continue
        targets = tuple(f"R{i}" for i in range(int(rng.integers(1, 6))))
        config = FaultConfig(
            targets, range_low=1.0 - n_lo * step, range_high=1.0 + n_hi * step, step=step
        )
        expected = len(targets) * round(
            (config.range_high - config.range_low) / config.step
        )
        assert len(enumerate_faults(config)) == expected


@pytest.mark.parametrize(
    "low,high,step", [(0.6, 1.4, 0.1), (0.5, 1.2, 0.1), (0.6, 1.4, 0.05), (0.9, 1.7, 0.1)]
)
def test_layout_is_decided_once(low, high, step):
    config = FaultConfig(("R1", "C1"), low, high, step)
    grid = config.deviations()
    assert config.n_below == sum(d < 0.0 for d in grid) == round((1.0 - low) / step)
    assert grid[config.n_below - 1] < 0.0 < grid[config.n_below]
    assert config.deviations() is grid
    assert enumerate_faults(config) is enumerate_faults(config) is config.faults
    # the cached layout is not part of a config's value
    twin = FaultConfig(["R1", "C1"], low, high, step)
    assert twin == config and hash(twin) == hash(config)
    assert twin != FaultConfig(("C1", "R1"), low, high, step)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("R1", -1.0)
    with pytest.raises(ValueError):
        FaultSpec("R1", -1.5)
    assert FaultSpec("R1", -0.999).deviation == -0.999


@pytest.mark.parametrize("deviation", [float("nan"), float("inf"), float("-inf")])
def test_fault_spec_rejects_non_finite(biquad, deviation):
    with pytest.raises(ValueError, match="R1 must be finite"):
        evaluate_at(biquad, FaultSpec("R1", deviation), [1.0, 2.0])


def test_evaluate_at_matches_sweep(biquad):
    grid = log_grid(0.05, 50.0, 9)
    curve = sweep(biquad, grid)
    values = evaluate_at(biquad, None, grid)
    assert len(values) == 9
    for got, want in zip(values, curve.magnitudes_db):
        assert abs(got - want) <= 1e-12


def test_evaluate_at_shapes_and_validation(biquad):
    from trajdiag.faultlib import _kept_golden_step

    values = evaluate_at(biquad, FaultSpec("R1", 0.2), [0.5, 2.0])
    assert len(values) == 2
    with pytest.raises(ValueError):
        evaluate_at(biquad, None, [])
    with pytest.raises(ValueError):
        evaluate_at(biquad, None, [1.0, -2.0])
    # a kept set skips the check, so a bad one must never be kept: the same
    # text on every call, for a 2-D array (which no key can hold), a NaN and
    # one set given twice
    kept = _kept_golden_step.cache_info().currsize
    for frequencies, message in [
        (np.array([[0.5, 2.0]]), "frequencies must be a non-empty 1-D sequence"),
        ([0.5, math.nan], "frequencies must be positive and finite"),
        ((0.5, -2.0), "frequencies must be positive and finite"),
        ((0.5, -2.0), "frequencies must be positive and finite"),
    ]:
        for fault in (None, FaultSpec("R1", 0.2), None):
            with pytest.raises(ValueError) as error:
                evaluate_at(biquad, fault, frequencies)
            assert str(error.value) == message
            assert _kept_golden_step.cache_info().currsize == kept


def test_every_fault_visible_in_transition_band(biquad, biquad_faults):
    # pinned: every grid fault moves the response by > 0.25 dB somewhere
    # around the pole (measured minimum over all 56 faults: 0.301 dB)
    omegas = np.geomspace(0.3, 3.0, 61)
    golden = np.asarray(evaluate_at(biquad, None, omegas))
    for spec in enumerate_faults(biquad_faults):
        delta = np.abs(np.asarray(evaluate_at(biquad, spec, omegas)) - golden)
        assert delta.max() > 0.25, spec


def test_build_dictionary_default(biquad, biquad_faults):
    grid = log_grid(0.01, 100.0, 21)
    dictionary = build_dictionary(biquad, biquad_faults, grid)
    assert len(dictionary.entries) == 56
    assert tuple(dictionary.entries.keys()) == enumerate_faults(biquad_faults)
    assert len(dictionary.golden.frequencies) == 21


def test_build_dictionary_small(biquad):
    config = FaultConfig(("C1",), range_low=0.9, range_high=1.1, step=0.1)
    dictionary = build_dictionary(biquad, config, log_grid(0.1, 10.0, 5))
    assert len(dictionary.entries) == 2


def test_dictionary_determinism(biquad, biquad_faults):
    grid = log_grid(0.01, 100.0, 11)
    first = build_dictionary(biquad, biquad_faults, grid)
    second = build_dictionary(biquad, biquad_faults, grid)
    assert first == second


def test_resistor_faults_straddle_golden(biquad):
    # pinned directions at the pole frequency (w0 = 1): +10% and -10%
    # resistor faults land on opposite sides of the golden curve
    golden = evaluate_at(biquad, None, [1.0])[0]
    below_up = {"R1": True, "R2": False, "R3": True, "R4": False, "R5": True}
    for component, goes_down in below_up.items():
        up = evaluate_at(biquad, FaultSpec(component, +0.1), [1.0])[0] - golden
        down = evaluate_at(biquad, FaultSpec(component, -0.1), [1.0])[0] - golden
        assert up * down < 0.0, component
        assert (up < 0.0) == goes_down, component


def test_golden_self_consistency(biquad, biquad_faults):
    grid = log_grid(0.01, 100.0, 11)
    dictionary = build_dictionary(biquad, biquad_faults, grid)
    for index in (0, 5, 10):
        single = evaluate_at(biquad, None, [grid[index]])[0]
        assert abs(single - dictionary.golden.magnitudes_db[index]) <= 1e-12


def test_vcvs_target_rejected(biquad):
    config = FaultConfig(("E1",))
    with pytest.raises(ValueError, match="only resistor/capacitor/inductor"):
        build_dictionary(biquad, config, log_grid(0.1, 10.0, 3))


def test_unknown_target_named(biquad):
    config = FaultConfig(("R9",))
    with pytest.raises(ValueError, match="R9"):
        build_dictionary(biquad, config, log_grid(0.1, 10.0, 3))


def test_failing_fault_names_spec(tmp_path, caplog, capsys):
    # KCL at node a gives V(a) (1/R1 + (1 - 2)/R2) = V(in)/R1, so halving R2
    # (2 -> 1) makes the matrix exactly singular while the golden circuit
    # solves: the dictionary, the GA and the CLI must all name that fault
    from trajdiag.cli import main
    from trajdiag.evolve import fitness
    from trajdiag.trajectory import TestVector

    text = "V1 in 0 1\nR1 in a 1\nR2 a b 2\nE1 b 0 a 0 2\nR3 b 0 1\n.input V1\n.output b\n"
    circuit = parse_netlist(text)
    config = FaultConfig(circuit.passive_ids(), range_low=0.5)
    message = r"fault \(R2, -0\.5\) failed: singular MNA system at omega=0\.01 rad/s"
    with pytest.raises(td.SimulationError, match=message):
        build_dictionary(circuit, config, [0.01, 1.0])
    with caplog.at_level("WARNING"):
        assert fitness(TestVector((0.01, 2.0)), circuit, config) == 0.0
    warnings = [m for m in caplog.messages if "fitness=0" in m]
    assert len(warnings) == 1 and re.search(message, warnings[0])

    netlist = tmp_path / "singular.cir"
    netlist.write_text(text)
    code = main(["simulate", "--netlist", str(netlist), "--outdir", str(tmp_path / "out"),
                 "--unit", "rad/s", "--f-min", "0.01", "--range-low", "0.5"])
    [line] = capsys.readouterr().err.splitlines()
    assert code == 1 and re.search(message, line)


def test_ensemble_matches_direct_solves():
    # every row of the rank-one ensemble solve is within 1e-9 dB (the bound
    # of the benchmark's sweep check) of a direct LU of that variant's own
    # G + jwC, on seeded R/C/L + vcvs circuits whose frequencies split into
    # several solve blocks
    from trajdiag.faultlib import FaultEnsemble

    omegas = np.geomspace(0.05, 20.0, 1200)
    for seed in range(6):
        circuit = parse_netlist(random_rlc_vcvs_netlist(np.random.default_rng(seed)))
        config = FaultConfig(circuit.passive_ids())
        ensemble = FaultEnsemble(circuit, config)
        mags = ensemble.magnitudes(omegas)
        assert len(omegas) > 2 * ensemble._system._block(1 + len(config.faults))
        reference = reference_gains(circuit, enumerate_faults(config), omegas)
        assert np.max(np.abs(mags - 20.0 * np.log10(np.abs(reference)))) <= 1e-9, seed


def test_ensemble_columns_do_not_depend_on_their_batch(biquad):
    # a frequency's column is the same bit for bit whether it is solved
    # alone, with others, in another order or across solve blocks; the GA
    # keeps columns by frequency and reuses them in other batches
    from trajdiag.faultlib import FaultEnsemble

    rng = np.random.default_rng(3300)
    ladder = parse_netlist(random_rlc_vcvs_netlist(np.random.default_rng(0)))
    for circuit in (biquad, ladder):
        config = FaultConfig(circuit.passive_ids())
        ensemble = FaultEnsemble(circuit, config)
        per_block = ensemble._system._block(1 + len(config.faults))
        for count in (2, 7, per_block + 1, 2 * per_block + 5):
            omegas = 10.0 ** rng.uniform(-2.0, 2.0, count)
            whole = ensemble.magnitudes(omegas)
            order = rng.permutation(count)
            np.testing.assert_array_equal(ensemble.magnitudes(omegas[order]), whole[:, order])
            for k, omega in enumerate(omegas.tolist()):
                np.testing.assert_array_equal(ensemble.magnitudes([omega])[:, 0], whole[:, k])


def test_magnitudes_working_set_is_the_result_plus_one_block():
    # each solve block's dB rows go straight into the one result, so no
    # full-size complex or boolean array is held beside it
    from trajdiag.faultlib import FaultEnsemble

    circuit = parse_netlist(random_rlc_vcvs_netlist(np.random.default_rng(4)))
    ensemble = FaultEnsemble(circuit, FaultConfig(circuit.passive_ids()))
    omegas = np.geomspace(0.05, 20.0, 20_000)
    ensemble.magnitudes(omegas[:3])
    tracemalloc.start()
    try:
        mags = ensemble.magnitudes(omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mags.shape[0] > 40 and peak <= mags.nbytes + 2 * 2**20, (peak, mags.nbytes)


def _per_frequency(system, n_rows):
    """Solve-block entries one frequency of ``system`` with ``n_rows``
    result rows takes."""
    return system.size * (system.size + system.rhs.shape[1]) + n_rows


@pytest.mark.parametrize("per_block", [1, 3])
def test_blocked_magnitudes_equal_the_one_block_result(monkeypatch, biquad, per_block):
    # 25 frequencies at 1 or 3 a block (the last one ragged): the dB rows
    # written block by block equal the one-block result bit for bit
    from trajdiag import acsim
    from trajdiag.faultlib import FaultEnsemble

    omegas = 10.0 ** np.random.default_rng(77).uniform(-2.0, 2.0, 25)
    ladder = parse_netlist(random_rlc_vcvs_netlist(np.random.default_rng(1)))
    for circuit in (biquad, ladder):
        config = FaultConfig(circuit.passive_ids())
        ensemble, n_rows = FaultEnsemble(circuit, config), 1 + len(config.faults)
        whole = ensemble.magnitudes(omegas)
        assert ensemble._system._block(n_rows) >= len(omegas)
        entries = per_block * _per_frequency(ensemble._system, n_rows)
        monkeypatch.setattr(acsim, "_BLOCK_ENTRIES", entries)
        assert ensemble._system._block(n_rows) == per_block
        assert ensemble.magnitudes(omegas).tobytes() == whole.tobytes()
        monkeypatch.undo()


# an RC lowpass whose output underflows to exactly 0 near 7e161 rad/s; with
# C1 at 2.5x or 3x nominal some fault rows reach 0 at lower frequencies
UNDERFLOW_RC = "V1 in 0 1\nR1 in a 1\nC1 a 0 1\nR2 a out 1\nC2 out 0 1\n.input V1\n.output out\n"
SINGULAR_R2 = "V1 in 0 1\nR1 in a 1\nR2 a b 2\nE1 b 0 a 0 2\nR3 b 0 1\n.input V1\n.output b\n"


@pytest.mark.parametrize(
    "text,config,omegas,message",
    [
        # the row-major first zero: golden's, in the third block, though
        # fault rows are zero in the first and a later golden zero has a
        # smaller frequency
        (UNDERFLOW_RC, (("C1", "C2"), 0.5, 3.0, 0.5),
         [1.0, 2.0, 4e161, 3.0, 4.0, 5.0, 6.0, 1e170, 8.0, 9.0, 7e161],
         "golden circuit failed: zero output magnitude at omega=1e+170 rad/s"),
        # row 4's zero in the third block, after row 5's in the first
        (UNDERFLOW_RC, (("C1", "C2"), 0.5, 3.0, 0.5),
         [1.0, 2.0, 3.9e161, 3.0, 4.0, 5.0, 6.0, 4e161, 8.0],
         "fault (C1, +1.5) failed: zero output magnitude at omega=4e+161 rad/s"),
        # w dC overflows only at the third block's 1e9 rad/s
        ("V1 in 0 1\nR1 in out 1\nC1 out 0 1e300\n.input V1\n.output out\n",
         (("R1", "C1"), 0.5, 1.5, 0.5),
         [1e-300, 2e-300, 3e-300, 4e-300, 5e-300, 6e-300, 7e-300, 1e9, 8e-300],
         "fault (C1, -0.5) failed: an MNA matrix entry is out of floating-point range "
         "at omega=1e+09 rad/s; check element values"),
        # the row solves at 1.8e-223 rad/s, where its matrix is ill-conditioned,
        # and fails only at 1e9 rad/s: the frequency that failed is named
        ("V1 in 0 1\nR1 in out 1\nC1 out 0 1e300\n.input V1\n.output out\n",
         (("R1", "C1"),),
         log_grid(1e-300, 1e9, 5),
         "fault (C1, -0.4) failed: an MNA matrix entry is out of floating-point range "
         "at omega=1e+09 rad/s; check element values"),
        # halving R2 is singular at every frequency: the first is named
        (SINGULAR_R2, (("R1", "R2", "R3"), 0.5, 1.4, 0.1),
         [0.01, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
         "fault (R2, -0.5) failed: singular MNA system at omega=0.01 rad/s "
         "(condition number 1.635e+17); check circuit connectivity"),
    ],
    ids=["golden-zero", "fault-zero", "overflow", "overflow-not-ill-conditioned", "singular-R2"],
)
def test_failures_are_named_across_blocks(monkeypatch, text, config, omegas, message):
    # one block, then three frequencies a block: the same message
    from trajdiag import acsim
    from trajdiag.faultlib import FaultEnsemble

    config = FaultConfig(*config)
    ensemble, n_rows = FaultEnsemble(parse_netlist(text), config), 1 + len(config.faults)
    for per_block in (len(omegas), 3):
        entries = per_block * _per_frequency(ensemble._system, n_rows)
        monkeypatch.setattr(acsim, "_BLOCK_ENTRIES", entries)
        assert ensemble._system._block(n_rows) == per_block
        with np.errstate(all="ignore"), pytest.raises(td.SimulationError) as failure:
            ensemble.magnitudes(omegas)
        assert str(failure.value) == message


def test_evaluate_at_matches_ensemble_row(biquad, biquad_faults):
    # a query and its own trajectory point must coincide exactly: classify's
    # perpendicular test is exact, so one ulp would move the ranking
    from trajdiag.faultlib import ensemble_for

    ensemble = ensemble_for(biquad, biquad_faults)
    for vector in (ORACLE_VECTOR, (0.25, 4.0), (0.05, 1.0, 30.0)):
        mags = ensemble.magnitudes(vector)
        assert np.array_equal(evaluate_at(biquad, None, vector), mags[0])
        for row, spec in enumerate(enumerate_faults(biquad_faults), start=1):
            assert np.array_equal(evaluate_at(biquad, spec, vector), mags[row]), spec


def test_ensemble_solves_the_one_cached_golden_system(biquad, biquad_faults):
    # the ensemble holds the circuit's cached golden system itself, not a
    # copy, beside its fault rows
    from trajdiag.acsim import _golden_system
    from trajdiag.faultlib import ensemble_for

    assert ensemble_for(biquad, biquad_faults)._system is _golden_system(biquad)


# a doubly terminated two-section RLC ladder: inductor branch rows and shunt
# capacitors beside the biquad's op-amp (vcvs) rows
RLC_LADDER = (
    "V1 in 0 1\nRS in a 1\nL1 a b 0.8\nC1 b 0 1.2\nL2 b out 1.5\nC2 out 0 0.7\n"
    "RL out 0 1.1\n.input V1\n.output out\n"
)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    vectors=st.lists(st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3), min_size=1,
                     max_size=3),
    picks=st.lists(st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 500)),
                   min_size=1, max_size=8),
)
def test_evaluate_at_reuses_the_golden_solve_bit_for_bit(n, vectors, picks):
    # interleaved calls on the biquad and a ladder at up to three shared
    # n-frequency vectors, each call made twice in a row: the golden row and
    # every fault equal a fresh system's solve and the ensemble row, whether
    # the golden solve was kept or not
    from trajdiag.acsim import MnaSystem
    from trajdiag.faultlib import _kept_golden_step, ensemble_for

    circuits = [parse_netlist(biquad_path().read_text()), parse_netlist(RLC_LADDER)]
    vectors = [tuple(vector[:n]) for vector in vectors]
    _kept_golden_step.cache_clear()
    for ladder, which, pick in (pick for pick in picks for _ in range(2)):
        circuit, vector = circuits[ladder], vectors[which % len(vectors)]
        config = FaultConfig(circuit.passive_ids())
        row = pick % (1 + len(config.faults))
        spec = config.faults[row - 1] if row else None
        fresh = MnaSystem(circuit)
        if row:
            fresh = fresh._solve(np.array(vector), fresh.fault_rows([spec]))[1]
        else:
            fresh = fresh.magnitudes(vector)[0]
        got = np.asarray(evaluate_at(circuit, spec, vector)).tobytes()
        assert got == fresh.tobytes(), (ladder, vector, spec)
        assert got == ensemble_for(circuit, config).magnitudes(vector)[row].tobytes()
    assert _kept_golden_step.cache_info().hits >= len(picks)


def test_a_failed_golden_solve_is_not_kept():
    # the golden LU raises: the same text on every call, and nothing kept
    from trajdiag.faultlib import _kept_golden_step

    floating = parse_netlist("V1 1 0 1\nR1 1 0 1\nR2 2 3 1\n.input V1\n.output 2")
    message = (
        "golden circuit failed: singular MNA system at omega=1 rad/s "
        "(condition number inf); check circuit connectivity"
    )
    _kept_golden_step.cache_clear()
    for fault in (None, FaultSpec("R1", 0.1), None, FaultSpec("R1", 0.1)):
        with pytest.raises(td.SimulationError) as failure:
            evaluate_at(floating, fault, [1.0, 2.0])
        assert str(failure.value) == message
        assert _kept_golden_step.cache_info().currsize == 0


def test_a_failed_fault_row_keeps_only_the_golden_solve():
    # halving R2 is singular, the golden circuit is not: the fault raises the
    # same text on a repeated call, and the kept golden solve still serves
    # the golden row bit for bit
    from trajdiag.acsim import MnaSystem
    from trajdiag.faultlib import _kept_golden_step

    circuit = parse_netlist(SINGULAR_R2)
    _kept_golden_step.cache_clear()
    texts = set()
    for _ in range(2):
        with pytest.raises(td.SimulationError) as failure:
            evaluate_at(circuit, FaultSpec("R2", -0.5), [1.0, 2.0])
        texts.add(str(failure.value))
    assert texts == {
        "fault (R2, -0.5) failed: singular MNA system at omega=1 rad/s "
        "(condition number 1.635e+17); check circuit connectivity"
    }
    assert _kept_golden_step.cache_info()[:2] == (1, 1)  # one hit, one miss
    golden = evaluate_at(circuit, None, [1.0, 2.0])
    assert np.asarray(golden).tobytes() == MnaSystem(circuit).magnitudes([1.0, 2.0])[0].tobytes()


def test_kept_golden_solves_are_few_small_and_read_only(biquad):
    from trajdiag.acsim import _golden_system
    from trajdiag.faultlib import _GOLDEN_SETS, _kept_golden_step

    assert _kept_golden_step.cache_info().maxsize == _GOLDEN_SETS <= 8
    system = _golden_system(biquad)
    _kept_golden_step.cache_clear()
    evaluate_at(biquad, FaultSpec("R1", 0.2), ORACLE_VECTOR)
    for array in _kept_golden_step(system, ORACLE_VECTOR):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    # a set larger than one solve block runs the block loop and keeps nothing
    omegas = np.geomspace(0.05, 20.0, 3 * system._block(2))
    _kept_golden_step.cache_clear()
    tracemalloc.start()
    try:
        values = evaluate_at(biquad, FaultSpec("R1", 0.2), omegas)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _kept_golden_step.cache_info().currsize == 0
    # the returned floats and tuple, and not a block's solutions (about 137 KiB)
    assert kept <= 40 * len(values) + 16 * 1024, kept


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 199),
    pick=st.integers(0, 1000),
    deviation=st.floats(-0.9, 3.0).filter(lambda d: abs(d - round(d, 1)) > 1e-3),
    omegas=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4),
)
def test_off_grid_evaluate_at_matches_direct_solve(seed, pick, deviation, omegas):
    circuit = parse_netlist(random_rlc_vcvs_netlist(np.random.default_rng(seed)))
    passives = circuit.passive_ids()
    spec = FaultSpec(passives[pick % len(passives)], deviation)
    reference = 20.0 * np.log10(np.abs(reference_gains(circuit, [spec], omegas)[1]))
    assert np.max(np.abs(np.asarray(evaluate_at(circuit, spec, omegas)) - reference)) <= 1e-9


def test_dictionary_entry_mismatch_rejected(biquad, biquad_faults):
    grid = log_grid(0.1, 10.0, 3)
    dictionary = build_dictionary(biquad, biquad_faults, grid)
    rebuilt = FaultDictionary(biquad_faults, dictionary.frequencies, dictionary.magnitudes_db)
    assert rebuilt == dictionary
    for magnitudes in (dictionary.magnitudes_db[:-1], dictionary.magnitudes_db[:, :2]):
        with pytest.raises(ValueError, match="do not match"):
            FaultDictionary(biquad_faults, dictionary.frequencies, magnitudes)


def test_dictionary_rejects_unsorted_grid(biquad, biquad_faults):
    for grid in ([1.0, 1.0], [2.0, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_dictionary(biquad, biquad_faults, grid)


def test_dictionary_views_equal_evaluate_at(biquad, biquad_faults):
    grid = log_grid(0.01, 100.0, 11)
    dictionary = build_dictionary(biquad, biquad_faults, grid)
    assert not dictionary.magnitudes_db.flags.writeable
    assert not dictionary.frequencies.flags.writeable
    frequencies = tuple(grid.tolist())
    assert dictionary.golden == ResponseCurve(frequencies, evaluate_at(biquad, None, grid))
    entries = dictionary.entries
    assert tuple(entries) == enumerate_faults(biquad_faults)
    for spec, curve in entries.items():
        assert curve == ResponseCurve(frequencies, evaluate_at(biquad, spec, grid)), spec


@pytest.mark.parametrize("case", ["biquad", "hz", "ladder"])
def test_dictionary_csv_matches_per_value_writer(tmp_path, biquad, biquad_faults, case):
    # the chunked writer must give the per-value reference's bytes:
    # the CLI's default biquad grid, a Hz grid relabelled in the freq
    # column, and a seeded R/C/L + vcvs ladder
    circuit, config, grid, labels = biquad, biquad_faults, log_grid(0.01, 100.0, 201), None
    if case == "hz":
        labels = log_grid(0.01, 10.0, 51)
        grid = labels * (2.0 * math.pi)
    elif case == "ladder":
        circuit = parse_netlist(random_rlc_vcvs_netlist(np.random.default_rng(3)))
        config = FaultConfig(circuit.passive_ids())
        grid = log_grid(0.05, 20.0, 101)
    dictionary = build_dictionary(circuit, config, grid)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_dictionary_csv(got, dictionary, frequencies=labels)
    reference_dictionary_csv(want, dictionary, frequencies=labels)
    assert got.read_bytes() == want.read_bytes()


def _ladder_netlist(rng, sections=8):
    """Doubly terminated RLC lowpass ladder, series L and shunt C per
    section: 2 + 2 * sections passives, 18 at the default."""
    def value():
        return f"{rng.uniform(0.5, 2.0):.6g}"

    lines = ["V1 in 0 1", f"RS in n1 {value()}"]
    for k in range(1, sections + 1):
        lines += [f"L{k} n{k} n{k + 1} {value()}", f"C{k} n{k + 1} 0 {value()}"]
    lines += [f"RL n{sections + 1} 0 {value()}", ".input V1", f".output n{sections + 1}"]
    return "\n".join(lines) + "\n"


NETLIST_IDS = {
    "percent-ids": ("R%1", "L%%2", "C%s"),
    "non-ascii-ids": ("R\u00b51", "L\u00e92", "C\u03a93"),
    "placeholder-ids": (f"R{_LABEL.decode()}1", f"L{_LABEL.decode() * 2}2", "C3"),
}


@pytest.mark.parametrize(
    "case", [*NETLIST_IDS, "ladder-hz", "wide", "one-point", "high-freq"]
)
def test_dictionary_csv_template_matches_reference(tmp_path, biquad, case):
    # each row's lines are built with a placeholder where the label goes,
    # and the label replaces it last: ids holding "%", non-ASCII letters
    # (UTF-8 in the file) or the placeholder itself come out as they are.
    # The 18-passive ladder at 201 points with Hz labels is the
    # benchmark's sweep shape; a row wider than a chunk is written in
    # parts; freq texts from 1e9 rad/s up are printed by % into the
    # column templates
    labels = None
    if case in NETLIST_IDS:
        r, l, c = NETLIST_IDS[case]
        circuit = parse_netlist(
            f"V1 in 0 1\n{r} in a 1k\n{l} a out 1m\n{c} out 0 1u\n.input V1\n.output out\n"
        )
        grid = log_grid(1e3, 1e6, 31)
    elif case == "ladder-hz":
        circuit = parse_netlist(_ladder_netlist(np.random.default_rng(801)))
        labels = log_grid(0.01, 2.0, 201)
        grid = labels * (2.0 * math.pi)
    elif case == "wide":
        circuit = parse_netlist(ONE_POLE_RC)
        grid = log_grid(0.01, 100.0, 2 * _CHUNK_VALUES + 5)
    elif case == "high-freq":
        circuit, grid = biquad, log_grid(1e7, 1e12, 31)
        assert grid[0] < _FAST_HIGH <= grid[-1]
    else:
        circuit, grid = biquad, [1.0]
    dictionary = build_dictionary(circuit, FaultConfig(circuit.passive_ids()), grid)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_dictionary_csv(got, dictionary, frequencies=labels)
    reference_dictionary_csv(want, dictionary, frequencies=labels)
    assert got.read_bytes() == want.read_bytes()
    rows = got.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + dictionary.magnitudes_db.size
    if case in NETLIST_IDS:
        assert {row.split(",")[0] for row in rows[1:]} == {"__golden__", *NETLIST_IDS[case]}


def _g17_texts(values):
    """``_format_g17`` of any number of values, chunk by chunk, as str."""
    values = np.asarray(values, dtype=float)
    return [
        bytes(row).replace(b"\0", b"").decode()
        for start in range(0, values.size, _CHUNK_VALUES)
        for row in _format_g17(values[start : start + _CHUNK_VALUES])
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_format_g17_matches_percent(values):
    assert _g17_texts(values) == ["%.17g" % v for v in values]


def _decade_carries():
    """The doubles next below each power of ten whose 17-digit rounding
    carries into that power's decade: '%.17g' prints the power itself."""
    carries = []
    for p in range(-323, 309):
        power = Decimal(10) ** p
        x = float(power)
        if Decimal(x) >= power:
            x = float(np.nextafter(x, 0.0))
        while x > 0.0 and Decimal("%.17g" % x) == power:
            carries.append(x)
            x = float(np.nextafter(x, 0.0))
    return carries


def test_format_g17_matches_percent_on_edge_classes():
    rng = np.random.default_rng(16)
    # powers of ten from 1e-6 to 1e18, and both ends of the table range
    # where they are not among them, with their neighbours up to 3 ulps away
    powers = np.union1d([10.0**p for p in range(-6, 19)], [_FAST_LOW, _FAST_HIGH])
    near = [powers]
    for step in (1, 2, 3):
        for way in (0.0, np.inf):
            moved = powers
            for _ in range(step):
                moved = np.nextafter(moved, way)
            near.append(moved)
    whole = rng.integers(10**15, 10**16, 20_000).astype(float)
    carries = _decade_carries()
    values = np.concatenate(
        [
            rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64),  # any bits
            rng.uniform(-200.0, 50.0, 20_000),  # dB magnitudes
            10.0 ** rng.uniform(-6.0, 18.0, 20_000),
            *near,
            whole + 0.25,  # below a tie
            whole + 0.5,  # exact ties at the 17th digit, both parities
            whole + 0.75,
            [1000000000000000.25, 1e-4, np.nextafter(1e-4, 0.0), 1e16, 1e17],
            [np.nextafter(1e17, 0.0), 0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308],
            [1.7976931348623157e308, 9.9999999999999995e-5, 99999999999999984.0],
            carries,
        ]
    )
    values = np.concatenate([values, -values])
    got = _g17_texts(values)
    mismatches = [(v, g) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
    assert not mismatches, mismatches[:5]
    assert _g17_texts([-0.0, 0.0]) == ["-0", "0"]
    # _digits has no carry to the next decade: the search finds carries
    # (1e-14 is one), and none lies in the table range
    assert 1e-14 in carries
    assert not [x for x in carries if _FAST_LOW <= x < _FAST_HIGH]


def test_dictionary_csv_working_memory_is_one_chunk(tmp_path):
    # the benchmark's sweep shape: a chunk's buffers (about 0.5 MiB), not
    # the whole file's 1.5 MB of text
    circuit = parse_netlist(_ladder_netlist(np.random.default_rng(801)))
    labels = log_grid(0.01, 2.0, 201)
    dictionary = build_dictionary(
        circuit, FaultConfig(circuit.passive_ids()), labels * (2.0 * math.pi)
    )
    assert dictionary.magnitudes_db.shape == (145, 201)
    path = tmp_path / "dictionary.csv"
    write_dictionary_csv(path, dictionary, frequencies=labels)  # builds the tables
    tracemalloc.start()
    try:
        write_dictionary_csv(path, dictionary, frequencies=labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**18, peak


def test_import_builds_no_writer_tables():
    # the writer's tables are built on its first call, not at import, so
    # commands that write no dictionary never build them
    code = (
        "import trajdiag, trajdiag.cli\n"
        "from trajdiag.faultlib import _text_tables\n"
        "print(_text_tables.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(td.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_dictionary_csv(tmp_path, biquad):
    config = FaultConfig(("R1", "C1"), range_low=0.9, range_high=1.1, step=0.1)
    dictionary = build_dictionary(biquad, config, log_grid(0.1, 10.0, 4))
    path = tmp_path / "dictionary.csv"
    write_dictionary_csv(path, dictionary)
    lines = path.read_text().splitlines()
    assert lines[0] == "component,deviation,freq,mag_db"
    assert len(lines) == 1 + (1 + 4) * 4  # header + (golden + 4 faults) x 4 points
    assert lines[1].startswith("__golden__,0,")
    groups = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert len(groups) == 5


@pytest.mark.parametrize("count", [1, 2, 4, 5])
def test_dictionary_csv_rejects_other_frequency_counts(tmp_path, biquad, count):
    config = FaultConfig(("R1", "C1"), range_low=0.9, range_high=1.1, step=0.1)
    dictionary = build_dictionary(biquad, config, log_grid(0.1, 10.0, 3))
    path = tmp_path / "dictionary.csv"
    with pytest.raises(ValueError, match=f"need 3 frequencies, got {count}"):
        write_dictionary_csv(path, dictionary, frequencies=[1.0] * count)
    write_dictionary_csv(path, dictionary, frequencies=[1.0, 2.0, 3.0])
    assert len(path.read_text().splitlines()) == 1 + (1 + 4) * 3


def test_ensemble_matches_single_path(biquad, biquad_faults):
    from trajdiag.faultlib import ensemble_for

    ensemble = ensemble_for(biquad, biquad_faults)
    omegas = np.asarray([0.25, 4.0])
    mags = ensemble.magnitudes(omegas)
    assert mags.shape == (57, 2)
    golden = evaluate_at(biquad, None, omegas)
    assert np.max(np.abs(mags[0] - np.asarray(golden))) <= 1e-12
    spec = enumerate_faults(biquad_faults)[13]
    single = evaluate_at(biquad, spec, omegas)
    assert np.max(np.abs(mags[14] - np.asarray(single))) <= 1e-12
