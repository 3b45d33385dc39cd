from dataclasses import replace

import numpy as np
import pytest

from trajdiag.acsim import MnaSystem, ResponseCurve, log_grid, solve_ac, sweep
from trajdiag.errors import NetlistError, SimulationError
from trajdiag.faultlib import FaultSpec
from trajdiag.netlist import Element, ElementKind, parse_netlist

from conftest import ONE_POLE_RC
from oracle_utils import apply_deviation, random_rlc_vcvs_netlist

ONE_POLE_RL = "V1 1 0 1\nL1 1 2 1\nR1 2 0 1\n.input V1\n.output 2\n"
DIVIDER = "V1 1 0 1\nR1 1 2 1\nR2 2 0 1\n.input V1\n.output 2\n"


@pytest.fixture(scope="module")
def biquad_tf(biquad):
    """Exact finite-gain transfer function of the bundled circuit.

    Independent oracle: the three nodal (KCL) equations of the t/sum/inv
    nodes plus the controlled-source relation, written down from the
    schematic and solved exactly over the rationals with sympy. This is a
    different formulation from the branch-current MNA under test.
    """
    import sympy as sp

    s = sp.symbols("s")
    vt, va, vn, vo = sp.symbols("vt va vn vo")
    values = {e.id: sp.Rational(str(e.value)) for e in biquad.elements}
    g1, g2, g3, g4, g5 = (1 / values[f"R{i}"] for i in range(1, 6))
    c1, c2 = values["C1"], values["C2"]
    gain = values["E1"]
    vin = sp.Integer(1)
    equations = [
        sp.Eq((vin - vt) * g1 + (0 - vt) * g2 + (va - vt) * g3, 0),
        sp.Eq((vt - va) * g3 + (vo - va) * g4 + (vn - va) * g5 + (0 - va) * s * c1, 0),
        sp.Eq((va - vn) * g5 + (vo - vn) * s * c2, 0),
        sp.Eq(vo, gain * (0 - vn)),
    ]
    solution = sp.solve(equations, [vt, va, vn, vo], dict=True)[0]
    transfer = sp.simplify(solution[vo])
    return sp.lambdify(s, transfer, "numpy")


def test_rc_analytic_over_50_frequencies():
    circuit = parse_netlist(ONE_POLE_RC)
    omegas = np.geomspace(1e-3, 1e3, 50)
    for omega in omegas:
        computed = solve_ac(circuit, omega)
        analytic = 1.0 / (1.0 + 1j * omega)
        assert abs(computed - analytic) / abs(analytic) <= 1e-9


def test_rc_known_points():
    circuit = parse_netlist(ONE_POLE_RC)
    gain = solve_ac(circuit, 1.0)
    assert abs(gain) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
    assert 20.0 * np.log10(abs(gain)) == pytest.approx(-3.0103, abs=5e-5)
    # DC limit of a lowpass
    assert 20.0 * np.log10(abs(solve_ac(circuit, 1e-6))) == pytest.approx(0.0, abs=1e-9)


def test_rl_analytic():
    circuit = parse_netlist(ONE_POLE_RL)
    for omega in np.geomspace(1e-3, 1e3, 50):
        computed = solve_ac(circuit, omega)
        analytic = 1.0 / (1.0 + 1j * omega)  # R/(R + jwL) with R = L = 1
        assert abs(computed - analytic) / abs(analytic) <= 1e-9


def test_resistive_divider_flat():
    circuit = parse_netlist(DIVIDER)
    for omega in (1e-3, 1.0, 42.0, 1e4):
        assert abs(solve_ac(circuit, omega)) == pytest.approx(0.5, rel=1e-12)


def test_biquad_against_symbolic_oracle(biquad, biquad_tf):
    omegas = np.geomspace(1e-3, 1e3, 50)
    for omega in omegas:
        computed = solve_ac(biquad, omega)
        oracle = complex(biquad_tf(1j * omega))
        assert abs(computed - oracle) / abs(oracle) <= 1e-9


def test_biquad_deviated_against_symbolic_oracle(biquad, biquad_faults):
    # same oracle with R3 at +20%: only the g3 conductance changes
    import sympy as sp

    from trajdiag.faultlib import FaultSpec

    s = sp.symbols("s")
    vt, va, vn, vo = sp.symbols("vt va vn vo")
    g1 = g2 = g4 = g5 = sp.Integer(1)
    g3 = 1 / sp.Rational("1.2")
    c1, c2 = sp.Integer(2), sp.Rational("0.5")
    gain = sp.Integer(10) ** 6
    equations = [
        sp.Eq((1 - vt) * g1 + (0 - vt) * g2 + (va - vt) * g3, 0),
        sp.Eq((vt - va) * g3 + (vo - va) * g4 + (vn - va) * g5 + (0 - va) * s * c1, 0),
        sp.Eq((va - vn) * g5 + (vo - vn) * s * c2, 0),
        sp.Eq(vo, gain * (0 - vn)),
    ]
    transfer = sp.lambdify(
        s, sp.solve(equations, [vt, va, vn, vo], dict=True)[0][vo], "numpy"
    )
    deviated = apply_deviation(biquad, FaultSpec("R3", 0.2))
    for omega in np.geomspace(1e-2, 1e2, 20):
        computed = solve_ac(deviated, omega)
        oracle = complex(transfer(1j * omega))
        assert abs(computed - oracle) / abs(oracle) <= 1e-9


def test_biquad_at_pole_frequency(biquad, biquad_tf):
    curve = sweep(biquad, [0.5, 1.0, 2.0])
    expected = 20.0 * np.log10(abs(complex(biquad_tf(1j))))
    assert curve.magnitudes_db[1] == pytest.approx(expected, rel=1e-9)


def test_sweep_shape_and_monotonicity():
    circuit = parse_netlist(ONE_POLE_RC)
    grid = log_grid(1e-2, 1e2, 201)
    curve = sweep(circuit, grid)
    assert len(curve.frequencies) == 201
    assert len(curve.magnitudes_db) == 201
    diffs = np.diff(curve.magnitudes_db)
    assert np.all(diffs <= 0.0)  # lowpass magnitude never rises


def test_sweep_matches_solve_ac_pointwise(biquad):
    # dB conversion may differ by 1 ulp between array sizes (SIMD paths),
    # hence the 1e-12 dB band rather than exact equality
    grid = log_grid(0.1, 10.0, 7)
    curve = sweep(biquad, grid)
    for freq, mag in zip(curve.frequencies, curve.magnitudes_db):
        assert abs(mag - 20.0 * np.log10(abs(solve_ac(biquad, freq)))) <= 1e-12


def test_linearity_amplitude_invariance():
    base = parse_netlist(ONE_POLE_RC)
    doubled = parse_netlist(ONE_POLE_RC.replace("V1 1 0 1", "V1 1 0 2"))
    for omega in (0.1, 1.0, 10.0):
        g1 = solve_ac(base, omega)
        g2 = solve_ac(doubled, omega)
        assert g2 == pytest.approx(g1, rel=1e-13)  # gain is amplitude invariant
        v1 = g1 * 1.0
        v2 = g2 * 2.0
        assert abs(v2) == pytest.approx(2.0 * abs(v1), rel=1e-13)


def test_continuity_probe(biquad):
    for omega in (0.03, 0.3, 1.0, 3.0, 30.0):
        a = 20.0 * np.log10(abs(solve_ac(biquad, omega)))
        b = 20.0 * np.log10(abs(solve_ac(biquad, omega * (1.0 + 1e-9))))
        assert abs(a - b) < 1e-6


def test_singular_system_reports_condition():
    # nodes 2/3 float: no DC path anywhere to the rest of the circuit
    floating = parse_netlist(
        "V1 1 0 1\nR1 1 0 1\nR2 2 3 1\n.input V1\n.output 2"
    )
    with pytest.raises(SimulationError, match="singular|condition"):
        solve_ac(floating, 1.0)


def test_solve_ac_raises_where_its_matrix_overflows():
    # at 1e9 rad/s w*C is inf, and the LU still returns exactly 0 where the
    # gain (about -1e-309j) is representable: that is a failure, not 0j; at
    # 1e8 rad/s every entry is in range and the tiny gain is returned
    circuit = parse_netlist("V1 in 0 1\nR1 in out 1\nC1 out 0 1e300\n.input V1\n.output out\n")
    with pytest.raises(SimulationError) as failure:
        solve_ac(circuit, 1e9)
    assert str(failure.value) == (
        "golden circuit failed: an MNA matrix entry is out of floating-point range "
        "at omega=1e+09 rad/s; check element values"
    )
    assert solve_ac(circuit, 1e8) == -1e-308j


def test_sweep_raises_where_its_matrix_overflows():
    # the same overflow through the block solve: the LU's exact 0 is named
    # by its matrix, not as a zero output magnitude
    circuit = parse_netlist("V1 in 0 1\nR1 in out 1\nC1 out 0 1e300\n.input V1\n.output out\n")
    with pytest.raises(SimulationError) as failure:
        sweep(circuit, [1e9])
    assert str(failure.value) == (
        "golden circuit failed: an MNA matrix entry is out of floating-point range "
        "at omega=1e+09 rad/s; check element values"
    )


def test_failure_without_a_cause_names_its_frequency():
    # a row that failed where its matrix is finite and well conditioned
    from trajdiag.acsim import _raise_failure

    with pytest.raises(SimulationError) as failure:
        _raise_failure(np.array([2.5]), np.eye(2, dtype=complex)[None], "golden circuit")
    assert str(failure.value) == "golden circuit failed: MNA solve failed at omega=2.5 rad/s"


def test_ground_output_is_error():
    with pytest.raises(NetlistError, match="ground"):
        parse_netlist("V1 1 0 1\nR1 1 0 1\n.input V1\n.output 0")


@pytest.mark.parametrize(
    "changes,fragment",
    [
        (dict(output_node="0"), "output is the ground node"),
        (dict(output_node="nope"), "unknown node 'nope'"),
        (dict(input_source="R1"), "'R1' is not a voltage source"),
        (dict(input_source="V9"), "unknown element 'V9'"),
    ],
)
def test_hand_built_circuit_rejected(changes, fragment):
    # the solver applies parse_netlist's circuit rules to hand-built circuits
    circuit = replace(parse_netlist(DIVIDER), **changes)
    with pytest.raises(ValueError, match=fragment):
        sweep(circuit, [1.0, 2.0])


def test_second_voltage_source_rejected():
    circuit = parse_netlist(DIVIDER)
    extra = Element("V2", ElementKind.VSOURCE, ("2", "0"), 1.0)
    with pytest.raises(ValueError, match="exactly one voltage source is required, found 2"):
        solve_ac(replace(circuit, elements=circuit.elements + (extra,)), 1.0)


def test_frequency_validation():
    circuit = parse_netlist(ONE_POLE_RC)
    with pytest.raises(ValueError):
        solve_ac(circuit, 0.0)
    with pytest.raises(ValueError):
        solve_ac(circuit, -1.0)
    with pytest.raises(ValueError):
        sweep(circuit, [1.0, 1.0])
    with pytest.raises(ValueError):
        sweep(circuit, [2.0, 1.0])
    with pytest.raises(ValueError):
        sweep(circuit, [])


def test_response_curve_invariants():
    with pytest.raises(ValueError):
        ResponseCurve((1.0, 2.0), (0.0,))
    with pytest.raises(ValueError):
        ResponseCurve((2.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        ResponseCurve((-1.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        ResponseCurve((1.0, 2.0), (0.0, float("inf")))
    with pytest.raises(ValueError):
        ResponseCurve((), ())


def test_log_grid():
    grid = log_grid(0.01, 100.0, 201)
    assert len(grid) == 201
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(100.0)
    assert np.all(np.diff(grid) > 0)
    assert len(log_grid(1.0, 2.0, 1)) == 1
    with pytest.raises(ValueError):
        log_grid(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        log_grid(1.0, 2.0, 0)


def test_mna_unknown_count(biquad):
    system = MnaSystem(biquad)
    # 5 non-ground nodes + source current + vcvs current
    assert system.size == 7


def test_a_self_loop_adds_nothing():
    # a self-loop's stamp column is zero, and so is its stamp, bit for bit:
    # no +-10 from R9 passes through g[out, out]
    loop = MnaSystem(parse_netlist("V1 in 0 1\nR1 in out 3\nR9 out out 0.1\nC1 out 0 1\n"
                                   ".input V1\n.output out\n"))
    plain = MnaSystem(parse_netlist("V1 in 0 1\nR1 in out 3\nC1 out 0 1\n.input V1\n.output out\n"))
    assert loop.g.tobytes() == plain.g.tobytes()
    assert loop.c.tobytes() == plain.c.tobytes()
    assert loop.g[loop.out_index, loop.out_index] == 1.0 / 3.0
    assert not loop.rhs[:, 2].any()
    assert np.array_equal(np.delete(loop.rhs, 2, axis=1), plain.rhs)


@pytest.mark.parametrize("seed", range(20))
def test_a_fault_changes_its_matrices_by_its_own_stamp_column(seed):
    # the premise of the rank-one solve, on the matrices: a deviated passive's
    # own MNA matrices are the golden ones plus (dg, dc) * u u^T, with dg
    # and dc from fault_rows and u the passive's column of rhs
    circuit = parse_netlist(random_rlc_vcvs_netlist(np.random.default_rng(seed)))
    system = MnaSystem(circuit)
    faults = [FaultSpec(k, d) for k in circuit.passive_ids() for d in (-0.5, -0.1, 0.3, 2.0)]
    _, (columns, dg, jdc) = system.fault_rows(faults)
    for fault, column, dg_k, dc_k in zip(faults, columns, dg, jdc.imag):
        u = system.rhs[:, column].real
        faulty = MnaSystem(apply_deviation(circuit, fault))
        np.testing.assert_allclose(faulty.g, system.g + dg_k * np.outer(u, u), rtol=1e-14, atol=0)
        np.testing.assert_allclose(faulty.c, system.c + dc_k * np.outer(u, u), rtol=1e-14, atol=0)
        assert np.array_equal(faulty.rhs, system.rhs)
