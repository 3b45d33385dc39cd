import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiag.data import biquad_path
from trajdiag.errors import NetlistError
from trajdiag.faultlib import FaultSpec
from trajdiag.netlist import (
    KIND_FOR_LETTER,
    Circuit,
    Element,
    ElementKind,
    parse_netlist,
    parse_value,
    render_netlist,
)

from conftest import ONE_POLE_RC
from oracle_utils import apply_deviation


def test_parse_canonical_one_pole():
    circuit = parse_netlist("V1 1 0 1\nR1 1 2 1000\nC1 2 0 1e-6\n.input V1\n.output 2")
    assert len(circuit.elements) == 3
    assert circuit.input_source == "V1"
    assert circuit.output_node == "2"
    assert circuit.nodes == {"0", "1", "2"}
    r1 = circuit.element("R1")
    assert r1.kind is ElementKind.RESISTOR
    assert r1.nodes == ("1", "2")
    assert r1.value == 1000.0


def test_unknown_element_kind():
    with pytest.raises(NetlistError, match="line 1.*'Q'"):
        parse_netlist("Q1 1 2 3 model")


def test_comments_and_blank_lines_ignored():
    text = "* title\n\nV1 1 0 1\n* mid comment\nR1 1 0 1\n\n.input V1\n.output 1\n"
    assert len(parse_netlist(text).elements) == 2


def test_shipped_biquad_shape(biquad):
    kinds = [e.kind for e in biquad.elements]
    assert kinds.count(ElementKind.RESISTOR) == 5
    assert kinds.count(ElementKind.CAPACITOR) == 2
    assert kinds.count(ElementKind.VCVS) == 1
    assert kinds.count(ElementKind.VSOURCE) == 1
    assert biquad.passive_ids() == ("R1", "R2", "R3", "R4", "R5", "C1", "C2")
    assert biquad.element("E1").nodes == ("out", "0", "0", "inv")


@pytest.mark.parametrize(
    "token,expected",
    [
        ("1000", 1000.0),
        ("1k", 1000.0),
        ("1K", 1000.0),
        ("2.2u", 2.2e-6),
        ("1e-6", 1e-6),
        ("1MEG", 1e6),
        ("1meg", 1e6),
        ("3m", 3e-3),
        (".5", 0.5),
        ("4.7n", 4.7e-9),
        ("-2p", -2e-12),
        ("1.5E3", 1500.0),
        ("10f", 10e-15),
        ("2g", 2e9),
        ("1t", 1e12),
    ],
)
def test_engineering_notation(token, expected):
    assert parse_value(token) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("token", ["", "abc", "1x", "1kk", "1.2.3", "1e", "--3"])
def test_malformed_values(token):
    with pytest.raises(ValueError):
        parse_value(token)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("R1 1 0 abc\n.input V1\n.output 1", "line 1"),
        ("V1 1 0 1\nR1 1 0 -5\n.input V1\n.output 1", "positive"),
        ("V1 1 0 1\nR1 1 0 0\n.input V1\n.output 1", "positive"),
        ("V1 1 0 1\nR1 1 0 1\nR1 1 0 2\n.input V1\n.output 1", "duplicate element"),
        ("V1 1 0 1\nR1 1 0 1\n.output 1", "missing .input"),
        ("V1 1 0 1\nR1 1 0 1\n.input V1", "missing .output"),
        ("V1 1 2 1\nR1 1 2 1\n.input V1\n.output 2", 'ground node "0"'),
        ("V1 1 0 1\nR1 1 0 1\n.tran 1\n.input V1\n.output 1", "unknown directive"),
        ("V1 1 0 1\nR1 1 0\n.input V1\n.output 1", "expected 4 fields"),
        ("V1 1 0 1\nE1 2 0 1 1\n.input V1\n.output 2", "expected 6 fields"),
        ("V1 1 0 1\nR1 1 0 1\n.input R1\n.output 1", "not a voltage source"),
        ("V1 1 0 1\nR1 1 0 1\n.input V9\n.output 1", "unknown element 'V9'"),
        ("V1 1 0 1\nR1 1 0 1\n.input V1\n.output 9", "unknown node '9'"),
        ("V1 1 0 1\nV2 1 0 1\n.input V1\n.output 1", "exactly one voltage source"),
        ("V1 1 0 1\nR1 1 0 1\n.input V1\n.input V1\n.output 1", "duplicate .input"),
        ("V1 1 0 1\nC1 1 0 1e999\n.input V1\n.output 1", "line 2: C1: value '1e999'"),
        ("V1 1 0 1\nC1 1 0 1e306k\n.input V1\n.output 1", "line 2: C1: value '1e306k'"),
        ("V1 1 0 1\nR1,x 1 0 1\n.input V1\n.output 1", "line 2: element id 'R1,x' contains a comma"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(NetlistError, match=fragment.replace("(", "").replace(")", "")):
        parse_netlist(text)


def test_percent_in_ids_accepted():
    # only a comma is barred from an id; a "%" reaches the CSV rows as it is
    circuit = parse_netlist("V1 1 0 1\nR%1 1 2 1\nC%s 2 0 1\n.input V1\n.output 2")
    assert circuit.passive_ids() == ("R%1", "C%s")


def test_round_trip_biquad(biquad):
    assert parse_netlist(render_netlist(biquad)) == biquad


def test_round_trip_random_circuits():
    import random

    rng = random.Random(20240601)
    kinds = [
        (ElementKind.RESISTOR, "R"),
        (ElementKind.CAPACITOR, "C"),
        (ElementKind.INDUCTOR, "L"),
    ]
    for _ in range(25):
        elements = [Element("V1", ElementKind.VSOURCE, ("n1", "0"), rng.uniform(0.5, 3))]
        n_nodes = rng.randint(2, 6)
        for index in range(rng.randint(1, 8)):
            kind, prefix = rng.choice(kinds)
            a = rng.randint(0, n_nodes)
            b = (a + rng.randint(1, n_nodes)) % (n_nodes + 1)
            nodes = (f"n{a}" if a else "0", f"n{b}" if b else "0")
            elements.append(
                Element(f"{prefix}{index}", kind, nodes, 10 ** rng.uniform(-9, 6))
            )
        if rng.random() < 0.5:
            elements.append(
                Element("E1", ElementKind.VCVS, ("n1", "0", "n2", "0"), 1e6)
            )
        circuit = Circuit(tuple(elements), "V1", "n1")
        assert parse_netlist(render_netlist(circuit)) == circuit


_NODE = st.sampled_from(["0", "1", "n2", "out", "X_3"])
_VALUE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def circuits(draw):
    """Valid circuits: one source into node 1, passives and vcvs on a node pool."""
    elements = [Element("V1", ElementKind.VSOURCE, ("1", "0"), draw(_VALUE))]
    for index in range(draw(st.integers(1, 6))):
        letter = draw(st.sampled_from("RCLErcl"))
        kind = KIND_FOR_LETTER[letter.upper()]
        arity = 4 if kind is ElementKind.VCVS else 2
        suffix = draw(st.from_regex(r"[A-Za-z0-9_]{0,3}", fullmatch=True))
        nodes = tuple(draw(_NODE) for _ in range(arity))
        elements.append(Element(f"{letter}{index}{suffix}", kind, nodes, draw(_VALUE)))
    output = draw(st.sampled_from(sorted({n for e in elements for n in e.nodes} - {"0"})))
    return Circuit(tuple(elements), "V1", output)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuits())
def test_render_parse_round_trip_property(circuit):
    assert parse_netlist(render_netlist(circuit)) == circuit


def test_circuit_hash_is_computed_once_and_not_pickled():
    from trajdiag.acsim import _golden_system

    text = biquad_path().read_text()
    first, second = parse_netlist(text), parse_netlist(text)
    _golden_system.cache_clear()
    # two parses are one circuit: one golden system
    assert _golden_system(first) is _golden_system(second)
    assert hash(first) == hash((first.elements, first.input_source, first.output_node))
    # one value apart is another circuit
    other = parse_netlist(text.replace("C2 inv out 0.5", "C2 inv out 0.55"))
    assert other != first
    assert _golden_system(other) is not _golden_system(first)
    assert _golden_system.cache_info().currsize == 2
    # a string's hash differs between processes, so the cached one stays home
    assert "_hash" in vars(first)
    copy = pickle.loads(pickle.dumps(first))
    assert "_hash" not in vars(copy)
    assert copy == first and hash(copy) == hash(first)


def test_apply_deviation_scales_value():
    circuit = parse_netlist("V1 1 0 1\nR1 1 2 1000\nC1 2 0 1e-6\n.input V1\n.output 2")
    out = apply_deviation(circuit, FaultSpec("R1", 0.20))
    assert out.element("R1").value == pytest.approx(1200.0, rel=1e-15)
    # the paper's lower range endpoint: 60% of nominal
    out = apply_deviation(circuit, FaultSpec("C1", -0.40))
    assert out.element("C1").value == pytest.approx(0.6e-6, rel=1e-15)


def test_apply_deviation_identity():
    circuit = parse_netlist(ONE_POLE_RC)
    assert apply_deviation(circuit, FaultSpec("R1", 0.0)) == circuit


def test_apply_deviation_is_pure():
    circuit = parse_netlist(ONE_POLE_RC)
    before = circuit.element("R1").value
    out = apply_deviation(circuit, FaultSpec("R1", 0.3))
    assert circuit.element("R1").value == before
    assert out is not circuit
    # exactly one element differs
    diffs = [
        (a, b) for a, b in zip(circuit.elements, out.elements) if a != b
    ]
    assert len(diffs) == 1 and diffs[0][0].id == "R1"


def test_apply_deviation_inverse_restores():
    circuit = parse_netlist(ONE_POLE_RC)
    for deviation in (0.4, -0.4, 0.1, 2.5):
        forward = apply_deviation(circuit, FaultSpec("R1", deviation))
        inverse = 1.0 / (1.0 + deviation) - 1.0
        back = apply_deviation(forward, FaultSpec("R1", inverse))
        assert back.element("R1").value == pytest.approx(
            circuit.element("R1").value, rel=1e-12
        )


def test_apply_deviation_errors():
    from types import SimpleNamespace

    circuit = parse_netlist(ONE_POLE_RC)
    with pytest.raises(ValueError, match="unknown component"):
        apply_deviation(circuit, FaultSpec("R9", 0.1))
    with pytest.raises(ValueError):
        FaultSpec("R1", -1.0)  # rejected at construction already
    with pytest.raises(ValueError, match="non-positive"):
        apply_deviation(circuit, SimpleNamespace(component="R1", deviation=-1.0))
    biq = parse_netlist(
        "V1 1 0 1\nR1 1 2 1\nE1 3 0 2 0 1e6\nR2 3 2 1\n.input V1\n.output 3"
    )
    with pytest.raises(ValueError, match="only resistor/capacitor/inductor"):
        apply_deviation(biq, FaultSpec("E1", 0.1))
