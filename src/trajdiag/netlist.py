"""Parsing and rendering of the toolkit's SPICE-like netlist format.

The accepted grammar is deliberately small:

* one element or directive per line; fields are whitespace separated
* ``*`` in column one starts a comment line; blank lines are skipped
* the first letter of an element id selects its kind (case insensitive):
  ``R`` resistor, ``C`` capacitor, ``L`` inductor, ``E`` vcvs,
  ``V`` independent voltage source; an id holds no ``,``
* two-terminal elements: ``<id> <n+> <n-> <value>``
* vcvs: ``<id> <out+> <out-> <in+> <in-> <gain>``
* directives: ``.input <source id>`` and ``.output <node>``
* values are plain floats or engineering-suffixed numbers
  (``t g meg k m u n p f``, e.g. ``1k``, ``2.2u``, ``1e-6``)
* node ``0`` is ground and must be referenced somewhere; it is never the output

Parsed circuits are immutable. :func:`deviation_target` checks a fault
against a circuit; the solver applies it as a rank-one update.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .errors import NetlistError


class ElementKind(Enum):
    RESISTOR = "resistor"
    CAPACITOR = "capacitor"
    INDUCTOR = "inductor"
    VCVS = "vcvs"
    VSOURCE = "vsource"


KIND_FOR_LETTER = {
    "R": ElementKind.RESISTOR,
    "C": ElementKind.CAPACITOR,
    "L": ElementKind.INDUCTOR,
    "E": ElementKind.VCVS,
    "V": ElementKind.VSOURCE,
}

_ARITY = {
    ElementKind.RESISTOR: 2,
    ElementKind.CAPACITOR: 2,
    ElementKind.INDUCTOR: 2,
    ElementKind.VCVS: 4,
    ElementKind.VSOURCE: 2,
}

PASSIVE_KINDS = frozenset(
    {ElementKind.RESISTOR, ElementKind.CAPACITOR, ElementKind.INDUCTOR}
)

GROUND = "0"

_SUFFIX = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

_VALUE_RE = re.compile(
    r"(?i)^([+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)(meg|[tgkmunpf])?$"
)


def parse_value(token: str) -> float:
    """Parse a numeric token with an optional engineering suffix."""
    m = _VALUE_RE.match(token)
    if m is None:
        raise ValueError(f"malformed value {token!r}")
    number, suffix = m.groups()
    scale = _SUFFIX[suffix.lower()] if suffix else 1.0
    value = float(number) * scale
    if not math.isfinite(value):
        raise ValueError(f"value {token!r} is out of floating-point range")
    return value


@dataclass(frozen=True)
class Element:
    """One circuit element; ``nodes`` is (n+, n-) or (out+, out-, in+, in-)."""

    id: str
    kind: ElementKind
    nodes: tuple[str, ...]
    value: float


@dataclass(frozen=True)
class Circuit:
    """A validated element graph with a designated source and output node."""

    elements: tuple[Element, ...]
    input_source: str
    output_node: str

    @property
    def nodes(self) -> frozenset[str]:
        """All node names referenced by any element (including ground)."""
        names: set[str] = set()
        for element in self.elements:
            names.update(element.nodes)
        return frozenset(names)

    def element(self, element_id: str) -> Element:
        for element in self.elements:
            if element.id == element_id:
                return element
        raise ValueError(f"unknown component {element_id!r}")

    def passive_ids(self) -> tuple[str, ...]:
        """Ids of all R/C/L elements, in netlist order."""
        return tuple(e.id for e in self.elements if e.kind in PASSIVE_KINDS)


def parse_netlist(text: str) -> Circuit:
    """Parse netlist source text into a validated :class:`Circuit`."""
    if not text or not text.strip():
        raise NetlistError("empty netlist")

    elements: list[Element] = []
    seen_ids: set[str] = set()
    input_source: str | None = None
    output_node: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        tokens = line.split()

        if tokens[0].startswith("."):
            directive = tokens[0].lower()
            if directive == ".input":
                if len(tokens) != 2:
                    raise NetlistError(".input expects exactly one element id", lineno)
                if input_source is not None:
                    raise NetlistError("duplicate .input directive", lineno)
                input_source = tokens[1]
            elif directive == ".output":
                if len(tokens) != 2:
                    raise NetlistError(".output expects exactly one node name", lineno)
                if output_node is not None:
                    raise NetlistError("duplicate .output directive", lineno)
                output_node = tokens[1]
            else:
                raise NetlistError(f"unknown directive {tokens[0]!r}", lineno)
            continue

        ident = tokens[0]
        kind = KIND_FOR_LETTER.get(ident[0].upper())
        if kind is None:
            raise NetlistError(
                f"unknown element kind {ident[0]!r} in {ident!r}", lineno
            )
        arity = _ARITY[kind]
        if len(tokens) != arity + 2:
            raise NetlistError(
                f"{ident}: expected {arity + 2} fields, got {len(tokens)}", lineno
            )
        if "," in ident:
            # ids label the rows of the CSV outputs
            raise NetlistError(f"element id {ident!r} contains a comma", lineno)
        if ident in seen_ids:
            raise NetlistError(f"duplicate element id {ident!r}", lineno)
        try:
            value = parse_value(tokens[arity + 1])
        except ValueError as exc:
            raise NetlistError(f"{ident}: {exc}", lineno) from None
        if value <= 0.0:
            raise NetlistError(
                f"{ident}: value must be positive, got {tokens[arity + 1]}", lineno
            )
        elements.append(Element(ident, kind, tuple(tokens[1 : arity + 1]), value))
        seen_ids.add(ident)

    if not elements:
        raise NetlistError("netlist defines no elements")
    if input_source is None:
        raise NetlistError("missing .input directive")
    if output_node is None:
        raise NetlistError("missing .output directive")

    circuit = Circuit(tuple(elements), input_source, output_node)
    try:
        check_circuit(circuit)
    except ValueError as exc:
        raise NetlistError(str(exc)) from None
    return circuit


def check_circuit(circuit: Circuit) -> None:
    """Raise ValueError unless ``circuit`` can be solved as a transfer function.

    Ground must be referenced, the output must be a non-ground node of the
    circuit, and the input must be its one and only voltage source.
    :func:`parse_netlist` applies these rules to every netlist; the solver
    applies them to hand-built circuits too.
    """
    nodes = circuit.nodes
    if GROUND not in nodes:
        raise ValueError('no element references the ground node "0"')
    if circuit.output_node not in nodes:
        raise ValueError(f".output names unknown node {circuit.output_node!r}")
    if circuit.output_node == GROUND:
        raise ValueError(".output is the ground node; its response is identically zero")
    source = next((e for e in circuit.elements if e.id == circuit.input_source), None)
    if source is None:
        raise ValueError(f".input names unknown element {circuit.input_source!r}")
    if source.kind is not ElementKind.VSOURCE:
        raise ValueError(f".input element {circuit.input_source!r} is not a voltage source")
    n_sources = sum(1 for e in circuit.elements if e.kind is ElementKind.VSOURCE)
    if n_sources != 1:
        raise ValueError(f"exactly one voltage source is required, found {n_sources}")


def render_netlist(circuit: Circuit) -> str:
    """Render a circuit back to netlist text; round-trips through parse."""
    lines = [f"{e.id} {' '.join(e.nodes)} {e.value!r}" for e in circuit.elements]
    lines.append(f".input {circuit.input_source}")
    lines.append(f".output {circuit.output_node}")
    return "\n".join(lines) + "\n"


def deviation_target(circuit: Circuit, fault) -> Element:
    """The passive element ``fault`` deviates, at its nominal value.

    ``fault`` is anything with ``component`` and ``deviation`` attributes
    (see ``faultlib.FaultSpec``). Raises ValueError when the component is
    unknown or not passive, or when the deviation would make it non-positive.
    """
    element = circuit.element(fault.component)
    if element.kind not in PASSIVE_KINDS:
        raise ValueError(
            f"{element.id}: only resistor/capacitor/inductor values can be deviated"
        )
    if 1.0 + fault.deviation <= 0.0:
        raise ValueError(
            f"deviation {fault.deviation} would make {element.id} non-positive"
        )
    return element
