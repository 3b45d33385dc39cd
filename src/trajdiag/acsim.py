"""Complex AC small-signal analysis via modified nodal analysis.

The MNA matrix of every supported circuit splits as ``A(w) = G + j*w*C``
with real ``G`` and ``C``: resistor stamps, source/vcvs branch rows and
their incidence live in ``G``; capacitor stamps and the inductor branch
reactance live in ``C``. Frequencies are angular (rad/s) throughout this
module; the CLI converts from Hz when so configured. Magnitudes are
reported in dB.

Every AC response in the package comes from :meth:`MnaSystem.transfer`.
A fault deviates one passive, which changes one two-terminal stamp, so a
faulty matrix is ``A_0(w) + delta(w) u u^T``; one LU of the golden
``A_0(w)`` with right-hand sides ``[b | U]`` (the source vector and the
stamp column of every passive) then gives every faulty output by the
Sherman-Morrison formula (Sherman & Morrison 1950). Frequencies are
solved in blocks of at most ``_BLOCK_ENTRIES`` complex entries, so memory
stays at a few MB for any number of faults and frequencies; each
frequency is its own LU, so results do not depend on blocking.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SimulationError
from .netlist import (
    GROUND,
    PASSIVE_KINDS,
    Circuit,
    ElementKind,
    check_circuit,
    deviation_target,
)

_BRANCH_KINDS = (ElementKind.VSOURCE, ElementKind.VCVS, ElementKind.INDUCTOR)

# frequencies x size x (size + 1 + passives) complex entries per batched solve;
# the GA's biquad solve (8 x 7 x 15) fits in one block, the 18-passive ladder
# at 201 points (19 x 38 per frequency) takes three
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ResponseCurve:
    """Magnitude response sampled on a strictly increasing frequency grid."""

    frequencies: tuple[float, ...]
    magnitudes_db: tuple[float, ...]

    def __post_init__(self):
        if len(self.frequencies) != len(self.magnitudes_db):
            raise ValueError("frequency and magnitude lists differ in length")
        if not self.frequencies:
            raise ValueError("empty response curve")
        freqs = np.asarray(self.frequencies)
        if freqs[0] <= 0.0 or np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequencies must be positive and strictly increasing")
        if not np.all(np.isfinite(self.magnitudes_db)):
            raise ValueError("non-finite magnitude in response curve")


class MnaSystem:
    """Stamped golden MNA matrices of a circuit, plus rank-one fault rows.

    Unknowns are the non-ground node voltages (in first-appearance order)
    followed by one branch current per voltage source, vcvs and inductor.
    ``g`` and ``c`` are the golden (size, size) matrices. ``rhs`` is ``[b |
    U]``: the unit source vector, then the stamp column ``u`` of every
    passive element in netlist order (``e_i - e_j`` for an R or C between
    nodes i and j, ``e_row`` for an inductor's branch row). Every system of
    a circuit solves these same right-hand sides, so a fault's row does not
    depend on which other faults share the solve. Row 0 of every result is
    the golden circuit; :meth:`with_faults` adds one row per fault.
    ``labels`` name the rows in errors. :func:`_golden_system` caches one
    system per circuit.
    """

    __slots__ = (
        "labels", "g", "c", "rhs", "out_index", "size", "_circuit", "_column", "_updates",
    )

    def __init__(self, circuit: Circuit):
        node_index: dict[str, int] = {}
        for element in circuit.elements:
            for node in element.nodes:
                if node != GROUND and node not in node_index:
                    node_index[node] = len(node_index)
        check_circuit(circuit)
        branches = [e for e in circuit.elements if e.kind in _BRANCH_KINDS]
        passives = [e for e in circuit.elements if e.kind in PASSIVE_KINDS]

        n_nodes = len(node_index)
        size = n_nodes + len(branches)
        g = np.zeros((size, size))
        c = np.zeros((size, size))
        # row ``size`` of the right-hand sides stands for ground and is dropped
        rhs = np.zeros((size + 1, 1 + len(passives)), dtype=complex)
        column = {e.id: 1 + k for k, e in enumerate(passives)}

        def idx(node: str) -> int:
            return size if node == GROUND else node_index[node]

        def stamp(mat, i, j, val):
            if i < size and j < size:
                mat[i, j] += val

        branch_row = {e.id: n_nodes + k for k, e in enumerate(branches)}

        for element in circuit.elements:
            kind = element.kind
            if kind is ElementKind.RESISTOR or kind is ElementKind.CAPACITOR:
                n1, n2 = (idx(n) for n in element.nodes)
                mat, val = (
                    (g, 1.0 / element.value)
                    if kind is ElementKind.RESISTOR
                    else (c, element.value)
                )
                stamp(mat, n1, n1, val)
                stamp(mat, n2, n2, val)
                stamp(mat, n1, n2, -val)
                stamp(mat, n2, n1, -val)
                rhs[n1, column[element.id]] += 1.0
                rhs[n2, column[element.id]] -= 1.0
            elif kind is ElementKind.VSOURCE or kind is ElementKind.INDUCTOR:
                n1, n2 = (idx(n) for n in element.nodes)
                row = branch_row[element.id]
                stamp(g, n1, row, 1.0)
                stamp(g, n2, row, -1.0)
                stamp(g, row, n1, 1.0)
                stamp(g, row, n2, -1.0)
                if kind is ElementKind.VSOURCE:
                    rhs[row, 0] = 1.0
                else:
                    c[row, row] = -element.value
                    rhs[row, column[element.id]] = 1.0
            else:  # vcvs: V(p) - V(q) = gain * (V(cp) - V(cq))
                p, q, cp, cq = (idx(n) for n in element.nodes)
                row = branch_row[element.id]
                stamp(g, p, row, 1.0)
                stamp(g, q, row, -1.0)
                stamp(g, row, p, 1.0)
                stamp(g, row, q, -1.0)
                stamp(g, row, cp, -element.value)
                stamp(g, row, cq, element.value)

        self.labels = ("golden circuit",)
        self.g, self.c, self.rhs, self.size = g, c, rhs[:size], size
        # golden systems are cached and shared between callers
        for array in (g, c, self.rhs):
            array.flags.writeable = False
        self.out_index = node_index[circuit.output_node]
        self._circuit = circuit
        self._column = column
        self._updates = (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))

    def with_faults(self, faults) -> MnaSystem:
        """This golden circuit plus one row per fault, stamping nothing new.

        ``faults`` are ``faultlib.FaultSpec``-like (``component``,
        ``deviation``, ``label``); a bad target or deviation raises the
        ``ValueError`` of :func:`netlist.deviation_target`. A fault scaling
        element k by (1 + d) adds ``delta(w) u_k u_k^T`` to the matrix, with
        ``delta = dg + j*w*dc``: ``dg = 1/(R(1+d)) - 1/R`` for a resistor,
        ``dc = C*d`` for a capacitor and ``dc = -L*d`` for an inductor (its
        branch row holds ``-j*w*L``).
        """
        column, dg, dc = [], [], []
        for fault in faults:
            element = deviation_target(self._circuit, fault)
            column.append(self._column[element.id])
            value, d = element.value, fault.deviation
            if element.kind is ElementKind.RESISTOR:
                dg.append(1.0 / (value * (1.0 + d)) - 1.0 / value)
                dc.append(0.0)
            else:
                dg.append(0.0)
                dc.append(value * d if element.kind is ElementKind.CAPACITOR else -value * d)
        system = copy.copy(self)
        system.labels = (self.labels[0], *(fault.label for fault in faults))
        system._updates = (np.asarray(column, dtype=int), np.asarray(dg), 1j * np.asarray(dc))
        return system

    def transfer(self, omegas) -> np.ndarray:
        """Complex V(output)/V(source), shape (rows, frequencies).

        Frequencies are angular, in any order, positive and finite. With
        the golden solution ``x0`` and ``z = A_0^-1 u`` of a fault's stamp
        column, the Sherman-Morrison formula gives its output as
        ``x0[out] - delta (u.x0) z[out] / (1 + delta u.z)``. A row that is
        not finite (a zero denominator included) is handed to
        :func:`_raise_failure` with its explicit matrices.
        """
        omegas = np.asarray(omegas, dtype=float)
        if omegas.ndim != 1 or len(omegas) == 0:
            raise ValueError("frequencies must be a non-empty 1-D sequence")
        if not ((omegas > 0.0) & (omegas < np.inf)).all():
            raise ValueError("frequencies must be positive and finite")
        column, dg, jdc = self._updates
        block = max(1, _BLOCK_ENTRIES // (self.size * (self.size + self.rhs.shape[1])))
        out = np.empty((len(self.labels), len(omegas)), dtype=complex)
        for start in range(0, len(omegas), block):
            part = slice(start, start + block)
            w = omegas[part]
            a = self.g + 1j * w[:, None, None] * self.c
            # one (size, 1 + passives) right-hand side per frequency, stacked
            # explicitly: numpy 1.x reads a 2-D b against a 3-D a as vectors
            rhs = np.broadcast_to(self.rhs, (len(w), *self.rhs.shape))
            try:
                x = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                _raise_failure(a, w, self.labels[0])
            # u.x0 and u.z of every passive, exact: u has at most two entries +-1
            ux0 = (x[:, :, 0] @ self.rhs)[:, column]
            uz = np.einsum("nk,fnk->fk", self.rhs, x)[:, column]
            x_out = x[:, self.out_index]
            delta = dg + w[:, None] * jdc
            with np.errstate(all="ignore"):
                out[1:, part] = (
                    x_out[:, :1] - delta * ux0 * x_out[:, column] / (1.0 + delta * uz)
                ).T
            out[0, part] = x_out[:, 0]
        if not np.isfinite(out).all():
            row = int(np.argmin(np.isfinite(out).all(axis=1)))
            a = self.g + 1j * omegas[:, None, None] * self.c
            if row:
                u = self.rhs[:, column[row - 1]]
                delta = dg[row - 1] + omegas * jdc[row - 1]
                a = a + delta[:, None, None] * np.outer(u, u)
            _raise_failure(a, omegas, self.labels[row])
        return out

    def magnitudes(self, omegas) -> np.ndarray:
        """dB magnitudes 20*log10(|gain|), shape (rows, frequencies)."""
        mags = np.abs(self.transfer(omegas))
        if not mags.all():
            row, col = np.argwhere(mags == 0.0)[0]
            raise SimulationError(
                f"{self.labels[row]} failed: zero output magnitude at "
                f"omega={np.asarray(omegas, dtype=float)[col]:g} rad/s"
            )
        return 20.0 * np.log10(mags)


def _raise_failure(matrices, omegas, label):
    """Name the first frequency at which one row's MNA matrix cannot be solved.

    Non-finite entries are caught before ``np.linalg.cond``: LAPACK would
    reject them with messages of its own on stdout.
    """
    for omega, matrix in zip(omegas, matrices):
        if not np.all(np.isfinite(matrix)):
            raise SimulationError(
                f"{label} failed: an MNA matrix entry is out of floating-point "
                f"range at omega={omega:g} rad/s; check element values"
            )
        cond = np.linalg.cond(matrix)
        if not np.isfinite(cond) or cond > 1e15:
            raise SimulationError(
                f"{label} failed: singular MNA system at omega={omega:g} rad/s "
                f"(condition number {cond:.3e}); check circuit connectivity"
            )
    raise SimulationError(f"{label} failed: MNA solve failed")


@lru_cache(maxsize=16)
def _golden_system(circuit: Circuit) -> MnaSystem:
    """The circuit's golden system, cached: circuits are immutable and the
    system's arrays read-only, so every caller shares one."""
    return MnaSystem(circuit)


def solve_ac(circuit: Circuit, frequency: float) -> complex:
    """Complex gain V(output)/V(source) at one angular frequency."""
    return complex(_golden_system(circuit).transfer([frequency])[0, 0])


def sweep(circuit: Circuit, grid) -> ResponseCurve:
    """Magnitude response over a strictly increasing angular-frequency grid."""
    omegas = np.asarray(grid, dtype=float)
    mags = _golden_system(circuit).magnitudes(omegas)[0]
    return ResponseCurve(tuple(omegas.tolist()), tuple(mags.tolist()))


def log_grid(f_min: float, f_max: float, points: int) -> np.ndarray:
    """Logarithmically spaced frequency grid."""
    if f_min <= 0.0 or f_max <= f_min:
        raise ValueError("need 0 < f_min < f_max")
    if points < 1:
        raise ValueError("need at least one grid point")
    if points == 1:
        return np.asarray([f_min])
    return np.geomspace(f_min, f_max, points)

