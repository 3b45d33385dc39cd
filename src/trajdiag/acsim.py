"""Complex AC small-signal analysis via modified nodal analysis.

The MNA matrix of every supported circuit splits as ``A(w) = G + j*w*C``
with real ``G`` and ``C``: resistor stamps, source/vcvs branch rows and
their incidence live in ``G``; capacitor stamps and the inductor branch
reactance live in ``C``. Frequencies are angular (rad/s) throughout this
module; the CLI converts from Hz when so configured. Magnitudes are
reported in dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .netlist import Circuit, ElementKind

_BRANCH_KINDS = (ElementKind.VSOURCE, ElementKind.VCVS, ElementKind.INDUCTOR)


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
    """Stamped MNA matrices for one circuit.

    Unknowns are the non-ground node voltages (in first-appearance order)
    followed by one branch current per voltage source, vcvs and inductor.
    """

    __slots__ = ("node_index", "g", "c", "rhs", "out_index", "amplitude", "size")

    def __init__(self, circuit: Circuit):
        node_index: dict[str, int] = {}
        for element in circuit.elements:
            for node in element.nodes:
                if node != "0" and node not in node_index:
                    node_index[node] = len(node_index)
        branches = [e for e in circuit.elements if e.kind in _BRANCH_KINDS]

        n_nodes = len(node_index)
        size = n_nodes + len(branches)
        g = np.zeros((size, size))
        c = np.zeros((size, size))
        rhs = np.zeros(size)

        def idx(node: str) -> int:
            return -1 if node == "0" else node_index[node]

        def stamp(mat, i, j, val):
            if i >= 0 and j >= 0:
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
            elif kind is ElementKind.VSOURCE or kind is ElementKind.INDUCTOR:
                n1, n2 = (idx(n) for n in element.nodes)
                row = branch_row[element.id]
                stamp(g, n1, row, 1.0)
                stamp(g, n2, row, -1.0)
                stamp(g, row, n1, 1.0)
                stamp(g, row, n2, -1.0)
                if kind is ElementKind.VSOURCE:
                    rhs[row] = element.value
                else:
                    c[row, row] = -element.value
            else:  # vcvs: V(p) - V(q) = gain * (V(cp) - V(cq))
                p, q, cp, cq = (idx(n) for n in element.nodes)
                row = branch_row[element.id]
                stamp(g, p, row, 1.0)
                stamp(g, q, row, -1.0)
                stamp(g, row, p, 1.0)
                stamp(g, row, q, -1.0)
                stamp(g, row, cp, -element.value)
                stamp(g, row, cq, element.value)

        self.node_index = node_index
        self.g = g
        self.c = c
        self.rhs = rhs
        self.size = size
        self.out_index = idx(circuit.output_node)
        self.amplitude = circuit.element(circuit.input_source).value

    def gains(self, omegas: np.ndarray) -> np.ndarray:
        """Complex V(output)/V(source) at each angular frequency."""
        voltages = solve_stacked(
            self.g[None, :, :], self.c[None, :, :], self.rhs, omegas
        )[0]
        if self.out_index < 0:
            return np.zeros(len(omegas), dtype=complex)
        return voltages[:, self.out_index] / self.amplitude


def solve_stacked(
    g_stack: np.ndarray, c_stack: np.ndarray, rhs: np.ndarray, omegas: np.ndarray
) -> np.ndarray:
    """Solve ``(G_b + j*w_f*C_b) x = rhs`` for every circuit b and frequency f.

    Returns the unknown vectors with shape ``(B, F, size)``. Every slice is
    an independent dense LU solve, so results do not depend on batching.
    """
    omegas = np.asarray(omegas, dtype=float)
    a = g_stack[:, None, :, :] + 1j * omegas[None, :, None, None] * c_stack[:, None, :, :]
    b = np.broadcast_to(rhs.astype(complex), a.shape[:-1])[..., None]
    try:
        x = np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        _raise_singular(a, omegas)
    if not np.all(np.isfinite(x)):
        _raise_singular(a, omegas)
    return x


def _raise_singular(a, omegas):
    for bi in range(a.shape[0]):
        for fi in range(a.shape[1]):
            slice_ = a[bi, fi]
            cond = np.linalg.cond(slice_)
            if not np.isfinite(cond) or cond > 1e15:
                raise SimulationError(
                    f"singular MNA system at omega={omegas[fi]:g} rad/s "
                    f"(condition number {cond:.3e}); check circuit connectivity"
                )
    raise SimulationError("MNA solve failed")


def solve_ac(circuit: Circuit, frequency: float) -> complex:
    """Complex gain V(output)/V(source) at one angular frequency."""
    if frequency <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    return complex(MnaSystem(circuit).gains(np.asarray([float(frequency)]))[0])


def magnitudes_db(gains: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """20*log10(|gain|) with an explicit error for exact transmission zeros."""
    mags = np.abs(gains)
    if np.any(mags == 0.0):
        at = np.asarray(omegas)[np.nonzero(mags == 0.0)[0][0]]
        raise SimulationError(f"zero output magnitude at omega={at:g} rad/s")
    return 20.0 * np.log10(mags)


def sweep(circuit: Circuit, grid) -> ResponseCurve:
    """Magnitude response over a strictly increasing angular-frequency grid."""
    omegas = np.asarray(grid, dtype=float)
    if omegas.ndim != 1 or len(omegas) == 0:
        raise ValueError("frequency grid must be a non-empty 1-D sequence")
    if omegas[0] <= 0.0 or np.any(np.diff(omegas) <= 0.0):
        raise ValueError("frequency grid must be positive and strictly increasing")
    gains = MnaSystem(circuit).gains(omegas)
    mags = magnitudes_db(gains, omegas)
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

