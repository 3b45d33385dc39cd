"""Complex AC small-signal analysis via modified nodal analysis.

The MNA matrix of every supported circuit splits as ``A(w) = G + j*w*C``
with real ``G`` and ``C``: resistor stamps, source/vcvs branch rows and
their incidence live in ``G``; capacitor stamps and the inductor branch
reactance live in ``C``. Frequencies are angular (rad/s) throughout this
module; the CLI converts from Hz when so configured. Magnitudes are
reported in dB.

Every AC response in the package comes from :meth:`MnaSystem.transfer`,
which solves a stack of same-topology circuits (one row each) in blocks
of at most ``_BLOCK_ENTRIES`` complex matrix entries: memory stays at a
few MB for any number of variants and frequencies, and results do not
depend on blocking, as every (row, frequency) slice is its own LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .netlist import Circuit, ElementKind

_BRANCH_KINDS = (ElementKind.VSOURCE, ElementKind.VCVS, ElementKind.INDUCTOR)

# rows x frequencies x size^2 complex entries per batched solve; the GA's whole
# biquad stack (57 x 8 x 7^2) fits in one block
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
    """Stamped MNA matrices of a circuit and of same-topology variants of it.

    Unknowns are the non-ground node voltages (in first-appearance order)
    followed by one branch current per voltage source, vcvs and inductor.
    ``g`` and ``c`` stack one matrix per circuit, a row; ``labels`` name
    the rows in errors. The first circuit gives topology, source and output.
    """

    __slots__ = ("labels", "g", "c", "rhs", "out_index", "amplitude", "size")

    def __init__(self, *circuits: Circuit, labels=("circuit",)):
        first = circuits[0]
        node_index: dict[str, int] = {}
        for element in first.elements:
            for node in element.nodes:
                if node != "0" and node not in node_index:
                    node_index[node] = len(node_index)
        branches = [e for e in first.elements if e.kind in _BRANCH_KINDS]

        n_nodes = len(node_index)
        size = n_nodes + len(branches)
        self.g = np.zeros((len(circuits), size, size))
        self.c = np.zeros((len(circuits), size, size))
        self.rhs = np.zeros(size, dtype=complex)

        def idx(node: str) -> int:
            return -1 if node == "0" else node_index[node]

        def stamp(mat, i, j, val):
            if i >= 0 and j >= 0:
                mat[i, j] += val

        branch_row = {e.id: n_nodes + k for k, e in enumerate(branches)}

        for g, c, circuit in zip(self.g, self.c, circuits):
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
                        self.rhs[row] = element.value
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

        self.labels = tuple(labels)
        self.size = size
        self.out_index = node_index[first.output_node]
        self.amplitude = first.element(first.input_source).value

    def transfer(self, omegas) -> np.ndarray:
        """Complex V(output)/V(source), shape (rows, frequencies).

        Frequencies are angular, in any order, positive and finite.
        """
        omegas = np.asarray(omegas, dtype=float)
        if omegas.ndim != 1 or len(omegas) == 0:
            raise ValueError("frequencies must be a non-empty 1-D sequence")
        if not np.all((omegas > 0.0) & (omegas < np.inf)):
            raise ValueError("frequencies must be positive and finite")
        block = max(1, _BLOCK_ENTRIES // (len(omegas) * self.size * self.size))
        out = np.empty((len(self.g), len(omegas)), dtype=complex)
        for start in range(0, len(self.g), block):
            part = slice(start, start + block)
            a = self.g[part, None] + 1j * omegas[None, :, None, None] * self.c[part, None]
            b = np.broadcast_to(self.rhs, a.shape[:-1])[..., None]
            try:
                x = np.linalg.solve(a, b)[..., 0]
            except np.linalg.LinAlgError:
                _raise_failure(a, omegas, self.labels[part])
            if not np.all(np.isfinite(x)):
                _raise_failure(a, omegas, self.labels[part])
            out[part] = x[:, :, self.out_index]
        return out / self.amplitude

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


def _raise_failure(a, omegas, labels):
    """Name the first row and frequency whose MNA matrix cannot be solved.

    Non-finite entries are caught before ``np.linalg.cond``: LAPACK would
    reject them with messages of its own on stdout.
    """
    for label, matrices in zip(labels, a):
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
    raise SimulationError(f"{labels[0]} failed: MNA solve failed")


def solve_ac(circuit: Circuit, frequency: float) -> complex:
    """Complex gain V(output)/V(source) at one angular frequency."""
    return complex(MnaSystem(circuit).transfer([frequency])[0, 0])


def sweep(circuit: Circuit, grid) -> ResponseCurve:
    """Magnitude response over a strictly increasing angular-frequency grid."""
    omegas = np.asarray(grid, dtype=float)
    mags = MnaSystem(circuit).magnitudes(omegas)[0]
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

