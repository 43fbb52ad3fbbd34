"""Independent numerical oracles tying analytics to simulation.

Three routes to the same quantities are kept deliberately separate:

- time averages of simulated moment sequences (Wiener's theorem turns them
  into sums of squared atom weights),
- spectral reconstruction of transition amplitudes by quadrature over the
  absolutely continuous weight plus the atom sum,
- dense matrix powers re-deriving the banded return probabilities.

``moment_by_quadrature`` works in the hatted frame; the walk's own moment
picks up the rotation factor exp(i n vartheta), see ``walk_moment_prediction``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import halfline as _hl
from . import line as _line
from .cmv import _qubit_amplitudes, build_transition, default_dimension, index_of, qubit_state
from .coins import Lattice, Qubit, WalkSpec, defect_params, hat_qubit
from .errors import QuadratureNotConverged, TooLarge
from .schur import arc_nodes, support_arcs, weight_halfline, weight_line

__all__ = [
    "wiener_average",
    "simulated_moments",
    "wiener_prediction",
    "moment_by_quadrature",
    "walk_moment_prediction",
    "brute_force_return",
]


def wiener_average(moments: np.ndarray, n_terms: int) -> float:
    """(1 / (2N+1)) sum_{n=-N}^{N} |mu_n|^2 from one-sided moments.

    Negative moments enter by conjugation, valid because the diagonal
    sequences <psi| U^n |psi> are moments of a positive scalar measure.
    Converges to the sum of squared atom masses as N grows.
    """
    if n_terms < 1:
        raise ValueError("need N >= 1")
    if len(moments) < n_terms + 1:
        raise ValueError("moment sequence shorter than N + 1")
    sq = np.abs(np.asarray(moments)[: n_terms + 1]) ** 2
    return float((sq[0] + 2.0 * sq[1:].sum()) / (2 * n_terms + 1))


def simulated_moments(
    spec: WalkSpec,
    site: int,
    q: Qubit,
    n_max: int,
    dimension: int | None = None,
) -> np.ndarray:
    """Diagonal moment sequence mu_n = <psi| U^n |psi> for a qubit at ``site``."""
    return _qubit_amplitudes(spec, site, q, n_max, dimension) @ q.as_array().conj()


def wiener_prediction(spec: WalkSpec, q: Qubit) -> float:
    """Analytic value of the Wiener average for a qubit at the origin:
    the sum of squared diagonal atom weights of its spectral measure."""
    params = defect_params(spec)
    qh = hat_qubit(q, 0, spec)
    if spec.lattice is Lattice.HALF_LINE:
        weights = [
            _hl.atom_weight(params.a, params.b, qh, pt)
            for pt in _hl.mass_points(params.a, params.b)
        ]
    else:
        cls = _line.classify(params.a, params.b, params.omega)
        weights = [
            _line.atom_weight(params.a, params.b, params.omega, qh, pt)
            for pt in cls.points
        ]
    return float(sum(w * w for w in weights))


def _hatted_moment_halfline(
    a: complex, b: complex, n: int, total: int, levels: int
) -> complex:
    acc = 0.0 + 0.0j
    for lo, hi in support_arcs(a):
        th, w = arc_nodes(lo, hi, total, levels)
        vals = weight_halfline(a, b, th, check_branch=False)
        acc += np.sum(w * vals * np.exp(1j * n * th)) / (2.0 * math.pi)
    for pt in _hl.mass_points(a, b):
        acc += pt.z0**n * pt.mu
    return complex(acc)


def _hatted_moment_line(
    a: complex, b: complex, omega: complex, n: int, total: int, levels: int
) -> np.ndarray:
    acc = np.zeros((2, 2), dtype=complex)
    for lo, hi in support_arcs(a):
        th, w = arc_nodes(lo, hi, total, levels)
        vals = weight_line(a, b, omega, th, check_branch=False)
        phase = w * np.exp(1j * n * th)
        acc += np.tensordot(phase, vals, axes=(0, 0)) / (2.0 * math.pi)
    for pt in _line.classify(a, b, omega).points:
        acc += pt.z0**n * pt.matrix()
    return acc


def moment_by_quadrature(
    a: complex,
    b: complex,
    omega: complex,
    n: int,
    lattice: Lattice,
    total_nodes: int = 4000,
    tol: float = 1e-6,
    levels: int = 48,
) -> complex | np.ndarray:
    """n-th moment of the hatted measure: arc integral plus atom sum.

    Scalar on the half line, 2x2 on the line (negative n by Hermitian
    conjugation).  The integral is recomputed at half the node count and the
    difference serves as the convergence estimate.

    Raises
    ------
    QuadratureNotConverged
        If the two node counts disagree beyond ``tol``.
    """
    flip = n < 0
    n = abs(n)
    if lattice is Lattice.HALF_LINE:
        fine = _hatted_moment_halfline(a, b, n, total_nodes, levels)
        coarse = _hatted_moment_halfline(a, b, n, total_nodes // 2, levels)
        gap = abs(fine - coarse)
        result: complex | np.ndarray = fine.conjugate() if flip else fine
    else:
        fine = _hatted_moment_line(a, b, omega, n, total_nodes, levels)
        coarse = _hatted_moment_line(a, b, omega, n, total_nodes // 2, levels)
        gap = float(np.abs(fine - coarse).max())
        result = fine.conj().T if flip else fine
    if gap > tol:
        raise QuadratureNotConverged(f"quadrature gap {gap:.3e} exceeds {tol:.1e}")
    return result


def walk_moment_prediction(
    spec: WalkSpec, n: int, total_nodes: int = 4000
) -> complex | np.ndarray:
    """Spectral prediction of the (0,0) entry/block of U^n for the walk:
    the hatted moment rotated by exp(i n vartheta)."""
    p = defect_params(spec)
    rot = cmath.exp(1j * n * p.vartheta)
    return rot * moment_by_quadrature(p.a, p.b, p.omega, n, spec.lattice, total_nodes)


def brute_force_return(
    spec: WalkSpec,
    site: int,
    q: Qubit,
    steps: int,
    dimension: int | None = None,
) -> float:
    """Return probability by dense matrix powers (no band tricks).

    Cost guard: refuses more than 64 steps.
    """
    if steps > 64:
        raise TooLarge("brute-force oracle capped at 64 steps")
    dim = dimension or default_dimension(spec.lattice, steps, site)
    dense = build_transition(spec, dim, check=False).to_dense()
    psi = qubit_state(spec.lattice, site, q, dim)
    evolved = psi @ np.linalg.matrix_power(dense, steps)
    return float(
        abs(evolved[index_of(spec.lattice, site, True)]) ** 2
        + abs(evolved[index_of(spec.lattice, site, False)]) ** 2
    )
