"""Independent numerical oracles tying analytics to simulation.

Three routes to the same quantities are kept deliberately separate:

- time averages of simulated moment sequences (Wiener's theorem turns them
  into sums of squared atom weights),
- spectral reconstruction of transition amplitudes by quadrature over the
  absolutely continuous weight plus the atom sum (cosine-substituted
  Gauss-Legendre, 256 nodes per support arc checked against 128),
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

# largest gap between the fine and the coarse quadrature that is accepted
_QUAD_TOL = 1e-6


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


def _arc_integrals(
    a: complex, b: complex, omega: complex, n: int, lattice: Lattice, counts: tuple[int, ...]
) -> list:
    """Integrals of z^n against the weight over both support arcs, one for
    each count of nodes per arc in ``counts``, from one weight evaluation."""
    arcs = support_arcs(a)
    th, wts = map(np.concatenate, zip(*[arc_nodes(lo, hi, m) for m in counts for lo, hi in arcs]))
    phase = wts * np.exp(1j * n * th) / (2.0 * math.pi)
    if lattice is Lattice.HALF_LINE:
        vals = weight_halfline(a, b, th, check_branch=False)
    else:
        vals = weight_line(a, b, omega, th, check_branch=False)
    flat, cell = vals.reshape(th.size, -1), vals.shape[1:]  # np.tensordot's own np.dot operands
    ends = np.cumsum([0] + [2 * m for m in counts])
    return [np.dot(phase[i:j].reshape(1, -1), flat[i:j]).reshape(cell) for i, j in zip(ends, ends[1:])]


def moment_by_quadrature(
    a: complex,
    b: complex,
    omega: complex,
    n: int,
    lattice: Lattice,
    nodes: int = 256,
) -> complex | np.ndarray:
    """n-th moment of the hatted measure: arc integral plus atom sum.

    Scalar on the half line, 2x2 on the line (negative n by Hermitian
    conjugation).  The weight is integrated by :func:`arc_nodes` with
    ``nodes`` (256) points per support arc and again with half as many
    (128), both from one weight evaluation; their difference is the
    convergence estimate.  A resonance of the weight close to an arc (a pole
    of its continuation about 0.1 or less off the circle) can leave the
    coarse rule short while the fine one has converged, so a failed estimate
    is made once more, against twice the count.  The atoms are found once
    and added to the finest integral.

    Raises
    ------
    QuadratureNotConverged
        If the node counts still disagree beyond 1e-6 after the doubling.
    """
    flip = n < 0
    n = abs(n)
    fine, coarse = _arc_integrals(a, b, omega, n, lattice, (nodes, nodes // 2))
    gap = np.abs(fine - coarse).max()
    if gap > _QUAD_TOL:
        coarse, (fine,) = fine, _arc_integrals(a, b, omega, n, lattice, (2 * nodes,))
        gap = np.abs(fine - coarse).max()
    if gap > _QUAD_TOL:
        raise QuadratureNotConverged(f"quadrature gap {gap:.3e} exceeds {_QUAD_TOL:.1e}")
    if lattice is Lattice.HALF_LINE:
        result = complex(fine) + sum(pt.z0**n * pt.mu for pt in _hl.mass_points(a, b))
        return result.conjugate() if flip else result
    result = fine + sum(pt.z0**n * pt.matrix() for pt in _line.classify(a, b, omega).points)
    return result.conj().T if flip else result


def walk_moment_prediction(spec: WalkSpec, n: int) -> complex | np.ndarray:
    """Spectral prediction of the (0,0) entry/block of U^n for the walk:
    the hatted moment rotated by exp(i n vartheta)."""
    p = defect_params(spec)
    rot = cmath.exp(1j * n * p.vartheta)
    return rot * moment_by_quadrature(p.a, p.b, p.omega, n, spec.lattice)


def brute_force_return(
    spec: WalkSpec,
    site: int,
    q: Qubit,
    steps: int,
) -> float:
    """Return probability by dense matrix powers (no band tricks), at the
    full-cone ``default_dimension``.

    Cost guard: refuses more than 64 steps; negative ``steps`` raise
    ``ValueError``.
    """
    if steps > 64:
        raise TooLarge("brute-force oracle capped at 64 steps")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    dim = default_dimension(spec.lattice, steps, site)
    dense = build_transition(spec, dim, check=False).to_dense()
    psi = qubit_state(spec.lattice, site, q, dim)
    evolved = psi @ np.linalg.matrix_power(dense, steps)
    return float(
        abs(evolved[index_of(spec.lattice, site, True)]) ** 2
        + abs(evolved[index_of(spec.lattice, site, False)]) ** 2
    )
