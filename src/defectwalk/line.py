"""Localization analytics for one defect on the line.

All functions work with the reduced parameters (a, b, omega) of the walk
and, where a qubit enters, expect it already in the hatted frame (use
``coins.hat_qubit`` to convert; the wrappers in ``reports`` do it for you).

The atoms of the measure sit at the unimodular roots of g(z) = 1 inside the
singular arcs, come in opposite pairs, and are located in closed form: for
each sign s, the candidate arc coordinate is zeta_s(b) = s sqrt(1 - Im^2 b)
+ i Im b, and it yields an atom pair exactly when it lies on the open arc
where Re(conj(a) zeta) < |a|^2, equivalently |a - zeta_s(b)/2| > 1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coins import Qubit
from .errors import BoundaryZeta
from .schur import _check_disk, g_line_boundary

__all__ = [
    "MassPointLine",
    "LineClass",
    "zeta_pm",
    "condition_m",
    "mass_point_at",
    "classify",
    "mass_point_count",
    "return_form",
    "return_probability_pm",
    "return_probability_limit",
    "imaginary_a_limit",
    "nonlocalized_qubit",
    "state_function",
    "atom_weight",
    "residual",
]

_DISK_TOL = 1e-12


@dataclass(frozen=True)
class MassPointLine:
    """An atom of the folded line measure.

    The 2x2 mass matrix is m [[1, eta], [conj(eta), 1]]: positive
    semidefinite and singular, with unimodular eta.  ``zeta0`` is the arc
    coordinate shared by the pair (z0, -z0).
    """

    z0: complex
    zeta0: complex
    m: float
    eta: complex

    def matrix(self) -> np.ndarray:
        return self.m * np.array([[1.0, self.eta], [self.eta.conjugate(), 1.0]])

    def reflected(self) -> "MassPointLine":
        """The partner atom at -z0 (same mass, opposite eta)."""
        return MassPointLine(-self.z0, self.zeta0, self.m, -self.eta)


@dataclass(frozen=True)
class LineClass:
    """Mass-point classification: label M0, M2plus, M2minus or M4, and the
    atoms, listed closed under z -> -z."""

    label: str
    points: tuple[MassPointLine, ...]

    @property
    def n_mass_points(self) -> int:
        return len(self.points)


def zeta_pm(b: complex) -> tuple[complex, complex]:
    """The two unimodular solutions of Im zeta = Im b."""
    r = math.sqrt(1.0 - b.imag**2)
    return complex(r, b.imag), complex(-r, b.imag)


def _on_arc(a, zeta):
    """Whether the unimodular zeta lies on the open arc Sigma_a; ties within
    1e-12 resolve to False because boundary roots carry no mass.  Written in
    real products and sums, which round alike for Python scalars and numpy
    arrays (complex products and abs do not), so that batched counts decide
    exactly as ``classify`` does."""
    return a.real * zeta.real + a.imag * zeta.imag < a.real * a.real + a.imag * a.imag - _DISK_TOL


def condition_m(a: complex, b: complex, sign: int) -> bool:
    """Whether zeta_sign(b) lies on the open arc Sigma_a.

    Re(conj(a) zeta) < |a|^2, or |a - zeta/2| > 1/2, with ties within 1e-12
    resolving to False: the one arc test, which ``classify``, the guard of
    ``mass_point_at`` and ``mass_point_count`` apply as well.
    """
    return _on_arc(a, zeta_pm(b)[0 if sign > 0 else 1])


def mass_point_at(a: complex, b: complex, omega: complex, zeta0: complex) -> MassPointLine:
    """Atom at z0 = (1 - conj(a) zeta0)/|...| for an arc coordinate zeta0.

    Raises
    ------
    BoundaryZeta
        If zeta0 is not strictly inside the arc Sigma_a.
    """
    if not _on_arc(a, zeta0):
        raise BoundaryZeta("zeta0 is not strictly inside Sigma_a")
    w = 1.0 - a.conjugate() * zeta0
    z0 = w / abs(w)
    rho_b2 = 1.0 - abs(b) ** 2
    m = 0.5 * _coefficient(a, zeta0) / (1.0 + rho_b2 / abs(zeta0 - b) ** 2)
    eta = -omega * (zeta0 - a) / abs(zeta0 - a)
    return MassPointLine(z0, zeta0, float(m), eta)


def mass_point_count(a, b):
    """Number of atoms (0, 2 or 4), broadcast over arrays of a and b; 0
    where a = 0.  Returns an ``int`` for scalar input.

    Decides bit for bit as ``classify``: ``float_power`` is the libm pow of
    the scalar ``b.imag ** 2`` in ``zeta_pm``.
    """
    _check_disk(a, b)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    zeta = np.empty(b.shape, dtype=complex)
    zeta.imag = b.imag
    counts = np.zeros(b.shape, dtype=int)
    for sign in (1.0, -1.0):
        zeta.real = sign * np.sqrt(1.0 - np.float_power(b.imag, 2))
        counts += 2 * _on_arc(a, zeta)
    return int(counts) if counts.ndim == 0 else counts


def classify(a: complex, b: complex, omega: complex = 1.0 + 0j) -> LineClass:
    """Full mass-point classification of the line measure.

    The label does not depend on omega, nor on Re b; ``a = 0`` (diagonal
    constant coin, Bernstein-Szego measure) is M0, as its arc is empty.
    """
    _check_disk(a, b)
    zp, zm = zeta_pm(b)
    plus, minus = _on_arc(a, zp), _on_arc(a, zm)
    points: list[MassPointLine] = []
    for zeta0, on in ((zp, plus), (zm, minus)):
        if on:
            mp = mass_point_at(a, b, omega, zeta0)
            points += [mp, mp.reflected()]
    if plus and minus:
        label = "M4"
    elif plus:
        label = "M2plus"
    elif minus:
        label = "M2minus"
    else:
        label = "M0"
    return LineClass(label, tuple(points))


def _coefficient(a: complex, zeta0: complex) -> float:
    return 1.0 - (1.0 - abs(a) ** 2) / abs(zeta0 - a) ** 2


def return_form(a: complex, b: complex, omega: complex = 1.0 + 0j) -> np.ndarray:
    """Hermitian 2x2 form M with p = v^dag M v for hatted qubits v.

    Rank <= 2; one rank-1 term per satisfied atom condition.  The two terms
    are built on mutually orthogonal vectors, so the eigenvalues of M are
    exactly the squared coefficients of the two atom pairs (M = 0 for a = 0).
    """
    m = np.zeros((2, 2), dtype=complex)
    rho_b = math.sqrt(1.0 - abs(b) ** 2)
    for zeta0 in zeta_pm(b):
        if not _on_arc(a, zeta0):
            continue
        coeff = _coefficient(a, zeta0)
        u = np.array([1.0, -omega.conjugate() * (zeta0.conjugate() + b) / rho_b])
        denom = 1.0 + abs(zeta0.conjugate() + b) ** 2 / rho_b**2
        m += (coeff**2 / denom) * np.outer(np.conj(u), u)
    return m


def return_probability_pm(
    a: complex, b: complex, omega: complex, q: Qubit, sign: int
) -> float:
    """Single-pair contribution to the asymptotic return probability,
    in the explicit bracketed form (cross-check for the quadratic form)."""
    zeta0 = zeta_pm(b)[0 if sign > 0 else 1]
    coeff = _coefficient(a, zeta0)
    rho_b = math.sqrt(1.0 - abs(b) ** 2)
    s = math.sqrt(1.0 - b.imag**2)
    bracket = 1.0 - sign * (
        ((abs(q.alpha) ** 2 - abs(q.beta) ** 2) * b.real
         + 2.0 * rho_b * (omega.conjugate() * q.alpha.conjugate() * q.beta).real)
        / s
    )
    return 0.5 * coeff**2 * bracket


def return_probability_limit(
    a: complex, b: complex, omega: complex, q: Qubit
) -> float:
    """Limit of the return probability at the origin along even times.

    Zero for M0; the single-pair value for M2; the sum of both pair
    contributions for M4 (their cross terms cancel identically).  ``q`` is
    the hatted qubit.
    """
    v = q.as_array()
    return float((v.conj() @ return_form(a, b, omega) @ v).real)


def imaginary_a_limit(a: complex, b: complex) -> float:
    """State-independent limit for purely imaginary a:
    (2 Im a (Im a - Im b) / (1 + Im^2 a - 2 Im a Im b))^2."""
    num = 2.0 * a.imag * (a.imag - b.imag)
    den = 1.0 + a.imag**2 - 2.0 * a.imag * b.imag
    return (num / den) ** 2


def nonlocalized_qubit(
    a: complex, b: complex, omega: complex, label: str
) -> Qubit | None:
    """The unique localization-free qubit (hatted frame) in the M2 classes.

    Returns None for M4: with four atoms the two defining conditions are
    incompatible, so every state localizes.
    """
    if label == "M4":
        return None
    if label not in ("M2plus", "M2minus"):
        raise ValueError("nonlocalized_qubit requires class M2plus, M2minus or M4")
    sign = 1 if label == "M2plus" else -1
    denom = b.real + sign * math.sqrt(1.0 - b.imag**2)
    beta = omega * math.sqrt(1.0 - abs(b) ** 2) / denom
    return Qubit.normalized(1.0, beta)


def state_function(
    a: complex, b: complex, omega: complex, q: Qubit, z: complex
) -> np.ndarray:
    """The 2-vector function representing the hatted qubit at the origin,
    evaluated at z: alpha (1, 0) + (beta / rho_b) (-conj(omega) b, 1/z)."""
    rho_b = math.sqrt(1.0 - abs(b) ** 2)
    return np.array(
        [
            q.alpha - q.beta * omega.conjugate() * b / rho_b,
            q.beta / (rho_b * z),
        ],
        dtype=complex,
    )


def atom_weight(
    a: complex, b: complex, omega: complex, q: Qubit, point: MassPointLine
) -> float:
    """Diagonal spectral weight psi mu({z0}) psi^dag of the hatted qubit at
    one atom (psi is a row vector); these are the atoms of the scalar
    measure whose moments are time-averaged by Wiener's theorem."""
    psi = state_function(a, b, omega, q, point.z0)
    mass = point.matrix()
    return float((psi @ mass @ psi.conj()).real)


def residual(a: complex, b: complex, point: MassPointLine) -> float:
    """|g(z0) - 1| at a reported atom (root-condition residual)."""
    return float(abs(g_line_boundary(a, b, cmath.phase(point.z0)) - 1.0))
