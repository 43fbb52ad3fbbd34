"""Coins, walk specifications, and the reduced defect parameters.

A walk is given by a 2x2 unitary coin ``C`` applied at every site and a
"defect" coin ``D`` applied at the origin, on either the full line or the
half line.  Walks sharing the reduced parameters ``(a, b, omega)`` have the
same orthogonality measure up to a rotation by ``vartheta``, so every
localization question is answered in terms of these parameters alone.

Conventions
-----------
- ``sigma1, sigma2`` are the principal arguments of the diagonal entries of
  ``C`` (``tau1, tau2`` play the same role for ``D``).  Only combinations of
  the form ``exp(i*sigma)`` or ``exp(i*sigma/2)`` enter any formula; the two
  half-angle branches produce measures related by the reflection z -> -z,
  which carries no physical content.
- Qubits are column pairs (alpha, beta) with |alpha|^2 + |beta|^2 = 1.
- ``hat_qubit`` moves a qubit into the rotated ("hatted") frame in which the
  closed-form mass and return-probability formulas are stated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DiagonalCoin, NotUnitary, ReducibleCoin

__all__ = [
    "UNITARY_TOL",
    "Lattice",
    "Coin",
    "Qubit",
    "WalkSpec",
    "DefectParams",
    "validate_coin",
    "coin_from_reflection",
    "hadamard",
    "konno_defect",
    "identity_coin",
    "random_coin",
    "defect_params",
    "hat_qubit",
    "spec_for_line_params",
    "spec_for_halfline_params",
]

UNITARY_TOL = 1e-12


class Lattice(Enum):
    """Lattice on which the walk lives."""

    LINE = "line"
    HALF_LINE = "halfline"

    @classmethod
    def parse(cls, name: str) -> "Lattice":
        name = name.strip().lower().replace("-", "").replace("_", "")
        if name in ("line", "z"):
            return cls.LINE
        if name in ("halfline", "zplus", "z+"):
            return cls.HALF_LINE
        raise ValueError(f"unknown lattice {name!r} (use 'line' or 'halfline')")


@dataclass(frozen=True, eq=False)
class Coin:
    """A validated 2x2 unitary coin with cached diagonal phases.

    Attributes
    ----------
    matrix : ndarray
        The (2, 2) complex array, read-only.
    sigma1, sigma2 : float
        Principal arguments of the (1,1) and (2,2) entries, in radians.
    """

    matrix: np.ndarray
    sigma1: float
    sigma2: float

    @property
    def c11(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def c12(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def c21(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def c22(self) -> complex:
        return complex(self.matrix[1, 1])

    @property
    def sigma(self) -> float:
        """Sum of the diagonal phases."""
        return self.sigma1 + self.sigma2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Coin({self.matrix.tolist()!r})"


def validate_coin(m) -> Coin:
    """Validate a 2x2 complex array as an irreducible coin.

    Raises
    ------
    NotUnitary
        If an entry is not finite or ``m m^dagger`` deviates from the identity
        by more than ``UNITARY_TOL``.
    ReducibleCoin
        If a diagonal entry vanishes (the walk would decouple).
    """
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (2, 2):
        raise NotUnitary(f"expected a 2x2 matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NotUnitary("coin entries must be finite")
    defect = np.abs(arr @ arr.conj().T - np.eye(2)).max()
    if defect > UNITARY_TOL:
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {UNITARY_TOL:.1e}")
    if arr[0, 0] == 0 or arr[1, 1] == 0:
        raise ReducibleCoin("coin has a zero diagonal entry")
    arr = arr.copy()
    arr.flags.writeable = False
    return Coin(arr, float(np.angle(arr[0, 0])), float(np.angle(arr[1, 1])))


def coin_from_reflection(c21: complex, tau1: float = 0.0, tau2: float = 0.0) -> Coin:
    """Unitary coin with prescribed (2,1) entry and diagonal phases.

    Returns ``[[r e^{i tau1}, -conj(c21) e^{i (tau1+tau2)}], [c21, r e^{i tau2}]]``
    with ``r = sqrt(1 - |c21|^2)``.
    """
    c21 = complex(c21)
    if abs(c21) >= 1.0:
        raise ValueError("|c21| must be < 1")
    r = math.sqrt(1.0 - abs(c21) ** 2)
    tau = tau1 + tau2
    m = np.array(
        [
            [r * cmath.exp(1j * tau1), -c21.conjugate() * cmath.exp(1j * tau)],
            [c21, r * cmath.exp(1j * tau2)],
        ],
        dtype=complex,
    )
    return validate_coin(m)


def hadamard() -> Coin:
    """The Hadamard coin (1/sqrt 2) [[1, 1], [1, -1]]."""
    return validate_coin(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))


def konno_defect(phi: float) -> Coin:
    """The phase defect (1/sqrt 2) [[1, e^{i phi}], [e^{-i phi}, -1]]."""
    return validate_coin(
        np.array(
            [[1.0, cmath.exp(1j * phi)], [cmath.exp(-1j * phi), -1.0]],
        )
        / math.sqrt(2.0)
    )


def identity_coin() -> Coin:
    """The identity coin (deterministic shift)."""
    return validate_coin(np.eye(2))


def random_coin(rng: np.random.Generator) -> Coin:
    """Haar-random 2x2 unitary coin, redrawn until the diagonal is nonzero.

    The Q factor of a complex Ginibre matrix is phase-corrected so its
    distribution is Haar; a zero diagonal entry has probability zero but is
    guarded against anyway.
    """
    while True:
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
        if min(abs(q[0, 0]), abs(q[1, 1])) > 1e-6:
            return validate_coin(q)


@dataclass(frozen=True)
class Qubit:
    """Spin amplitudes (alpha, beta) at one site, normalized to 1."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= UNITARY_TOL:  # fails closed on nan
            raise ValueError(f"qubit norm {norm!r} differs from 1 beyond 1e-12")

    @classmethod
    def normalized(cls, alpha: complex, beta: complex) -> "Qubit":
        n = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        return cls(alpha / n, beta / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


@dataclass(frozen=True)
class WalkSpec:
    """One-defect walk: constant coin everywhere, defect coin at site 0."""

    lattice: Lattice
    coin: Coin
    defect: Coin


@dataclass(frozen=True)
class DefectParams:
    """Reduced parameters classifying a one-defect walk up to rotation.

    ``a`` depends on the constant coin and the phases of the defect, ``b`` on
    the defect and the phases of the constant coin; ``omega`` only matters on
    the line (it is fixed to 1 on the half line); ``vartheta = sigma / 2`` is
    the rotation angle linking the walk measure to its canonical ("hatted")
    representative.
    """

    a: complex
    b: complex
    omega: complex
    vartheta: float

    def __post_init__(self):
        # each comparison fails closed on nan
        if not (abs(self.a) < 1.0 and abs(self.b) < 1.0):
            raise ValueError("a and b must lie in the open unit disk")
        if not abs(abs(self.omega) - 1.0) <= UNITARY_TOL:
            raise ValueError("omega must be unimodular")
        if not math.isfinite(self.vartheta):
            raise ValueError("vartheta must be finite")


def defect_params(spec: WalkSpec) -> DefectParams:
    """Extract (a, b, omega, vartheta) from the coins of a one-defect walk.

    Raises
    ------
    DiagonalCoin
        If c21 = 0.  The measure is then Bernstein-Szego (no localization)
        and the phase of c21, needed on the line, is undefined.
    """
    c, d = spec.coin, spec.defect
    if c.c21 == 0:
        raise DiagonalCoin("constant coin is diagonal: no localization (a = 0)")
    sigma = c.sigma
    tau = d.sigma
    vartheta = sigma / 2.0
    if spec.lattice is Lattice.HALF_LINE:
        a = c.c21.conjugate() * cmath.exp(1j * (1.5 * sigma - tau))
        b = d.c21.conjugate() * cmath.exp(1j * sigma / 2.0)
        omega = 1.0 + 0.0j
    else:
        u = c.c21 / abs(c.c21)
        a = 1j * abs(c.c21) * cmath.exp(1j * (sigma - tau) / 2.0)
        b = 1j * u * cmath.exp(1j * (tau - sigma) / 2.0) * d.c21.conjugate()
        omega = 1j * u * cmath.exp(1j * (tau / 2.0 - sigma))
    return DefectParams(a, b, omega, vartheta)


def hat_qubit(q: Qubit, site: int, spec: WalkSpec) -> Qubit:
    """Phase-adjust a qubit at ``site`` into the hatted frame.

    The adjustment multiplies alpha and beta by unimodular factors, so
    moduli are preserved.  At the origin it reduces to
    ``alpha_hat = alpha`` and ``beta_hat = exp(i ((sigma2-sigma1)/2 + tau2 -
    sigma2)) beta`` on both lattices.
    """
    c, d = spec.coin, spec.defect
    half = (c.sigma2 - c.sigma1) / 2.0
    if spec.lattice is Lattice.HALF_LINE and site < 0:
        raise ValueError("half-line sites are nonnegative")
    if site >= 0:
        pa = 1.0 if site == 0 else cmath.exp(1j * (site * half + c.sigma1 - d.sigma1))
        pb = cmath.exp(1j * ((site + 1) * half + d.sigma2 - c.sigma2))
    else:
        j = -site - 1
        pa = cmath.exp(-1j * (j + 1) * half)
        pb = 1.0 if j == 0 else cmath.exp(-1j * j * half)
    return Qubit(pa * q.alpha, pb * q.beta)


def spec_for_halfline_params(a: complex, b: complex) -> WalkSpec:
    """Realize half-line parameters (a, b) as concrete coins.

    Uses coins with positive diagonals (sigma = tau = 0), for which the
    parameter extraction is the bare conjugate of the (2,1) entries.
    """
    a, b = complex(a), complex(b)
    if not 0 < abs(a) < 1:
        raise ValueError("need 0 < |a| < 1")
    if abs(b) >= 1:
        raise ValueError("need |b| < 1")
    spec = WalkSpec(
        Lattice.HALF_LINE,
        coin_from_reflection(a.conjugate()),
        coin_from_reflection(b.conjugate()),
    )
    _check_realization(spec, a, b, 1.0 + 0j)
    return spec


def spec_for_line_params(a: complex, b: complex, omega: complex = 1.0) -> WalkSpec:
    """Realize line parameters (a, b, omega) as concrete coins.

    The constant coin carries a positive diagonal (sigma = 0); the phase of
    its (2,1) entry and the defect phases tau1 = tau2 = pi/2 - arg(a) are
    chosen so the extraction returns exactly the requested parameters.
    """
    a, b, omega = complex(a), complex(b), complex(omega)
    if not 0 < abs(a) < 1:
        raise ValueError("need 0 < |a| < 1")
    if abs(b) >= 1:
        raise ValueError("need |b| < 1")
    if abs(abs(omega) - 1.0) > UNITARY_TOL:
        raise ValueError("need |omega| = 1")
    tau_half = math.pi / 2.0 - cmath.phase(a)
    c21 = abs(a) * (-1j) * omega * cmath.exp(-1j * tau_half)
    d21 = b.conjugate() * omega
    spec = WalkSpec(
        Lattice.LINE,
        coin_from_reflection(c21),
        coin_from_reflection(d21, tau_half, tau_half),
    )
    _check_realization(spec, a, b, omega)
    return spec


def _check_realization(spec: WalkSpec, a: complex, b: complex, omega: complex):
    got = defect_params(spec)
    err = max(abs(got.a - a), abs(got.b - b), abs(got.omega - omega))
    if err > 1e-12:
        raise AssertionError(f"parameter realization off by {err:.3e}")
