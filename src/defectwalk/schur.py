"""Schur/Caratheodory machinery for one-defect walks.

The walk measure (in its rotated canonical frame) is encoded by two scalar
Schur functions: ``schur_constant`` has reflection coefficients
(a, 0, a, 0, ...) and describes the unperturbed walk, ``schur_defect``
prepends the defect coefficient b.  Everything else here is derived from
them: boundary values on the unit circle, the root functions whose
unimodular solutions locate the atoms of the measure, the absolutely
continuous weight, and the quadrature rule used to integrate it: Gauss-Legendre
after a cosine substitution that smooths the square-root endpoints of each
arc (see :func:`arc_nodes`).

Branch convention: the square root of the discriminant is the analytic
branch on the disk with value +1 at z = 0, realized as a product of two
principal square roots so no branch tracking is needed.  Boundary values on
the circle are computed from their own closed form and cross-checked against
radial limits in the tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import BranchPoint, ParameterOutOfDisk, ZeroA

__all__ = [
    "discriminant",
    "sqrt_discriminant",
    "branch_points",
    "schur_constant",
    "schur_constant_boundary",
    "schur_defect",
    "schur_defect_boundary",
    "arc_map_boundary",
    "g_line",
    "g_line_boundary",
    "g_from_zeta",
    "h_halfline",
    "h_halfline_boundary",
    "schur_step",
    "schur_inverse_step",
    "weight_halfline",
    "weight_line",
    "support_arcs",
    "arc_nodes",
]


def discriminant(a: complex, z) -> complex | np.ndarray:
    """(z^2 - 1)^2 + 4 |a|^2 z^2, a polynomial in z."""
    z = np.asarray(z, dtype=complex)
    val = (z * z - 1.0) ** 2 + 4.0 * abs(a) ** 2 * z * z
    return val if val.ndim else complex(val)


def branch_points(a: complex) -> tuple[complex, complex, complex, complex]:
    """The four unimodular roots of the discriminant: +-z_a, +-conj(z_a)."""
    rho = math.sqrt(1.0 - abs(a) ** 2)
    za = rho + 1j * abs(a)
    return za, -za, za.conjugate(), -za.conjugate()


def sqrt_discriminant(a: complex, z) -> complex | np.ndarray:
    """Analytic square root of the discriminant with value +1 at z = 0.

    Factoring the discriminant as (1 - conj(za)^2 z^2)(1 - za^2 z^2) with
    za = rho_a + i|a| puts each factor in the closed right half plane for
    |z| <= 1, so the principal square roots multiply to the analytic branch.
    """
    z = np.asarray(z, dtype=complex)
    rho = math.sqrt(1.0 - abs(a) ** 2)
    za2 = (rho + 1j * abs(a)) ** 2
    val = np.sqrt(1.0 - np.conj(za2) * z * z) * np.sqrt(1.0 - za2 * z * z)
    return val if val.ndim else complex(val)


def schur_constant(a: complex, z) -> complex | np.ndarray:
    """Schur function with constant reflection coefficients (a, 0, a, 0, ...).

    Evaluated as 2a / (1 - z^2 + sqrt(discriminant)), which is stable for
    all |z| <= 1 and takes the value a at z = 0.

    Raises
    ------
    ZeroA
        If a = 0 (the formula degenerates; the measure is then Lebesgue).
    """
    if a == 0:
        raise ZeroA("schur_constant requires a != 0")
    z = np.asarray(z, dtype=complex)
    val = 2.0 * a / (1.0 - z * z + sqrt_discriminant(a, z))
    return val if val.ndim else complex(val)


def schur_constant_boundary(a: complex, theta) -> complex | np.ndarray:
    """Boundary values of :func:`schur_constant` on the unit circle.

    Modulus 1 exactly on the two arcs |sin theta| <= |a|, modulus < 1
    elsewhere.
    """
    if a == 0:
        raise ZeroA("schur_constant requires a != 0")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    s = np.sin(th)
    val = _constant_boundary(a, th, s, np.sqrt(np.maximum(s * s - abs(a) ** 2, 0.0)))
    return val if np.ndim(theta) else complex(val[0])


def _constant_boundary(a: complex, th: np.ndarray, s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """f_a at e^{i th} (th at least 1-d) from s = sin th and q = sqrt(max(s^2 - |a|^2, 0)),
    as a e^{-i th} / (r - i s) with r = sign(cos th) sqrt(|a|^2 - s^2) where s^2 <= |a|^2, else
    -i sign(s) q: this is e^{-i th} (r + i s) / conj(a), whose r + i s cancels off the arcs."""
    r = -1j * np.sign(s) * q
    on = s * s <= abs(a) ** 2
    r[on] = np.sign(np.cos(th[on])) * np.sqrt(np.maximum(abs(a) ** 2 - s[on] * s[on], 0.0))
    return a * np.exp(-1j * th) / (r - 1j * s)


def schur_defect(a: complex, b: complex, z) -> complex | np.ndarray:
    """Schur function with reflection coefficients (b, 0, a, 0, a, ...)."""
    w = np.asarray(z, dtype=complex) ** 2 * schur_constant(a, z)
    val = (w + b) / (1.0 + np.conj(b) * w)
    return val if val.ndim else complex(val)


def _boundary_parts(b: complex, theta, fa):
    """(w, w + b, 1 + conj(b) w) at z = e^{i theta}, with w = z^2 f_a; the
    last two are the numerator and denominator of f_{a,b}."""
    w = np.exp(2j * np.asarray(theta, dtype=float)) * fa
    return w, w + b, 1.0 + np.conj(b) * w


def schur_defect_boundary(a: complex, b: complex, theta) -> complex | np.ndarray:
    _, num, den = _boundary_parts(b, theta, schur_constant_boundary(a, theta))
    val = num / den
    return val if val.ndim else complex(val)


def arc_map_boundary(a: complex, theta) -> complex | np.ndarray:
    """The change of variables zeta = -z^2 f_a(z) at z = e^{i theta}.

    Maps each half of the singular arcs one-to-one onto the arc Sigma_a of
    the circle where Re(conj(a) zeta) < |a|^2.
    """
    theta = np.asarray(theta, dtype=float)
    val = -np.exp(2j * theta) * schur_constant_boundary(a, theta)
    return val if val.ndim else complex(val)


def g_line(a: complex, b: complex, z) -> complex | np.ndarray:
    """z^2 f_a(z) f_{a,b}(z); its unimodular roots g = 1 carry the atoms of
    the (folded) line measure."""
    z = np.asarray(z, dtype=complex)
    val = z * z * schur_constant(a, z) * schur_defect(a, b, z)
    return val if val.ndim else complex(val)


def g_line_boundary(a: complex, b: complex, theta) -> complex | np.ndarray:
    w, num, den = _boundary_parts(b, theta, schur_constant_boundary(a, theta))
    val = w * (num / den)
    return val if val.ndim else complex(val)


def g_from_zeta(b: complex, zeta) -> complex | np.ndarray:
    """g expressed through the arc variable: zeta (zeta - b) / (1 - conj(b) zeta)."""
    zeta = np.asarray(zeta, dtype=complex)
    val = zeta * (zeta - b) / (1.0 - np.conj(b) * zeta)
    return val if val.ndim else complex(val)


def h_halfline(a: complex, b: complex, z) -> complex | np.ndarray:
    """z f_{a,b}(z); its unimodular roots h = 1 carry the atoms of the
    half-line measure."""
    z = np.asarray(z, dtype=complex)
    val = z * schur_defect(a, b, z)
    return val if val.ndim else complex(val)


def h_halfline_boundary(a: complex, b: complex, theta) -> complex | np.ndarray:
    theta = np.asarray(theta, dtype=float)
    val = np.exp(1j * theta) * schur_defect_boundary(a, b, theta)
    return val if val.ndim else complex(val)


def _check_disk(*params):
    """Raise ParameterOutOfDisk unless every parameter, scalar or array,
    lies strictly inside the unit disk.  Fails closed: nan compares false."""
    for p in params:
        if not (abs(p) < 1.0 if np.isscalar(p) else np.all(np.abs(p) < 1.0)):
            raise ParameterOutOfDisk("parameters must lie strictly inside the unit disk")


def schur_step(f, alpha: complex):
    """One forward step of the Schur algorithm on a callable.

    Returns the callable z -> (f(z) - alpha) / (z (1 - conj(alpha) f(z))).
    """
    _check_disk(alpha)

    def stepped(z):
        fz = f(z)
        return (fz - alpha) / (np.asarray(z, dtype=complex) * (1.0 - np.conj(alpha) * fz))

    return stepped


def schur_inverse_step(f, alpha: complex):
    """Inverse Schur step: z -> (z f(z) + alpha) / (1 + conj(alpha) z f(z))."""
    _check_disk(alpha)

    def unstepped(z):
        zf = np.asarray(z, dtype=complex) * f(z)
        return (zf + alpha) / (1.0 + np.conj(alpha) * zf)

    return unstepped


_BRANCH_TOL = 1e-12


def _branch_mask(a: complex, theta: np.ndarray) -> np.ndarray:
    """Where theta lies within 1e-12 of a branch point, |sin theta| = |a|:
    the weight is refused there (``BranchPoint``, or ``nan`` rows in the CLI)."""
    return np.abs(np.abs(np.sin(theta)) - abs(a)) <= _BRANCH_TOL


def _ac_weight(a: complex, b: complex, theta, check_branch: bool, density, cell=()):
    """Frame of both weights: zero on the singular arcs |sin theta| < |a| and
    ``density(z, f_a, w, num, den, 1 - |f_a|^2, 1 - |f_{a,b}|^2)`` elsewhere
    (``w, num, den`` as in :func:`_boundary_parts`), shaped like theta (at
    least 1-d) plus ``cell``.  Both ``1 - |f|^2`` are closed forms that stay
    accurate beside the branch points: 2q / (|sin theta| + q) with
    q = sqrt(sin^2 theta - |a|^2), and the Moebius identity
    (1 - |b|^2)(1 - |f_a|^2) / |den|^2.  sin theta is taken once, for the
    arc mask, f_a and both closed forms, and q once, for f_a and 1 - |f_a|^2;
    f_a's singular-arc root is left to the nodes where sin^2 theta = |a|^2.
    """
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if check_branch and np.any(_branch_mask(a, theta_arr)):
        raise BranchPoint("theta too close to a branch point of the weight")
    out = np.zeros(theta_arr.shape + cell, dtype=complex if cell else float)
    sin = np.sin(theta_arr)
    ac = ~(sin**2 < abs(a) ** 2)
    if np.any(ac):
        th, s = theta_arr[ac], sin[ac]
        q = np.sqrt(np.maximum(s * s - abs(a) ** 2, 0.0))
        fa = _constant_boundary(a, th, s, q)
        w, num, den = _boundary_parts(b, th, fa)
        d_a = 2.0 * q / (np.abs(s) + q)
        d_ab = (1.0 - abs(b) ** 2) * d_a / np.abs(den) ** 2
        out[ac] = density(np.exp(1j * th), fa, w, num, den, d_a, d_ab)
    return out


def weight_halfline(
    a: complex, b: complex, theta, check_branch: bool = True
) -> float | np.ndarray:
    """Density of the half-line measure against dtheta / 2 pi.

    Exactly zero on the singular arcs |sin theta| < |a|; elsewhere
    Re (1 + h) / (1 - h) with h the boundary values of z f_{a,b}(z),
    evaluated as (1 - |h|^2) / |1 - h|^2 with the numerator in closed form
    (see :func:`_ac_weight`).  ``check_branch=False`` skips the branch-point
    proximity guard; the quadrature uses it because its nodes crowd
    quadratically toward the (integrable) endpoints.
    """

    def density(z, fa, w, num, den, d_a, d_ab):
        return d_ab / np.abs(1.0 - z * num / den) ** 2

    out = _ac_weight(a, b, theta, check_branch, density)
    return out if np.ndim(theta) else float(out[0])


def weight_line(
    a: complex, b: complex, omega: complex, theta, check_branch: bool = True
) -> np.ndarray:
    """2x2 matrix density of the folded line measure against dtheta / 2 pi.

    Zero matrix on the singular arcs; elsewhere Re F with F built from the
    antidiagonal Schur function carrying omega f_a and conj(omega) f_{a,b}.
    Output shape is theta.shape + (2, 2).
    """

    def density(z, fa, w, num, den, d_a, d_ab):
        # Sandwich form W = (M^-1)^dag (1 - f^dag f) M^-1 with M = 1 - z f:
        # every factor is computed without cancellation, so W stays PSD in
        # floating point even beside the branch points where |g| -> 1.
        fab = num / den
        u = z * omega * fa
        v = z * np.conj(omega) * fab
        scale = 1.0 / np.abs(1.0 - w * fab) ** 2  # g = z^2 f_a f_{a,b}
        cell = np.zeros(z.shape + (2, 2), dtype=complex)
        cell[..., 0, 0] = (d_ab + d_a * np.abs(v) ** 2) * scale
        cell[..., 1, 1] = (d_ab * np.abs(u) ** 2 + d_a) * scale
        cell[..., 0, 1] = (d_ab * u + d_a * np.conj(v)) * scale
        cell[..., 1, 0] = np.conj(cell[..., 0, 1])
        return cell

    out = _ac_weight(a, b, theta, check_branch, density, (2, 2))
    return out if np.ndim(theta) else out[0]


def support_arcs(a: complex) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two open arcs of the circle carrying the absolutely continuous
    weight, as theta intervals: (theta_a, pi - theta_a) and its reflection,
    with theta_a = arcsin |a|."""
    if a == 0:
        raise ZeroA("support_arcs requires a != 0")
    ta = math.asin(abs(a))
    return ((ta, math.pi - ta), (math.pi + ta, 2.0 * math.pi - ta))


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, ...]:
    x, w = np.polynomial.legendre.leggauss(n)
    phi = 0.5 * math.pi * (x + 1.0)
    return phi < 0.5 * math.pi, np.sin(0.5 * phi) ** 2, np.cos(0.5 * phi) ** 2, np.sin(phi), w


def arc_nodes(lo: float, hi: float, n: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [lo, hi] after theta = mid - half cos(phi).

    With mid and half the midpoint and half-length of [lo, hi] and (x_k, w_k)
    the Legendre rule on [-1, 1], the rule is plain Gauss-Legendre in
    phi_k = (pi/2)(x_k + 1) on [0, pi]: nodes mid - half cos(phi_k), weights
    (pi/2) half sin(phi_k) w_k.  The weight's only non-analytic points on an
    arc are its two endpoints, where it behaves like a square root or an
    inverse square root.  Since theta - lo = 2 half sin^2(phi/2) and
    dtheta = half sin(phi) dphi, both become analytic in phi, so the rule
    converges exponentially.  Each node is placed from its nearer endpoint
    (lo + 2 half sin^2(phi/2) or hi - 2 half cos^2(phi/2)), so the nodes
    crowding an endpoint keep their offsets from it to full relative
    precision.  The Legendre rule and its phi-only factors (the mask
    phi < pi/2, sin^2(phi/2), cos^2(phi/2), sin(phi) and w_k) are computed
    once per n, on first use; each arc only scales and shifts them.
    """
    first, sin2, cos2, sin_phi, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    nodes = np.where(first, lo + 2.0 * half * sin2, hi - 2.0 * half * cos2)
    return nodes, (0.5 * math.pi * half) * sin_phi * w
