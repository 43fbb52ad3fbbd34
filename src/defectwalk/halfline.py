"""Localization analytics for one defect on the half line.

Atoms of the half-line measure are the unimodular roots of h(z) = 1 inside
the singular arcs.  In the arc coordinate zeta = -z^2 f_a(z) the root
condition becomes

    (zeta - b)^2 / (zeta - a)  real negative  ->  atom at +z(zeta),
    (zeta - b)^2 / (zeta - a)  real positive  ->  atom at -z(zeta),

with z(zeta) = (1 - conj(a) zeta)/|1 - conj(a) zeta| and zeta restricted to
the open arc Sigma_a.  On |zeta| = 1 the quotient is real exactly where
zeta p(zeta) = p*(zeta), with p(zeta) = (zeta - b)^2 (1 - conj(a) zeta) and
p* its reciprocal conjugate: the atoms are the unimodular roots of that
quartic on the open arc, polished by Newton steps; the sign of the real
part selects the family.  For fixed a the two families of straight lines
swept by the condition have envelopes outside the unit disk whose tangency
pattern, governed by an epicycloid and an epitrochoid, partitions the
a-plane into the region classes L0, L1, L2 (number of localization-free
bands of b: zero, one, or two).  Both curves are cubics in w = e^{it}, so
the winding of each around a is the number of roots of curve(w) = a in the
open unit disk (the argument principle): an exact count.  The cusps and the
double points of the curves are roots as well.  Every deciding root is a
companion-matrix eigenvalue from one batched helper; the batched atom count
asks it only where closed-form roots leave a decision without margin.  Only
the ``grid`` oracle of ``mass_point_count`` samples.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coins import Qubit
from .errors import BorderlineA, BoundaryZeta, CuspParameter, ZeroA
from .schur import _check_disk, h_halfline_boundary

__all__ = [
    "MassPointHalfline",
    "Chord",
    "RegionClassHalfline",
    "ReturnAsymptotics",
    "sigma_arc",
    "zeta_point",
    "in_s_region",
    "mass_points",
    "mass_point_count",
    "point_mass",
    "return_asymptotics",
    "return_probability_cesaro",
    "return_probability_limit",
    "nonlocalized_qubit",
    "envelope_point",
    "limit_lines",
    "classify_region",
    "epicycloid",
    "epitrochoid",
    "epitrochoid_velocity",
    "epicycloid_cusps",
    "epitrochoid_self_intersections",
    "state_function",
    "atom_weight",
    "residual",
]

_T_MARGIN = 1e-9
_ROOT_SEP = 1e-6
_DELTA = 1e-9  # ~1000x the gap between fast and companion roots of the atom quartic
_BLOCK = 2048  # points per block of a batched count: bounds its temporaries
_I, _J = np.triu_indices(4, 1)  # the six pairs i < j of a quartic's four roots


@dataclass(frozen=True)
class MassPointHalfline:
    """An atom of the half-line measure.

    ``side`` is +1 when z0 lies on the right singular arc (Gamma_a^+) and
    -1 on the left one; ``t`` is the arc parameter of zeta0 (diagnostic).
    """

    z0: complex
    zeta0: complex
    side: int
    mu: float
    t: float


@dataclass(frozen=True)
class Chord:
    """A straight segment with both endpoints on the unit circle."""

    start: complex
    end: complex
    family: int  # +1: direction i sqrt(zeta - a); -1: direction sqrt(zeta - a)
    anchor: str  # "zeta_plus" or "zeta_minus"


@dataclass(frozen=True)
class RegionClassHalfline:
    """Region class of a: L0/L1/L2 plus the geometric evidence."""

    l_label: str
    limit_chords: tuple[Chord, ...]
    tangent_profile: str
    epitrochoid_winding: int
    full_envelope_tangencies: int


def sigma_arc(a: complex) -> tuple[float, float]:
    """Open parameter interval (t_lo, t_hi) of the arc Sigma_a, where
    zeta(t) = (a/|a|) e^{it} and cos t < |a|."""
    if a == 0:
        raise ZeroA("sigma_arc requires a != 0")
    t0 = math.acos(abs(a))
    return t0, 2.0 * math.pi - t0


def zeta_point(a: complex, t) -> complex | np.ndarray:
    u = a / abs(a)
    val = u * np.exp(1j * np.asarray(t, dtype=float))
    return val if val.ndim else complex(val)


def in_s_region(a: complex, b: complex, margin: float = 0.0) -> bool:
    """Whether b lies in the open set S(a) bounded by the arc Sigma_a and
    the chord through its endpoints: |b| < 1 and Re(conj(a) b) < |a|^2.

    For purely imaginary a this set is exactly the localization region of b.
    """
    if abs(b) >= 1.0 - margin:
        return False
    return (a.conjugate() * b).real < abs(a) ** 2 - margin


def _family_quotient(a: complex, b: complex, zeta):
    return (zeta - b) ** 2 / (zeta - a)


def _companion_roots(coeffs):
    """Roots of the polynomials stacked along the last axis of ``coeffs``
    (highest degree first, leading coefficient nonzero): eigenvalues of the
    companion matrices built as ``np.roots`` builds them (first row
    -p[1:]/p[0], ones below the diagonal, same dtype), so they round alike."""
    p = np.asarray(coeffs)
    n = p.shape[-1] - 1
    companion = np.zeros(p.shape[:-1] + (n, n), dtype=p.dtype)
    companion[..., 0, :] = -p[..., 1:] / p[..., :1]
    companion[..., range(1, n), range(n - 1)] = 1
    return np.linalg.eigvals(companion)


def _atom_quartic(a, b):
    """Coefficients of zeta p(zeta) - p*(zeta), highest degree first, on the last axis."""
    ac, bc = a.conj(), b.conj()
    coeffs = (-ac, 1 + 2 * ac * b - bc**2, 2 * (bc - b) - ac * b**2 + a * bc**2, b**2 - 1 - 2 * a * bc, a)
    return np.stack(coeffs, axis=-1)


def _arc_roots(a, b):
    """Roots of zeta p(zeta) - p*(zeta), batched over broadcast arrays a != 0
    and b, and the mask of those that are unimodular and lie inside Sigma_a by
    more than ``_T_MARGIN`` in Re(conj(a) zeta).  Roots at the arc ends (a
    free walk, b = a, has one at each) carry no mass and are dropped.

    Raises
    ------
    BorderlineA
        If two of the four roots lie within ``_ROOT_SEP`` (a near-tangency),
        or if the quartic made monic is not finite (|a| so small, subnormal,
        that 1/a overflows).
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    coeffs = _atom_quartic(a, b)
    with np.errstate(all="ignore"):
        monic_finite = np.isfinite(coeffs[..., 1:] / coeffs[..., :1]).all()
    if not monic_finite:
        raise BorderlineA("the atom quartic overflows when made monic: |a| is too small")
    roots = _companion_roots(coeffs)
    if np.any(np.abs(roots[..., _I] - roots[..., _J]) < _ROOT_SEP):
        raise BorderlineA(f"two roots of the atom equation lie within {_ROOT_SEP:g}")
    inside = (a.conj()[..., None] * roots).real < (np.abs(a) ** 2)[..., None] - _T_MARGIN
    return roots, (np.abs(np.abs(roots) - 1.0) < 1e-7) & inside


def mass_points(a: complex, b: complex) -> list[MassPointHalfline]:
    """All atoms of the half-line measure for parameters (a, b), between
    zero and three, ordered by arc parameter.

    Each root of the quartic inside the open arc is polished by three Newton
    steps on Im[(zeta(t) - b)^2/(zeta(t) - a)] along the arc.
    """
    _check_disk(a, b)
    if a == 0:
        raise ZeroA("mass_points requires a != 0")
    roots, keep = _arc_roots(a, b)
    u = a / abs(a)
    ts = np.mod(np.angle(roots[keep] / u), 2.0 * math.pi)
    out = []
    for t in ts:
        for _ in range(3):
            zeta = u * cmath.exp(1j * t)  # d/dt Im q(zeta) = Re(q'(zeta) zeta)
            slope = ((zeta - b) * (zeta - 2 * a + b) / (zeta - a) ** 2 * zeta).real
            t -= _family_quotient(a, b, zeta).imag / slope
        out.append(_atom_from_parameter(a, b, float(t)))
    out.sort(key=lambda p: p.t)
    return out


def _atom_from_parameter(a: complex, b: complex, t: float) -> MassPointHalfline:
    zeta0 = zeta_point(a, t)
    side = -1 if _family_quotient(a, b, zeta0).real > 0 else 1
    w = 1.0 - a.conjugate() * zeta0
    z0 = side * w / abs(w)
    return MassPointHalfline(z0, zeta0, side, point_mass(a, b, zeta0), t)


def mass_point_count(a, b, grid: int | None = None):
    """Number of atoms, broadcast over arrays of a and b; 0 where a = 0.

    Returns an ``int`` for scalar input.  Ferrari's closed-form roots give the
    count where each decision of ``_arc_roots`` holds by ``_DELTA``, and it
    recounts the rest.  With ``grid`` the count is instead the number of sign
    changes of Im[(zeta - b)^2/(zeta - a)] on that many uniform points of the
    arc (scalars only): a sampling oracle that misses atoms closer together
    than one cell.
    """
    _check_disk(a, b)
    if grid is not None:
        if a == 0:
            return 0
        t_lo, t_hi = sigma_arc(a)
        ts = np.linspace(t_lo + _T_MARGIN, t_hi - _T_MARGIN, grid)
        im = _family_quotient(a, b, zeta_point(a, ts)).imag
        sign = np.sign(im)
        return int(np.count_nonzero(sign[:-1] * sign[1:] < 0) + np.count_nonzero(im == 0.0))
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    counts = np.zeros(a.shape, dtype=int)
    nonzero = np.flatnonzero(a)
    for at in np.split(nonzero, range(_BLOCK, nonzero.size, _BLOCK)):
        ab, bb = a.flat[at], b.flat[at]
        with np.errstate(all="ignore"):  # overflow makes nan, which has no margin
            roots, step = _quartic_roots(_atom_quartic(ab, bb))
            off, gaps = np.abs(roots) - 1.0, np.abs(roots[:, _I] - roots[:, _J]) - _ROOT_SEP
            slack = (ab.conj()[:, None] * roots).real - (np.abs(ab) ** 2 - _T_MARGIN)[:, None]
            margin = np.concatenate((gaps, np.abs(np.abs(off) - 1e-7), np.abs(slack)), axis=-1)
            sure = (margin.min(axis=-1) > _DELTA) & (step.max(axis=-1) < _DELTA / 10)
        counts.flat[at] = ((np.abs(off) < 1e-7) & (slack < 0)).sum(axis=-1)
        if not sure.all():
            counts.flat[at[~sure]] = _arc_roots(ab[~sure], bb[~sure])[1].sum(axis=-1)
    return int(counts) if counts.ndim == 0 else counts


def _quartic_roots(c):
    """Roots of the quartics in the rows of ``c`` (highest degree first) by
    Ferrari's resolvent cubic and two Newton steps, and each last step |f/f'|:
    a root of f lies within 4 |f/f'| of the point the step started from."""
    _, B, C, D, E = cs = (c / c[:, :1]).T[..., None]
    p, q = C - 3 * B**2 / 8, D - B * C / 2 + B**3 / 8
    r = E - B * D / 4 + B**2 * C / 16 - 3 * B**4 / 256
    # a root m of the resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8, by Cardano
    s, u = -(p**2) / 12 - r, -(p**3) / 108 + p * r / 3 - q**2 / 8
    d = np.sqrt(u**2 / 4 + s**3 / 27)
    w = np.where(np.abs(d - u / 2) >= np.abs(d + u / 2), d - u / 2, -d - u / 2) ** (1 / 3)
    sq = np.sqrt(2 * (w - s / (3 * w) - p / 3))  # sqrt(2 m)
    x = [(g * sq + h * np.sqrt(-(2 * p + sq**2 + 2 * g * q / sq))) / 2 for g in (1, -1) for h in (1, -1)]
    x, slopes = np.concatenate(x, axis=-1) - B / 4, cs[:-1] * np.arange(4, 0, -1)[:, None, None]
    for _ in range(2):
        x = x - (step := np.polyval(cs, x) / np.polyval(slopes, x))
    return x, np.abs(step)


def point_mass(a: complex, b: complex, zeta0: complex) -> float:
    """Mass 1 / (1 + 2 (rho_b^2/|zeta0-b|^2) / (1 - rho_a^2/|zeta0-a|^2)).

    Raises
    ------
    BoundaryZeta
        If zeta0 sits on (or outside) the boundary of Sigma_a, where the
        denominator degenerates and no mass exists.
    """
    rho_a2 = 1.0 - abs(a) ** 2
    down = 1.0 - rho_a2 / abs(zeta0 - a) ** 2
    if down <= 1e-12:
        raise BoundaryZeta("zeta0 is not strictly inside Sigma_a")
    rho_b2 = 1.0 - abs(b) ** 2
    return float(1.0 / (1.0 + 2.0 * (rho_b2 / abs(zeta0 - b) ** 2) / down))


@dataclass(frozen=True)
class ReturnAsymptotics:
    """Asymptotic return data at the origin: one (z, c, d) triple per atom.

    p(n) tends to |sum z^n c|^2 + |sum z^n d|^2; with several atoms this
    oscillates, and its Cesaro mean is sum |c|^2 + |d|^2 because the cross
    terms average out for distinct unimodular z.
    """

    zs: tuple[complex, ...]
    cs: tuple[complex, ...]
    ds: tuple[complex, ...]

    def value(self, n: int) -> float:
        zn = np.asarray(self.zs) ** n
        return float(
            abs(np.dot(zn, self.cs)) ** 2 + abs(np.dot(zn, self.ds)) ** 2
        )

    @property
    def cesaro(self) -> float:
        return float(
            sum(abs(c) ** 2 for c in self.cs) + sum(abs(d) ** 2 for d in self.ds)
        )

    @property
    def limit(self) -> float | None:
        """The plain limit: ``value(0)`` with at most one atom (0 with none), else None."""
        return self.value(0) if len(self.zs) <= 1 else None


def return_asymptotics(a: complex, b: complex, q: Qubit) -> ReturnAsymptotics:
    """Atomic contributions to the return probability for a hatted qubit."""
    return _asymptotics(b, mass_points(a, b), q)


def _asymptotics(b: complex, points: list[MassPointHalfline], q: Qubit) -> ReturnAsymptotics:
    rho_b = math.sqrt(1.0 - abs(b) ** 2)
    zs, cs, ds = [], [], []
    for pt in points:
        factor = q.alpha - q.beta * rho_b / (pt.zeta0 - b).conjugate()
        zs.append(pt.z0)
        cs.append(pt.mu * factor)
        ds.append(-pt.mu * rho_b / (pt.zeta0 - b) * factor)
    return ReturnAsymptotics(tuple(zs), tuple(cs), tuple(ds))


def return_probability_cesaro(a: complex, b: complex, q: Qubit) -> float:
    """Cesaro-averaged asymptotic return probability (hatted qubit)."""
    return return_asymptotics(a, b, q).cesaro


def return_probability_limit(a: complex, b: complex, q: Qubit) -> float:
    """Plain limit of p(n); raises if several atoms make it oscillatory."""
    lim = return_asymptotics(a, b, q).limit
    if lim is None:
        raise ValueError("several atoms: p(n) oscillates; use the cesaro mode")
    return lim


def nonlocalized_qubit(a: complex, b: complex) -> Qubit | None:
    """The localization-free qubit (hatted frame) when exactly one atom
    exists: beta = alpha (conj(zeta0) - conj(b)) / rho_b.  None otherwise."""
    return _nonlocalized(b, mass_points(a, b))


def _nonlocalized(b: complex, pts: list[MassPointHalfline]) -> Qubit | None:
    if len(pts) != 1:
        return None
    rho_b = math.sqrt(1.0 - abs(b) ** 2)
    return Qubit.normalized(1.0, (pts[0].zeta0 - b).conjugate() / rho_b)


def state_function(a: complex, b: complex, q: Qubit, z: complex) -> complex:
    """Scalar function of the hatted origin qubit: alpha + (beta/rho_b)(1/z - b)."""
    rho_b = math.sqrt(1.0 - abs(b) ** 2)
    return q.alpha + q.beta * (1.0 / z - b) / rho_b


def atom_weight(a: complex, b: complex, q: Qubit, point: MassPointHalfline) -> float:
    """Diagonal spectral weight |psi(z0)|^2 mu({z0}) of the hatted qubit."""
    return float(abs(state_function(a, b, q, point.z0)) ** 2 * point.mu)


def residual(a: complex, b: complex, point: MassPointHalfline) -> float:
    """|h(z0) - 1| at a reported atom."""
    return float(abs(h_halfline_boundary(a, b, cmath.phase(point.z0)) - 1.0))


# ---------------------------------------------------------------------------
# Envelope geometry and the region classes of the a-plane
# ---------------------------------------------------------------------------


def envelope_point(a: complex, t: float, sign: int) -> complex:
    """Point of the envelope of the family of lines through zeta(t).

    For cos t <= |a| (arc parameters) the point lies on the exterior
    envelope, outside the open unit disk.

    Raises
    ------
    CuspParameter
        Where the defining linear system degenerates (cusp of the envelope).
    """
    if a == 0:
        raise ZeroA("envelope_point requires a != 0")
    zeta = zeta_point(a, t)
    big_a = zeta - a
    x = big_a + sign * abs(big_a)
    y = zeta.conjugate() + sign * 1j * (a.conjugate() * zeta).imag / abs(big_a)
    denom = (x * y).real
    if abs(denom) < 1e-12:
        raise CuspParameter(f"envelope system degenerates at t = {t}")
    return zeta + 1j * ((x * zeta.conjugate()).imag / denom) * x


def limit_lines(a: complex) -> tuple[Chord, Chord, Chord, Chord]:
    """The four limit chords, one per family and arc endpoint.

    Each joins an endpoint of Sigma_a to the matching branch point of the
    z-plane arcs; the two chords at an endpoint are orthogonal, with
    directions parallel to sqrt(+-i a).
    """
    if a == 0:
        raise ZeroA("limit_lines requires a != 0")
    u = a / abs(a)
    rho = math.sqrt(1.0 - abs(a) ** 2)
    zeta_plus = u * (abs(a) + 1j * rho)
    zeta_minus = u * (abs(a) - 1j * rho)
    za = rho + 1j * abs(a)
    return (
        Chord(zeta_plus, za, +1, "zeta_plus"),
        Chord(zeta_plus, -za, -1, "zeta_plus"),
        Chord(zeta_minus, za.conjugate(), +1, "zeta_minus"),
        Chord(zeta_minus, -za.conjugate(), -1, "zeta_minus"),
    )


def epicycloid(t) -> complex | np.ndarray:
    """(3/4) e^{it} - (1/4) e^{3it}: two cusps, at +-1/2."""
    t = np.asarray(t, dtype=float)
    val = 0.75 * np.exp(1j * t) - 0.25 * np.exp(3j * t)
    return val if val.ndim else complex(val)


def epitrochoid(t) -> complex | np.ndarray:
    """(1/2) e^{it} - (1/2) e^{3it}: two loops, self-intersecting at
    +-1/sqrt(2)."""
    t = np.asarray(t, dtype=float)
    val = 0.5 * np.exp(1j * t) - 0.5 * np.exp(3j * t)
    return val if val.ndim else complex(val)


def epitrochoid_velocity(t) -> complex | np.ndarray:
    t = np.asarray(t, dtype=float)
    val = 0.5j * np.exp(1j * t) - 1.5j * np.exp(3j * t)
    return val if val.ndim else complex(val)


# The two curves as polynomials in w = e^{it}, highest degree first.
_EPICYCLOID = (-0.25, 0.0, 0.75, 0.0)
_EPITROCHOID = (-0.5, 0.0, 0.5, 0.0)

_EDGE_TOL = 1e-12
_BORDER_TOL = 1e-9


def _disk_roots(curve, a: complex) -> tuple[int, float]:
    """Roots of curve(w) = a: how many lie in the open unit disk, and the
    smallest |curve(r/|r|) - a| over the roots r.

    By the argument principle the count is the winding number of the curve
    around a.  The second value is measured to a point on the curve, so it
    bounds the distance from a to the curve from above and equals it to
    first order; it is 0 at a cusp, where a double root of the cubic may sit
    off the circle by the square root of the rounding error.  A root at 0
    (the middle one for 0 < |a| below about 1e-30) is measured at w = 1.
    """
    roots = _companion_roots(np.subtract(curve, (0.0, 0.0, 0.0, a)))
    modulus = np.abs(roots)
    unit = np.divide(roots, modulus, out=np.ones_like(roots), where=modulus > 0)
    gap = np.abs(np.polyval(curve, unit) - a).min()
    return int(np.count_nonzero(np.abs(roots) < 1.0)), float(gap)


def classify_region(a: complex) -> RegionClassHalfline:
    """Region class of a: which b give localization, by limit-line count.

    L_k means k limit chords cross the open complementary arc of Sigma_a,
    leaving k localization-free bands of b.  The epitrochoid winding number
    around a (0, 1, or 2: outside, inside, inside a loop), counted exactly as
    the roots of the cubic epitrochoid(w) = a in the open unit disk, is an
    independent cross-check; purely imaginary a makes two chords coincide in
    a single tangent-degenerate line, counted once.  The envelope tangencies
    come from the same root count on the epicycloid: 4 outside it, 2 inside,
    3 on it (within 1e-9, cusps included).

    Raises
    ------
    BorderlineA
        If a is within 1e-9 of the epitrochoid, measured from a to the curve
        points over the roots of the cubic: the class is discontinuous across
        the curve and is not decided numerically.
    """
    _check_disk(a)
    if a == 0:
        raise ZeroA("classify_region requires a != 0")
    winding, dist = _disk_roots(_EPITROCHOID, a)
    if dist <= _BORDER_TOL:
        raise BorderlineA("a lies on the classifying epitrochoid within 1e-9")
    chords = limit_lines(a)
    aa = abs(a) ** 2
    crossings = 0
    degenerate = 0
    for chord in chords:
        gap = (a.conjugate() * chord.end).real - aa
        if gap > _EDGE_TOL:
            crossings += 1
        elif abs(gap) <= _EDGE_TOL:
            degenerate += 1
    crossings += degenerate // 2
    if crossings != winding:
        raise AssertionError(
            f"limit-line count {crossings} disagrees with epitrochoid winding {winding}"
        )
    label = f"L{crossings}"
    profile = {0: "Te1+2", 1: "Te1+1", 2: "Te0+1"}[crossings]
    inside, dist = _disk_roots(_EPICYCLOID, a)
    if dist <= _BORDER_TOL:
        tangents = 3
    else:
        tangents = 2 if inside else 4
    return RegionClassHalfline(label, chords, profile, winding, tangents)


def epicycloid_cusps() -> list[complex]:
    """Cusp points of the epicycloid: its values at the unimodular roots of
    the derivative of its polynomial in w = e^{it}."""
    roots = _companion_roots(np.polyder(_EPICYCLOID))
    return [complex(np.polyval(_EPICYCLOID, r)) for r in roots if abs(abs(r) - 1.0) < 1e-9]


def epitrochoid_self_intersections() -> list[complex]:
    """Transversal self-intersection points of the epitrochoid (w - w^3)/2,
    w = e^{it}.

    curve(w1) = curve(w2) with w1 != w2 reduces to w1^2 + w1 w2 + w2^2 = 1.
    On the unit circle this forces (w1 + w2, w1 w2) = (+-sqrt 2, 1), the
    crossings at +-1/sqrt 2, or (0, -1), the tangential double point at the
    origin.  Each pair is the root pair of w^2 - (w1 + w2) w + w1 w2; pairs
    with parallel velocities (the tangential one) are dropped.
    """
    s2 = math.sqrt(2.0)
    pairs = _companion_roots([[1.0, -s2, 1.0], [1.0, s2, 1.0], [1.0, 0.0, -1.0]])
    v = epitrochoid_velocity(np.angle(pairs))
    transversal = np.abs((v[:, 0].conjugate() * v[:, 1]).imag) >= 1e-9
    return [complex(z) for z in np.polyval(_EPITROCHOID, pairs[transversal, 0])]
