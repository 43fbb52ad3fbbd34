"""Banded transition matrices in the CMV ordering and exact evolution.

Basis ordering
--------------
half line::

    |0 up>, |0 dn>, |1 up>, |1 dn>, ...      index(k, up) = 2k, index(k, dn) = 2k+1

line (folded at the origin)::

    |0 up>, |-1 dn>, |-1 up>, |0 dn>, |1 up>, |-2 dn>, |-2 up>, |1 dn>, ...

    index(j, up) = 4j     and  index(j, dn) = 4j+3      for j >= 0
    index(j, up) = -4j-2   and  index(j, dn) = -4j-3     for j <= -1

Matrix convention: ``U[i, j]`` is the amplitude carried from basis state i to
basis state j, so one step of evolution maps a row vector psi to ``psi @ U``.
With this ordering U is pentadiagonal on the half line (scalar half-width 2)
and five-block-diagonal on the line (2x2 blocks; scalar half-width 4).

``build_transition`` assembles U twice, once directly from the coin action
and once as Lambda C Lambda^dagger with the CMV factorization, and verifies
entry-wise agreement before returning.  One writer, ``_coin_band``, lays out
both, all rows at once from the site and spin arrays of the basis
(``site_of_index`` and ``index_of`` both work elementwise): U is the walk
with the given coins, and the CMV matrix C is the walk whose coin at site x
is the Szego coin [[rho, -alpha], [conj alpha, rho]] of the Verblunsky
coefficient alpha = alpha_{2x}; the check thus compares the raw coin entries
with the CGMV formulas for alpha and Lambda.  The phases of Lambda and of the
Verblunsky coefficients are reduced mod 2 pi from exact partial products, so
the agreement holds to a few eps at any size.

Evolution
---------
``evolve`` applies the band (``BandedUnitary.step``) to a whole truncated
state; with ``to_dense`` it is the evolution oracle.  The walk functions
(``return_probability_series``, ``moments_at_origin``, ``amplitude`` and the
simulated moments of ``oracles``) instead step in natural site order, "coin,
then shift", which is the two-factor block structure behind the CMV
factorization, and touch only the sites inside the light cone of the start
sites that can still reach an observed site (one window per block of steps).
A step is one multiply, one add and one slice copy.  Both put the state left
of the coin in every product (numpy's fused complex multiply rounds ``x * c``
and ``c * x`` apart) and add the same two products, so they agree bit for
bit, up to the sign of an exact zero.

Truncation: amplitudes are exact for the infinite system as long as the
ballistic cone (one site per step) stays inside the matrix.  The enforced
floor ``dim >= 2 (steps + |site| + 8)`` is the full-cone requirement on the
half line; on the line it is weaker than the full cone and keeps exact only
the amplitudes near the folding origin, because truncation errors born at the
edge need as many steps again to travel back.  Near a start far from the
origin it does not (from site 40, 200 steps at the floor move the return
probability by up to 1e-9): such a start needs ``default_dimension``, whose
sizes always cover the full cone.  The site-ordered walk needs no truncation: a
``dimension`` passed to it is validated against the floor, but the observed
amplitudes do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .coins import Lattice, Qubit, WalkSpec
from .errors import SizeTooSmall, TooLarge, TruncationTooSmall

__all__ = [
    "MAX_STEPS",
    "BandedUnitary",
    "index_of",
    "site_of_index",
    "min_dimension",
    "default_dimension",
    "build_lambda",
    "verblunsky_halfline",
    "verblunsky_line",
    "build_transition",
    "basis_state",
    "qubit_state",
    "evolve",
    "amplitude",
    "return_probability",
    "return_probability_series",
    "moments_at_origin",
]

MAX_STEPS = 100_000
"""Most steps a walk function takes; more raise ``TooLarge`` before any
buffer is allocated."""

# steps of ``_walk`` that share one window and one set of views
_BLOCK = 64


def index_of(lattice: Lattice, site, up):
    """Basis index of |site, spin> in the CMV ordering, elementwise for arrays
    of sites and spins; a Python int site and bool spin give an ``int``."""
    dn = 1 - up
    if lattice is Lattice.HALF_LINE:
        if np.any(site < 0):
            raise ValueError("half-line sites are nonnegative")
        return 2 * site + dn
    neg = site < 0  # index(j, up) = -4j - 2 and index(j, dn) = -4j - 3
    return (1 - 2 * neg) * (4 * site + 3 * dn) - 2 * neg * up


def site_of_index(lattice: Lattice, i):
    """Inverse of :func:`index_of`: returns (site, is_up), elementwise for an
    index array."""
    if lattice is Lattice.HALF_LINE:
        return i // 2, i % 2 == 0
    j, r = divmod(i, 4)  # r = 0, 3: site j; r = 1, 2: site -j - 1
    return j - (r % 3 != 0) * (2 * j + 1), r % 2 == 0


def min_dimension(steps: int, start_site: int = 0) -> int:
    """Smallest admissible truncation for ``steps`` steps from ``start_site``;
    on the line ``evolve`` from a start far from the origin needs more."""
    return 2 * (steps + abs(start_site) + 8)


def default_dimension(lattice: Lattice, steps: int, start_site: int = 0) -> int:
    """Truncation containing the full ballistic cone with margin."""
    reach = steps + abs(start_site) + 8
    if lattice is Lattice.HALF_LINE:
        return 2 * reach
    return 4 * reach + 4


@dataclass(frozen=True, eq=False)
class BandedUnitary:
    """Banded transition matrix U stored by rows.

    ``band[i, halfwidth + o]`` holds ``U[i, i + o]`` for offsets
    ``o in [-halfwidth, halfwidth]``.
    """

    lattice: Lattice
    band: np.ndarray

    @property
    def dim(self) -> int:
        return self.band.shape[0]

    @property
    def halfwidth(self) -> int:
        return (self.band.shape[1] - 1) // 2

    def entry(self, i: int, j: int) -> complex:
        off = j - i
        if abs(off) > self.halfwidth:
            return 0.0 + 0.0j
        return complex(self.band[i, self.halfwidth + off])

    def to_dense(self) -> np.ndarray:
        rows, offs = np.indices(self.band.shape)
        cols = rows + offs - self.halfwidth
        inside = (cols >= 0) & (cols < self.dim)
        dense = np.zeros((self.dim, self.dim), dtype=complex)
        dense[rows[inside], cols[inside]] = self.band[inside]
        return dense

    def step(self, psi: np.ndarray) -> np.ndarray:
        """One evolution step: returns ``psi @ U``."""
        w = self.halfwidth
        out = np.zeros_like(psi)
        for off in range(-w, w + 1):
            src = psi * self.band[:, w + off]
            if off >= 0:
                out[off:] += src[: self.dim - off] if off else src
            else:
                out[: self.dim + off] += src[-off:]
        return out


# 2 pi in three parts: the first two carry 30 significant bits, so q * part is
# exact for |q| < 2**23 (Cody-Waite reduction).
_TWO_PI = (
    float.fromhex("0x1.921fb54p+2"),
    float.fromhex("0x1.10b46118p-28"),
    float.fromhex("0x1.313198a2e037p-59"),
)
# Veltkamp splitter: x_hi keeps 26 significant bits, so m * x_hi is exact for
# integers |m| < 2**27.
_SPLIT = 2.0**27 + 1.0


def _unimodular(*terms) -> np.ndarray:
    """``exp(i * sum(m * x))`` for pairs (m, x) of integers (or integer
    arrays) and phases.

    The exact part ``m * x_hi`` of each product is reduced mod 2 pi before
    the sum.  Rounding ``m * x`` directly costs about ``|m| eps |x|`` of
    phase, which past a few thousand sites breaks the 1e-12 agreement of
    the build cross-check.
    """
    angle = 0.0
    for m, x in terms:
        m = np.asarray(m, dtype=float)
        big = _SPLIT * x
        x_hi = big - (big - x)
        hi = m * x_hi
        q = np.rint(hi / _TWO_PI[0])
        angle = angle + (hi - q * _TWO_PI[0] - q * _TWO_PI[1] - q * _TWO_PI[2]) + m * (x - x_hi)
    return np.exp(1j * angle)


def build_lambda(spec: WalkSpec, size: int) -> np.ndarray:
    """Diagonal of the unimodular factor Lambda, as a length-``size`` vector.

    With tau the defect's diagonal phases and sigma the coin's, |x up>
    carries e^{-i (tau1 + (x-1) sigma1)} for x >= 1 and e^{-i x sigma1} for
    x <= 0, and |x dn> carries e^{i (tau2 + x sigma2)} for x >= 0 and
    e^{i (x+1) sigma2} for x < 0.  On the line Lambda is diagonal in 2x2
    blocks, hence still a plain diagonal, and its sites x >= 0 carry the
    half line's Lambda.
    """
    if size < 2:
        raise SizeTooSmall("need size >= 2")
    c, d = spec.coin, spec.defect
    site, up = site_of_index(spec.lattice, np.arange(size))
    k = np.where(up, site, site + 1)
    ahead = (k > 0).astype(int)  # the mask of verblunsky_line
    sign = np.where(up, -1, 1)
    return _unimodular(
        (sign * ahead, np.where(up, d.sigma1, d.sigma2)),
        (sign * (k - ahead), np.where(up, c.sigma1, c.sigma2)),
    )


def verblunsky_halfline(spec: WalkSpec, count: int) -> np.ndarray:
    """First ``count`` Verblunsky coefficients (odd entries vanish).

    The even ones are those of the line for k >= 0.
    """
    alphas = np.zeros(count, dtype=complex)
    alphas[::2] = verblunsky_line(spec, np.arange(len(alphas[::2])))
    return alphas


def verblunsky_line(spec: WalkSpec, k):
    """Coefficient alpha_{2k} of the folded walk, for an integer or an integer
    array k in Z."""
    c, d = spec.coin, spec.defect
    k = np.asarray(k)
    ahead = (k > 0).astype(int)  # alpha_{2k} = conj(c21) e^{-i (tau + (k-1) sigma)} for k > 0
    m = ahead - k  # and conj(c21) e^{-i k sigma} for k < 0
    tail = c.c21.conjugate() * _unimodular(
        (-ahead, d.sigma1), (-ahead, d.sigma2), (m, c.sigma1), (m, c.sigma2)
    )
    return np.where(k == 0, d.c21.conjugate(), tail)[()]


def _coin_band(lattice: Lattice, size: int, coin_at) -> np.ndarray:
    """The band of the walk ``up[x+1] = c11 up[x] + c12 dn[x]``,
    ``dn[x-1] = c21 up[x] + c22 dn[x]`` whose coin at the sites x of an array
    is ``coin_at(x) = (c11, c12, c21, c22)``, four arrays, with, on the half
    line, site 0's down output reflected into (0, up).  All rows are written
    at once; outputs past the truncation are dropped, and a kept output
    outside the band raises ValueError."""
    half = lattice is Lattice.HALF_LINE
    w = 2 if half else 4
    band = np.zeros((size, 2 * w + 1), dtype=complex)  # before the temporaries: a lower peak RSS
    rows = np.arange(size)
    site, up = site_of_index(lattice, rows)
    c11, c12, c21, c22 = coin_at(site)
    wall = half & (site == 0)  # rows whose down output is reflected into (0, up)
    for target, value in (
        (index_of(lattice, site + 1, True), np.where(up, c11, c12)),
        (index_of(lattice, site - 1 + wall, wall), np.where(up, c21, c22)),
    ):
        keep = target < size
        off = target[keep] - rows[keep]
        if np.abs(off).max(initial=0) > w:
            raise ValueError("coin action leaves the band")
        band[rows[keep], w + off] = value[keep]
    return band


def _cmv_band(spec: WalkSpec, size: int) -> np.ndarray:
    """Lambda C Lambda^dagger: the CMV matrix C is the band of the walk whose
    coin at site x is the Szego coin [[rho, -alpha], [conj alpha, rho]], with
    alpha = alpha_{2x} and rho = sqrt(1 - |alpha|^2)."""

    def szego(x):  # its arrays are freed before Lambda's temporaries exist
        alpha = verblunsky_line(spec, x)
        # |alpha|**2 as hypot then pow, like scalar abs and **
        rho = np.sqrt(1.0 - np.float_power(np.hypot(alpha.real, alpha.imag), 2.0))
        return rho, -alpha, alpha.conj(), rho

    band = _coin_band(spec.lattice, size, szego)
    lam = build_lambda(spec, size)
    w = (band.shape[1] - 1) // 2
    right = np.pad(lam.conj(), w)  # right[i + w + off] = conj(lam[i + off])
    for o in range(2 * w + 1):
        band[:, o] *= lam * right[o : o + size]
    return band


def build_transition(spec: WalkSpec, size: int, check: bool = True) -> BandedUnitary:
    """Truncated transition matrix of the walk.

    Assembled directly from the one-step coin action; when ``check`` is on
    (the default) the Lambda C Lambda^dagger factorization is built as well,
    by the same band writer with C as the walk with Szego coins, and the two
    are required to agree entry-wise to 1e-12.

    Raises
    ------
    SizeTooSmall
        If ``size`` is odd or below 4.
    """
    if size < 4 or size % 2:
        raise SizeTooSmall("size must be even and >= 4")
    d, c = spec.defect.matrix.ravel(), spec.coin.matrix.ravel()
    band = _coin_band(spec.lattice, size, lambda x: [np.where(x == 0, *dc) for dc in zip(d, c)])
    if check:
        gap = np.abs(_cmv_band(spec, size) - band).max()  # numpy reuses the CMV band's buffer
        if gap > 1e-12:
            raise AssertionError(
                f"coin-action and CMV constructions disagree by {gap:.3e}"
            )
    band.flags.writeable = False
    return BandedUnitary(spec.lattice, band)


def basis_state(lattice: Lattice, site: int, up: bool, dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index_of(lattice, site, up)] = 1.0
    return psi


def qubit_state(lattice: Lattice, site: int, q: Qubit, dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index_of(lattice, site, True)] = q.alpha
    psi[index_of(lattice, site, False)] = q.beta
    return psi


def evolve(u: BandedUnitary, psi0: np.ndarray, steps: int) -> np.ndarray:
    """Apply ``steps`` single evolution steps to a row state.

    Raises
    ------
    TruncationTooSmall
        If the matrix dimension is below ``min_dimension`` for the requested
        step count and the support of ``psi0``.
    ValueError
        If ``steps`` is negative or ``psi0`` does not match the dimension.
    """
    if len(psi0) != u.dim:
        raise ValueError("state length does not match matrix dimension")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    site, _ = site_of_index(u.lattice, np.nonzero(psi0)[0])
    need = min_dimension(steps, int(np.abs(site).max(initial=0)))
    if u.dim < need:
        raise TruncationTooSmall(f"dimension {u.dim} < required {need}")
    psi = psi0.astype(complex, copy=True)
    for _ in range(steps):
        psi = u.step(psi)
    return psi


def _walk(
    spec: WalkSpec,
    starts: list[dict[tuple[int, bool], complex]],
    observe: list[tuple[int, bool]],
    steps: int,
) -> np.ndarray:
    """Amplitudes at the ``observe`` (site, is_up) pairs after 0..steps steps,
    as a ``(steps + 1, len(starts), len(observe))`` array; ``starts`` holds one
    initial state per batch member, mapping (site, is_up) to an amplitude.

    One step, in natural site order with the defect coin at site 0::

        up[x+1] = c11 up[x] + c12 dn[x]        dn[x-1] = c21 up[x] + c22 dn[x]

    with, on the half line, the down output of site 0 reflected into (0, up).
    Step n covers the sites in the forward light cone of the starts that can
    still reach an observed site, widened to the union over its block of
    ``_BLOCK`` steps, whose views are built once.  State and coin are stacked
    as ``s[row, spin, batch]`` (spin 0 up) and ``coin[out, row, in]``, with the
    defect matrix in the row of site 0, so a step is one multiply, one add into
    a strided view of the next buffer (up outputs of row r land in r + 1, down
    outputs in r - 1) and one slice copy of the rows of the observed sites.
    The state is the left operand, as ``psi`` is in ``BandedUnitary.step``:
    numpy's fused multiply-add rounds ``x * c`` and ``c * x`` apart, and only
    this order equals the band bit for bit, up to the sign of an exact zero
    outside the cone.  Its callers refuse the step count and the dimension
    first, with ``_require_walk``.
    """
    half = spec.lattice is Lattice.HALF_LINE
    starts_at = [site for state in starts for site, _ in state]
    seen_at = [site for site, _ in observe]
    if half and min(starts_at + seen_at) < 0:
        raise ValueError("half-line sites are nonnegative")
    first, last = min(starts_at), max(starts_at)
    seen_lo, seen_hi = min(seen_at), max(seen_at)
    floor = 0 if half else -math.inf
    # buffer row r holds site r + base, with a spare row past each cone edge;
    # on the half line a cone that reaches the wall puts site -1 in row 0,
    # which receives the output to be reflected
    base = max(min(first - steps, seen_lo), floor) - 1
    rows = max(last + steps, seen_hi) + 2 - base
    batch = len(starts)
    bufs = np.zeros((2, rows, 2, batch), dtype=complex)
    prod = np.empty((2, rows, 2, batch), dtype=complex)
    coin = np.repeat(spec.coin.matrix[:, None, :, None], rows, axis=1)
    z = -base  # row of site 0
    if 0 <= z < rows:
        coin[:, z, :, 0] = spec.defect.matrix
    for b, state in enumerate(starts):
        for (site, is_up), amp in state.items():
            bufs[0, site - base, 0 if is_up else 1, b] = amp
    row, spin = np.array([(site - base, 0 if is_up else 1) for site, is_up in observe]).T
    top, bottom = row.min(), row.max() + 1
    box = np.empty((steps + 1, bottom - top, 2, batch), dtype=complex)
    box[0] = bufs[0, top:bottom]
    # the window [lo, hi) of every step, then its union over each block
    n = np.arange(steps)
    lows = np.maximum(np.maximum(first - n, seen_lo - steps + n), floor) - base
    highs = np.minimum(last + n, seen_hi + steps - n) + 1 - base
    firsts = range(0, steps, _BLOCK)
    lows = np.minimum.reduceat(lows, firsts).astype(int)
    highs = np.maximum(np.maximum.reduceat(highs, firsts), lows)
    row_stride, spin_stride, _ = bufs.strides[1:]
    strides = (spin_stride - 2 * row_stride, row_stride, bufs.itemsize)
    for n0, lo, hi in zip(firsts, lows.tolist(), highs.tolist()):
        views = []
        for s, s_next in (bufs, bufs[::-1]):
            shifted = as_strided(s_next[lo + 1 :], (2, hi - lo, batch), strides)
            wall = (s_next[z, 0], s_next[z - 1, 1]) if half and lo == z else None
            views.append((s[None, lo:hi], shifted, wall, s_next[top:bottom]))
        c, p, p0, p1 = coin[:, lo:hi], prod[:, lo:hi], prod[:, lo:hi, 0], prod[:, lo:hi, 1]
        for n in range(n0, min(n0 + _BLOCK, steps)):
            x, shifted, wall, seen = views[n & 1]
            np.multiply(x, c, out=p)
            np.add(p0, p1, out=shifted)
            if wall:  # lo >= 1, so z - 1 is a row
                np.copyto(*wall)
            box[n + 1] = seen
    return np.ascontiguousarray(box[:, row - top, spin].transpose(0, 2, 1))


def _require_walk(lattice: Lattice, steps: int, site: int, dimension: int | None):
    """Refuse a walk before any buffer exists: TruncationTooSmall if
    ``dimension`` is below ``min_dimension``, then TooLarge for more than
    ``MAX_STEPS`` steps and ValueError for negative ``steps``.

    The kernel needs no truncation, but a requested one is still validated.
    """
    dim = default_dimension(lattice, steps, site) if dimension is None else dimension
    need = min_dimension(steps, site)
    if dim < need:
        raise TruncationTooSmall(f"dimension {dim} < required {need}")
    if steps > MAX_STEPS:
        raise TooLarge(f"walks are capped at {MAX_STEPS} steps, got {steps}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")


def _qubit_amplitudes(
    spec: WalkSpec, site: int, q: Qubit, steps: int, dimension: int | None = None
) -> np.ndarray:
    """Amplitudes ``(up, dn)`` at ``site`` after 0..steps steps from the qubit
    ``q`` placed there, as a ``(steps + 1, 2)`` array."""
    _require_walk(spec.lattice, steps, site, dimension)
    start = {(site, True): q.alpha, (site, False): q.beta}
    return _walk(spec, [start], list(start), steps)[:, 0]


def amplitude(
    spec: WalkSpec, i: int, j: int, steps: int, dimension: int | None = None
) -> complex:
    """Transition amplitude ``(U^steps)[i, j]`` for basis indices i, j; it is
    exactly 0 when the two sites lie more than ``steps`` apart (the half-line
    wall only makes paths longer), and then no walk is run."""
    if i < 0 or j < 0:
        raise ValueError(f"basis indices are nonnegative, got ({i}, {j})")
    start = site_of_index(spec.lattice, i)
    end = site_of_index(spec.lattice, j)
    _require_walk(spec.lattice, steps, abs(start[0]), dimension)
    if abs(end[0] - start[0]) > steps:
        return 0j
    return complex(_walk(spec, [{start: 1.0}], [end], steps)[-1, 0, 0])


def return_probability(
    spec: WalkSpec,
    site: int,
    q: Qubit,
    steps: int,
    dimension: int | None = None,
) -> float:
    """Probability of finding the walker back at ``site`` after ``steps``."""
    return float(return_probability_series(spec, site, q, steps, dimension)[-1])


def return_probability_series(
    spec: WalkSpec,
    site: int,
    q: Qubit,
    steps: int,
    dimension: int | None = None,
) -> np.ndarray:
    """Array of return probabilities p(0), p(1), ..., p(steps) at ``site``."""
    amps = _qubit_amplitudes(spec, site, q, steps, dimension)
    # |psi|**2 as hypot then pow, like scalar abs and **; numpy's vector abs
    # and square round differently in the last bit
    sq = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
    return sq[:, 0] + sq[:, 1]


def moments_at_origin(
    spec: WalkSpec, steps: int, dimension: int | None = None
) -> np.ndarray:
    """The (0,0) entry (half line) or 2x2 block (line) of U^n, n = 0..steps."""
    _require_walk(spec.lattice, steps, 0, dimension)
    if spec.lattice is Lattice.HALF_LINE:
        return _walk(spec, [{(0, True): 1.0}], [(0, True)], steps)[:, 0, 0]
    # basis states 0 and 1 of the folded line: |0 up> and |-1 dn>
    block = [(0, True), (-1, False)]
    return _walk(spec, [{at: 1.0} for at in block], block, steps)
