"""Shared test utilities: random draws, an independent reference evolver, the
band loop the site-ordered kernel must match bit for bit, and the per-call
quadrature arithmetic the shared-factor rule and weights must match bit for bit."""

import math
from collections import defaultdict
from functools import lru_cache

import numpy as np

from defectwalk.cmv import build_transition
from defectwalk.coins import Lattice, Qubit, WalkSpec, random_coin


def random_qubit(rng) -> Qubit:
    v = rng.normal(size=4)
    return Qubit.normalized(complex(v[0], v[1]), complex(v[2], v[3]))


def random_disk(rng, r_max=0.9, r_min=0.0) -> complex:
    return rng.uniform(r_min, r_max) * np.exp(2j * np.pi * rng.uniform())


def random_spec(rng, lattice: Lattice) -> WalkSpec:
    return WalkSpec(lattice, random_coin(rng), random_coin(rng))


def reference_evolve(spec: WalkSpec, state: dict, steps: int) -> dict:
    """Dict-based evolution applying the one-step coin transitions literally.

    Keys are (site, is_up); no matrices, no reordering: the independent
    oracle for the banded engine.
    """
    for _ in range(steps):
        new = defaultdict(complex)
        for (site, up), amp in state.items():
            coin = spec.defect if site == 0 else spec.coin
            if spec.lattice is Lattice.HALF_LINE and site == 0:
                if up:
                    new[(1, True)] += coin.c11 * amp
                    new[(0, True)] += coin.c21 * amp
                else:
                    new[(1, True)] += coin.c12 * amp
                    new[(0, True)] += coin.c22 * amp
            elif up:
                new[(site + 1, True)] += coin.c11 * amp
                new[(site - 1, False)] += coin.c21 * amp
            else:
                new[(site + 1, True)] += coin.c12 * amp
                new[(site - 1, False)] += coin.c22 * amp
        state = dict(new)
    return state


def band_states(spec: WalkSpec, psi0: np.ndarray, steps: int, dim: int) -> list:
    """psi0, psi0 U, ..., psi0 U^steps by the banded step: the reference
    arithmetic for the site-ordered kernel."""
    u = build_transition(spec, dim, check=False)
    states = [psi0]
    for _ in range(steps):
        states.append(u.step(states[-1]))
    return states


@lru_cache(maxsize=None)
def _legendre(n: int):
    return np.polynomial.legendre.leggauss(n)  # O(n^3): 2000 nodes take seconds


def reference_arc_nodes(lo: float, hi: float, n: int):
    """schur.arc_nodes with every phi factor recomputed on each call, in the
    order of its products: the memoised factors must give the same bits."""
    x, w = _legendre(n)
    phi = 0.5 * math.pi * (x + 1.0)
    half = 0.5 * (hi - lo)
    nodes = np.where(
        phi < 0.5 * math.pi,
        lo + 2.0 * half * np.sin(0.5 * phi) ** 2,
        hi - 2.0 * half * np.cos(0.5 * phi) ** 2,
    )
    return nodes, (0.5 * math.pi * half) * np.sin(phi) * w


def _reference_parts(a: complex, b: complex, theta: np.ndarray):
    """(mask of the support arcs, z, f_a, w, num, den, 1 - |f_a|^2, 1 - |f_{a,b}|^2)
    with sin theta taken anew for each use and f_a by its two-branch formula."""
    ac = ~(np.sin(theta) ** 2 < abs(a) ** 2)
    th = theta[ac]
    s, c = np.sin(th), np.cos(th)
    aa = abs(a) ** 2
    r = np.where(
        s * s <= aa,
        np.sign(c) * np.sqrt(np.maximum(aa - s * s, 0.0)),
        -1j * np.sign(s) * np.sqrt(np.maximum(s * s - aa, 0.0)),
    )
    fa = a * np.exp(-1j * th) / (r - 1j * s)
    w = np.exp(2j * th) * fa
    num, den = w + b, 1.0 + np.conj(b) * w
    s = np.abs(np.sin(th))
    q = np.sqrt(np.maximum(s * s - abs(a) ** 2, 0.0))
    d_a = 2.0 * q / (s + q)
    d_ab = (1.0 - abs(b) ** 2) * d_a / np.abs(den) ** 2
    return ac, np.exp(1j * th), fa, w, num, den, d_a, d_ab


def reference_weight_halfline(a: complex, b: complex, theta: np.ndarray) -> np.ndarray:
    """schur.weight_halfline(..., check_branch=False) on a 1-d theta, from
    :func:`_reference_parts`."""
    ac, z, fa, w, num, den, d_a, d_ab = _reference_parts(a, b, theta)
    out = np.zeros(theta.shape)
    out[ac] = d_ab / np.abs(1.0 - z * num / den) ** 2
    return out


def reference_weight_line(a: complex, b: complex, omega: complex, theta: np.ndarray) -> np.ndarray:
    """schur.weight_line(..., check_branch=False) on a 1-d theta, from
    :func:`_reference_parts`."""
    ac, z, fa, w, num, den, d_a, d_ab = _reference_parts(a, b, theta)
    fab = num / den
    u = z * omega * fa
    v = z * np.conj(omega) * fab
    scale = 1.0 / np.abs(1.0 - w * fab) ** 2
    cell = np.zeros(z.shape + (2, 2), dtype=complex)
    cell[..., 0, 0] = (d_ab + d_a * np.abs(v) ** 2) * scale
    cell[..., 1, 1] = (d_ab * np.abs(u) ** 2 + d_a) * scale
    cell[..., 0, 1] = (d_ab * u + d_a * np.conj(v)) * scale
    cell[..., 1, 0] = np.conj(cell[..., 0, 1])
    out = np.zeros(theta.shape + (2, 2), dtype=complex)
    out[ac] = cell
    return out
