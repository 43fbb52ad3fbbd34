"""Shared test utilities: random draws, an independent reference evolver and
the band loop the site-ordered kernel must match bit for bit."""

from collections import defaultdict

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
