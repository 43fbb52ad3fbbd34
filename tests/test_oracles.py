import math

import numpy as np
import pytest
from helpers import (
    random_disk,
    random_qubit,
    random_spec,
    reference_arc_nodes,
    reference_weight_halfline,
    reference_weight_line,
)

from defectwalk import halfline, line
from defectwalk.cmv import moments_at_origin, return_probability_series
from defectwalk.coins import (
    Lattice,
    Qubit,
    WalkSpec,
    hadamard,
    konno_defect,
    spec_for_halfline_params,
)
from defectwalk.errors import QuadratureNotConverged, TooLarge
from defectwalk.oracles import (
    brute_force_return,
    moment_by_quadrature,
    simulated_moments,
    walk_moment_prediction,
    wiener_average,
    wiener_prediction,
)
from defectwalk.schur import support_arcs


class TestWienerAverage:
    def test_point_mass_at_one(self):
        moments = np.ones(501)
        assert wiener_average(moments, 500) == pytest.approx(1.0)

    def test_lebesgue_tends_to_zero(self):
        moments = np.zeros(501, dtype=complex)
        moments[0] = 1.0
        assert wiener_average(moments, 500) <= 1e-3

    def test_requires_enough_terms(self):
        with pytest.raises(ValueError):
            wiener_average(np.ones(10), 20)

    def test_konno_matches_atom_weights(self):
        spec = WalkSpec(Lattice.LINE, hadamard(), konno_defect(math.pi))
        q = Qubit.normalized(1.0, 1j)
        sim = wiener_average(simulated_moments(spec, 0, q, 400), 400)
        assert abs(sim - wiener_prediction(spec, q)) <= 0.01

    def test_hadamard_no_atoms(self):
        spec = WalkSpec(Lattice.LINE, hadamard(), hadamard())
        q = Qubit.normalized(1.0, -1.0)
        assert wiener_prediction(spec, q) == 0.0
        assert wiener_average(simulated_moments(spec, 0, q, 400), 400) <= 0.01

    def test_halfline_random_realization(self, rng):
        a, b = 0.55 * np.exp(1.9j), 0.4 * np.exp(-0.4j)
        spec = spec_for_halfline_params(a, b)
        q = random_qubit(rng)
        sim = wiener_average(simulated_moments(spec, 0, q, 400), 400)
        assert abs(sim - wiener_prediction(spec, q)) <= 0.02

    def test_moment_sequences_bounded_by_one(self, rng):
        for lattice in Lattice:
            spec = random_spec(rng, lattice)
            moments = simulated_moments(spec, 0, random_qubit(rng), 60)
            assert np.abs(moments).max() <= 1.0 + 1e-12


def _reference_integrals(a, b, omega, n, lattice, counts):
    """The arc integrals with one support_arcs call per count, the per-call
    rule and weights of ``helpers``, and np.tensordot."""
    rules = [reference_arc_nodes(lo, hi, m) for m in counts for lo, hi in support_arcs(a)]
    th = np.concatenate([r[0] for r in rules])
    phase = np.concatenate([r[1] for r in rules]) * np.exp(1j * n * th) / (2.0 * math.pi)
    if lattice is Lattice.HALF_LINE:
        vals = reference_weight_halfline(a, b, th)
    else:
        vals = reference_weight_line(a, b, omega, th)
    ends = np.cumsum([0] + [2 * m for m in counts])
    return [np.tensordot(phase[i:j], vals[i:j], axes=(0, 0)) for i, j in zip(ends[:-1], ends[1:])]


def _reference_moment(a, b, omega, n, lattice):
    """moment_by_quadrature on the reference integrals, same gap rule and atoms."""
    flip, n = n < 0, abs(n)
    fine, coarse = _reference_integrals(a, b, omega, n, lattice, (256, 128))
    if np.abs(fine - coarse).max() > 1e-6:
        (fine,) = _reference_integrals(a, b, omega, n, lattice, (512,))
    if lattice is Lattice.HALF_LINE:
        result = complex(fine) + sum(pt.z0**n * pt.mu for pt in halfline.mass_points(a, b))
        return result.conjugate() if flip else result
    result = fine + sum(pt.z0**n * pt.matrix() for pt in line.classify(a, b, omega).points)
    return result.conj().T if flip else result


class TestMomentByQuadrature:
    def test_normalization(self):
        scalar = moment_by_quadrature(0.4 + 0.2j, 0.1j, 1.0, 0, Lattice.HALF_LINE)
        assert abs(scalar - 1.0) <= 1e-6
        matrix = moment_by_quadrature(0.4 + 0.2j, 0.1j, np.exp(0.3j), 0, Lattice.LINE)
        assert np.abs(matrix - np.eye(2)).max() <= 1e-6

    def test_odd_moments_have_zero_diagonal_on_line(self):
        for n in (1, 3, 7):
            m = moment_by_quadrature(0.4 + 0.2j, 0.1 - 0.3j, np.exp(0.7j), n, Lattice.LINE)
            assert abs(m[0, 0]) <= 1e-8 and abs(m[1, 1]) <= 1e-8

    def test_hermiticity(self):
        m = moment_by_quadrature(0.5j, 0.2 + 0.1j, np.exp(1.1j), 6, Lattice.LINE)
        m_neg = moment_by_quadrature(0.5j, 0.2 + 0.1j, np.exp(1.1j), -6, Lattice.LINE)
        assert np.abs(m_neg - m.conj().T).max() <= 1e-10

    def test_matches_transition_powers_konno(self):
        spec = WalkSpec(Lattice.LINE, hadamard(), konno_defect(math.pi))
        sim = moments_at_origin(spec, 20)
        for n in (0, 1, 2, 7, 10, 20):
            pred = walk_moment_prediction(spec, n)
            assert np.abs(np.asarray(pred) - sim[n]).max() <= 1e-6

    def test_matches_transition_powers_halfline(self):
        spec = spec_for_halfline_params(0.5 + 0.5j, 0.5 + 0.5j)
        sim = moments_at_origin(spec, 20)
        for n in (0, 1, 5, 10, 20):
            assert abs(walk_moment_prediction(spec, n) - sim[n]) <= 1e-6

    def test_rotation_factor_matters(self):
        # Hadamard constant coin has vartheta = pi/2; dropping the rotation
        # must break the match at odd powers of it
        spec = WalkSpec(Lattice.HALF_LINE, hadamard(), hadamard())
        sim = moments_at_origin(spec, 3)
        raw = moment_by_quadrature(1j / math.sqrt(2), 1j / math.sqrt(2), 1.0, 2, Lattice.HALF_LINE)
        assert abs(walk_moment_prediction(spec, 2) - sim[2]) <= 1e-6
        assert abs(raw - sim[2]) > 1e-3

    @pytest.mark.parametrize("lattice", list(Lattice))
    def test_matches_per_call_arithmetic(self, lattice, rng):
        # one support_arcs call, memoised rule factors, shared sin theta and
        # np.dot for np.tensordot: the moments must keep the per-call bits
        for k in range(6):
            a, b = random_disk(rng, r_min=0.1), random_disk(rng)
            omega = np.exp(2j * np.pi * rng.uniform())
            if k == 0:  # resonant: the doubled rule decides
                a, b = -0.607939099758121 + 0.5748288093358456j, 0.2170820501987142 - 0.8597173006928841j
            for n in (-3, 0, 1, 20):
                ref = _reference_moment(a, b, omega, n, lattice)
                assert np.array_equal(moment_by_quadrature(a, b, omega, n, lattice), ref)

    def test_nonconvergence_detected_with_few_nodes(self):
        # boundary-root weight (inverse-square-root endpoints) on 4 nodes per
        # arc against 2, then after the doubling 8 against 4: the node counts
        # still disagree measurably
        a = 1j / math.sqrt(2)
        with pytest.raises(QuadratureNotConverged):
            moment_by_quadrature(a, a, 1.0, 0, Lattice.HALF_LINE, nodes=4)

    def test_resonance_near_arc_resolved_by_doubling(self):
        # the weight's continuation has a pole 0.03 off the circle inside a
        # support arc: 128 nodes per arc miss the 256-node integral by 7e-5 at
        # n = 20, and 512 nodes confirm it
        a, b = -0.607939099758121 + 0.5748288093358456j, 0.2170820501987142 - 0.8597173006928841j
        spec = spec_for_halfline_params(a, b)
        sim = moments_at_origin(spec, 20)
        for n in range(21):
            assert abs(walk_moment_prediction(spec, n) - sim[n]) <= 1e-9

    @pytest.mark.parametrize("lattice", list(Lattice))
    def test_hadamard_boundary_root_weight_matches_simulation(self, lattice):
        # the Hadamard weight has inverse-square-root endpoints on both lattices
        spec = WalkSpec(lattice, hadamard(), hadamard())
        sim = moments_at_origin(spec, 20)
        for n in range(21):
            assert np.abs(np.asarray(walk_moment_prediction(spec, n)) - sim[n]).max() <= 1e-9


class TestBruteForce:
    def test_zero_steps(self, rng):
        spec = random_spec(rng, Lattice.LINE)
        assert brute_force_return(spec, 0, random_qubit(rng), 0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_odd_step_on_line_is_zero(self, rng):
        spec = random_spec(rng, Lattice.LINE)
        assert brute_force_return(spec, 0, random_qubit(rng), 9) <= 1e-12

    def test_matches_banded_on_random_specs(self, rng):
        for _ in range(10):
            lattice = Lattice.LINE if rng.uniform() < 0.5 else Lattice.HALF_LINE
            spec = random_spec(rng, lattice)
            q = random_qubit(rng)
            site = int(rng.integers(0, 3))
            banded = return_probability_series(spec, site, q, 20)[-1]
            assert abs(brute_force_return(spec, site, q, 20) - banded) <= 1e-10

    def test_cost_guard(self, rng):
        spec = random_spec(rng, Lattice.LINE)
        with pytest.raises(TooLarge):
            brute_force_return(spec, 0, random_qubit(rng), 65)

    def test_negative_steps_refused(self, rng):
        spec = random_spec(rng, Lattice.LINE)
        with pytest.raises(ValueError, match="steps must be >= 0"):
            brute_force_return(spec, 0, random_qubit(rng), -2)
