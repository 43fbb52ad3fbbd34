import math

import numpy as np
import pytest
from helpers import reference_arc_nodes, reference_weight_halfline, reference_weight_line
from hypothesis import given, settings
from hypothesis import strategies as st

from defectwalk import schur
from defectwalk.errors import BranchPoint, ParameterOutOfDisk, ZeroA

S2 = math.sqrt(2.0)

disk_nonzero = st.builds(
    lambda r, t: r * np.exp(2j * np.pi * t),
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
)
disk = st.builds(
    lambda r, t: r * np.exp(2j * np.pi * t),
    st.floats(0.0, 0.95),
    st.floats(0.0, 1.0),
)
interior = st.builds(
    lambda r, t: r * np.exp(2j * np.pi * t),
    st.floats(0.0, 0.999),
    st.floats(0.0, 1.0),
)


class TestDiscriminant:
    def test_at_zero(self):
        assert schur.discriminant(0.3 + 0.4j, 0.0) == 1.0

    def test_worked_value(self):
        assert schur.discriminant(1j / S2, 0.5j) == pytest.approx(1.0625)

    def test_vanishes_at_branch_points(self):
        a = 0.3 - 0.6j
        for z in schur.branch_points(a):
            assert abs(schur.discriminant(a, z)) <= 1e-12

    @given(disk_nonzero, interior)
    @settings(max_examples=60, deadline=None)
    def test_sqrt_branch_squares_back(self, a, z):
        s = schur.sqrt_discriminant(a, z)
        assert s.real >= -1e-12  # analytic branch keeps the right half plane
        assert abs(s * s - schur.discriminant(a, z)) <= 1e-12


class TestSchurConstant:
    def test_zero_a_rejected(self):
        with pytest.raises(ZeroA):
            schur.schur_constant(0.0, 0.5)

    def test_value_at_origin(self):
        a = 0.2 - 0.7j
        assert schur.schur_constant(a, 0.0) == pytest.approx(a)

    @given(disk_nonzero, interior)
    @settings(max_examples=100, deadline=None)
    def test_quadratic_residual_and_bound(self, a, z):
        f = schur.schur_constant(a, z)
        residual = abs(np.conj(a) * z * z * f * f + (1 - z * z) * f - a)
        assert residual <= 1e-12
        assert abs(f) <= 1.0 + 1e-12
        if abs(z) < 0.99:
            assert abs(f) < 1.0

    @given(disk_nonzero, interior)
    @settings(max_examples=60, deadline=None)
    def test_even(self, a, z):
        assert schur.schur_constant(a, -z) == schur.schur_constant(a, z)

    def test_boundary_modulus_split(self):
        a = 0.55 * np.exp(0.9j)
        for theta in np.linspace(0.0, 2 * np.pi, 37):
            if abs(abs(math.sin(theta)) - abs(a)) < 1e-3:
                continue
            f = schur.schur_constant_boundary(a, theta)
            if abs(math.sin(theta)) < abs(a):
                assert abs(abs(f) - 1.0) <= 1e-12
            else:
                assert abs(f) < 1.0

    def test_boundary_special_angles(self):
        a = 0.4 + 0.5j
        assert abs(abs(schur.schur_constant_boundary(a, 0.0)) - 1.0) <= 1e-14
        assert abs(schur.schur_constant_boundary(a, math.pi / 2)) < 1.0

    def test_radial_consistency_tight(self, rng):
        # interior values converge to the boundary closed form
        for _ in range(20):
            a = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
            theta = rng.uniform(0, 2 * np.pi)
            fb = schur.schur_constant_boundary(a, theta)
            fi = schur.schur_constant(a, (1 - 1e-10) * np.exp(1j * theta))
            assert abs(fb - fi) <= 1e-8

    def test_radial_consistency_spec_tolerance(self, rng):
        for _ in range(50):
            a = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
            theta = rng.uniform(0, 2 * np.pi)
            fb = schur.schur_constant_boundary(a, theta)
            fi = schur.schur_constant(a, (1 - 1e-6) * np.exp(1j * theta))
            assert abs(fb - fi) <= 1e-4

    @pytest.mark.parametrize("modulus", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_boundary_accurate_for_small_a(self, modulus, rng):
        # the equal form e^{-i theta} (r + i s) / conj(a) cancels off the arcs,
        # by up to 1e-10 at |a| = 1e-3 and 1.0 at |a| = 1e-9; the interior
        # formula, the reference here, cancels in turn near theta = 0 and pi
        a = modulus * np.exp(2j * np.pi * rng.uniform())
        theta = rng.uniform(0.0, 2 * np.pi, 1024)
        theta = theta[np.abs(np.sin(theta)) > 0.1]
        fb = schur.schur_constant_boundary(a, theta)
        fi = schur.schur_constant(a, np.exp(1j * theta))
        assert np.all(np.abs(fb - fi) <= 1e-13 * np.abs(fi))


class TestSchurDefect:
    def test_value_at_origin(self):
        assert schur.schur_defect(0.5j, 0.3 - 0.2j, 0.0) == pytest.approx(0.3 - 0.2j)

    def test_b_equals_a_reduces(self, rng):
        a = 0.45 * np.exp(1.3j)
        for _ in range(20):
            z = rng.uniform(0, 0.99) * np.exp(2j * np.pi * rng.uniform())
            assert schur.schur_defect(a, a, z) == pytest.approx(
                schur.schur_constant(a, z), abs=1e-13
            )

    def test_boundary_modulus_equivalence(self):
        a, b = 0.6j, 0.2 + 0.4j
        for theta in np.linspace(0.1, 2 * np.pi, 23):
            fa = abs(schur.schur_constant_boundary(a, theta))
            fab = abs(schur.schur_defect_boundary(a, b, theta))
            assert (abs(fa - 1.0) <= 1e-12) == (abs(fab - 1.0) <= 1e-12)

    @given(disk_nonzero, disk, interior)
    @settings(max_examples=60, deadline=None)
    def test_bound(self, a, b, z):
        assert abs(schur.schur_defect(a, b, z)) <= 1.0 + 1e-12

    @given(disk_nonzero, disk, interior)
    @settings(max_examples=60, deadline=None)
    def test_even(self, a, b, z):
        assert schur.schur_defect(a, b, -z) == schur.schur_defect(a, b, z)


class TestSchurAlgorithm:
    def test_zero_parameter_divides(self):
        f = lambda z: schur.schur_constant(0.4j, z)
        stepped = schur.schur_step(f, 0.0)
        for z in (0.3, 0.2 - 0.5j):
            assert stepped(z) == pytest.approx(f(z) / z)

    def test_roundtrip_identity(self, rng):
        a, b = 0.5 * np.exp(0.4j), 0.3 - 0.1j
        f = lambda z: schur.schur_defect(a, b, z)
        alpha = 0.37 - 0.21j
        back = schur.schur_inverse_step(schur.schur_step(f, alpha), alpha)
        for _ in range(10):
            z = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
            assert abs(back(z) - f(z)) <= 1e-12

    def test_second_iterate_recovers_constant_function(self, rng):
        a, b = 0.55j, 0.25 + 0.3j
        f = lambda z: schur.schur_defect(a, b, z)
        second = schur.schur_step(schur.schur_step(f, b), 0.0)
        for _ in range(10):
            z = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
            assert abs(second(z) - schur.schur_constant(a, z)) <= 1e-12

    def test_zero_function_fixed_by_zero_parameters(self):
        f = lambda z: 0.0 + 0.0j
        g = schur.schur_inverse_step(f, 0.0)
        assert g(0.7) == 0.0

    def test_parameter_out_of_disk(self):
        with pytest.raises(ParameterOutOfDisk):
            schur.schur_step(lambda z: 0.0, 1.0)


class TestRootFunctions:
    @given(disk_nonzero, disk, interior)
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, a, b, z):
        assert abs(schur.g_line(a, b, z)) <= 1.0 + 1e-12
        assert abs(schur.h_halfline(a, b, z)) <= 1.0 + 1e-12

    @given(disk_nonzero, disk, interior)
    @settings(max_examples=60, deadline=None)
    def test_g_even(self, a, b, z):
        assert schur.g_line(a, b, -z) == schur.g_line(a, b, z)

    def test_zeta_form_matches(self, rng):
        a, b = 0.5 + 0.3j, 0.2j
        for theta in rng.uniform(0, 2 * np.pi, size=10):
            if abs(abs(math.sin(theta)) - abs(a)) < 1e-3:
                continue
            zeta = schur.arc_map_boundary(a, theta)
            direct = schur.g_line_boundary(a, b, theta)
            assert abs(schur.g_from_zeta(b, zeta) - direct) <= 1e-10


class TestWeights:
    def test_zero_inside_singular_arcs(self):
        a, b = 1j / S2, 0.2
        assert schur.weight_halfline(a, b, 0.1) == 0.0
        assert np.abs(schur.weight_line(a, b, 1.0, 0.1)).max() == 0.0

    def test_branch_point_guard(self):
        a = 0.6
        theta = math.asin(0.6)
        with pytest.raises(BranchPoint):
            schur.weight_halfline(a, 0.1, theta)
        with pytest.raises(BranchPoint):
            schur.weight_line(a, 0.1, 1.0, theta)

    def test_one_call_matches_per_theta_calls(self, rng):
        # the CLI's weight grid is one unchecked call plus the branch mask;
        # the per-theta loop it replaced is the reference, bit for bit
        for k in range(9):
            n = int(rng.integers(8, 160))
            thetas = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
            a = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
            if k % 3 == 0:  # put one grid theta exactly on a branch point
                a = abs(math.sin(thetas[int(rng.integers(n))])) * a / abs(a)
            b, omega = 0.9 * a.conjugate(), np.exp(2j * np.pi * rng.uniform())
            mask = schur._branch_mask(a, thetas)
            half = schur.weight_halfline(a, b, thetas, check_branch=False)
            full = schur.weight_line(a, b, omega, thetas, check_branch=False)
            assert mask.any() == (k % 3 == 0)
            for t, branch, h, w in zip(thetas, mask, half, full):
                if branch:
                    with pytest.raises(BranchPoint):
                        schur.weight_halfline(a, b, float(t))
                    with pytest.raises(BranchPoint):
                        schur.weight_line(a, b, omega, float(t))
                else:
                    assert h == schur.weight_halfline(a, b, float(t))
                    assert np.array_equal(w, schur.weight_line(a, b, omega, float(t)))

    def test_shared_factors_match_per_use_arithmetic(self, rng):
        # sin theta and q are computed once per call; the weights must keep the
        # bits of the arithmetic that took them anew for every use.  The grids
        # cross the singular arcs, crowd the support arcs' ends within a few
        # ulps, and (with a real a = sin theta_0) hold nodes where
        # sin^2 theta = |a|^2 exactly, the only support nodes where f_a takes
        # its singular-arc root.
        for k in range(12):
            a = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
            if k % 3 == 0:
                a = complex(math.sin(rng.uniform(0.05, 1.5)))
            b = rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())
            omega = np.exp(2j * np.pi * rng.uniform())
            ends = np.ravel(schur.support_arcs(a))
            near = ends[:, None] + np.arange(-6, 7) * np.spacing(ends)[:, None]
            thetas = np.concatenate([rng.uniform(-7.0, 7.0, 200), near.ravel(), [math.asin(abs(a))]])
            if k % 3 == 0:
                assert np.any(np.sin(thetas) ** 2 == abs(a) ** 2)
            half = schur.weight_halfline(a, b, thetas, check_branch=False)
            line = schur.weight_line(a, b, omega, thetas, check_branch=False)
            assert np.array_equal(half, reference_weight_halfline(a, b, thetas))
            assert np.array_equal(line, reference_weight_line(a, b, omega, thetas))
            assert (half == 0.0).any() and (half > 0.0).any()

    def test_positive_semidefinite(self, rng):
        for _ in range(20):
            a = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
            b = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            omega = np.exp(2j * np.pi * rng.uniform())
            theta = rng.uniform(0, 2 * np.pi)
            if abs(abs(math.sin(theta)) - abs(a)) < 1e-6:
                continue
            assert schur.weight_halfline(a, b, theta) >= 0.0
            w = schur.weight_line(a, b, omega, theta)
            assert np.linalg.eigvalsh(w).min() >= -1e-10
            assert np.abs(w - w.conj().T).max() <= 1e-14

    def test_halfline_normalization_with_atom(self):
        from defectwalk.halfline import mass_points

        a = b = 0.5 + 0.5j
        total = sum(pt.mu for pt in mass_points(a, b))
        for lo, hi in schur.support_arcs(a):
            th, w = schur.arc_nodes(lo, hi, 2000)
            vals = schur.weight_halfline(a, b, th, check_branch=False)
            total += float(np.sum(w * vals)) / (2 * math.pi)
        assert abs(total - 1.0) <= 1e-6

    def test_line_trace_normalization_with_atoms(self):
        from defectwalk.line import classify

        a, b, omega = 1j / S2, -1j / S2, np.exp(0.3j)
        total = sum(2.0 * pt.m for pt in classify(a, b, omega).points)
        for lo, hi in schur.support_arcs(a):
            th, w = schur.arc_nodes(lo, hi, 2000)
            vals = schur.weight_line(a, b, omega, th, check_branch=False)
            total += float(np.sum(w * (vals[:, 0, 0].real + vals[:, 1, 1].real))) / (
                2 * math.pi
            )
        assert abs(total - 2.0) <= 1e-6

    def test_boundary_root_normalization(self):
        # Hadamard half line: h = 1 solutions only at the arc boundary, which
        # carry no mass; the weight alone integrates to 1.
        a = 1j / S2
        total = 0.0
        for lo, hi in schur.support_arcs(a):
            th, w = schur.arc_nodes(lo, hi, 2000)
            total += float(np.sum(w * schur.weight_halfline(a, a, th, check_branch=False)))
        assert abs(total / (2 * math.pi) - 1.0) <= 1e-6


@pytest.mark.parametrize("length", [0.5, 2.0, math.pi])
def test_arc_nodes_integrate_endpoint_singularities(length):
    # After the cosine substitution both endpoint behaviours are analytic,
    # so the default rule is exact to rounding.  The singular endpoint sits
    # at 0, where theta itself is the node's offset from it.
    exact = math.pi / 2 * length
    th, w = schur.arc_nodes(0.0, length)
    assert 0.0 < th.min() and th.max() < length
    assert abs(np.sum(w * th**-0.5 * (length - th) ** 0.5) - exact) <= 1e-13
    th, w = schur.arc_nodes(-length, 0.0)
    assert abs(np.sum(w * (th + length) ** 0.5 * (-th) ** -0.5) - exact) <= 1e-13
    assert abs(np.sum(w) - length) <= 1e-13


@pytest.mark.parametrize("n", [1, 4, 128, 256, 512, 2000])
def test_arc_nodes_match_per_call_rule(n, rng):
    # the phi factors are memoised per n; each arc's nodes and weights must
    # keep the bits of the rule recomputed in full for every arc
    arcs = [(0.0, 1.0), (-math.pi, 0.25)]
    for _ in range(4):
        arcs += schur.support_arcs(rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform()))
    for lo, hi in arcs:
        nodes, weights = schur.arc_nodes(lo, hi, n)
        ref_nodes, ref_weights = reference_arc_nodes(lo, hi, n)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_support_arcs_cover_complement():
    a = 0.5 * np.exp(0.7j)
    (l1, h1), (l2, h2) = schur.support_arcs(a)
    assert 0 < l1 < h1 < l2 < h2 < 2 * math.pi
    total = (h1 - l1) + (h2 - l2)
    assert total == pytest.approx(2 * math.pi - 4 * math.asin(abs(a)))
