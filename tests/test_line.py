import math

import numpy as np
import pytest
from helpers import random_disk, random_qubit

from defectwalk import line
from defectwalk.cmv import min_dimension, return_probability_series
from defectwalk.coins import Qubit, hat_qubit, spec_for_line_params
from defectwalk.errors import BoundaryZeta, ParameterOutOfDisk
from defectwalk.schur import g_line

S2 = math.sqrt(2.0)
A_HAD = 1j / S2
B_KONNO_PI = -1j / S2


class TestZetaPm:
    def test_b_zero(self):
        assert line.zeta_pm(0.0 + 0j) == (1.0, -1.0)

    def test_worked_value(self):
        zp, zm = line.zeta_pm(B_KONNO_PI)
        assert zp == pytest.approx(1 / S2 - 1j / S2)
        assert zm == pytest.approx(-1 / S2 - 1j / S2)

    def test_unimodular_with_matching_height(self, rng):
        for _ in range(50):
            b = random_disk(rng, 0.97)
            for z in line.zeta_pm(b):
                assert abs(abs(z) - 1.0) <= 1e-14
                assert abs(z.imag - b.imag) <= 1e-14


class TestConditionM:
    def test_hadamard_both_fail(self):
        assert not line.condition_m(A_HAD, A_HAD, +1)
        assert not line.condition_m(A_HAD, A_HAD, -1)

    def test_konno_pi_both_hold(self):
        assert line.condition_m(A_HAD, B_KONNO_PI, +1)
        assert line.condition_m(A_HAD, B_KONNO_PI, -1)

    def test_b_zero_arithmetic(self):
        # |i/sqrt2 -+ 1/2| = sqrt(3)/2 > 1/2 on both sides
        assert line.condition_m(A_HAD, 0.0 + 0j, +1)
        assert line.condition_m(A_HAD, 0.0 + 0j, -1)

    def test_boundary_tie_is_false(self):
        # zeta_+(0) = 1; choose a exactly on the circle |a - 1/2| = 1/2
        a = 0.5 + 0.5 * np.exp(1.1j)
        assert not line.condition_m(a, 0.0 + 0j, +1)


class TestClassify:
    def test_hadamard_m0(self):
        cls = line.classify(A_HAD, A_HAD)
        assert cls.label == "M0" and cls.points == ()

    def test_arc_ties_decided_once(self, rng):
        # a and zeta_s(b) placed on the 1e-12 tie of the arc test, to within
        # a few ulps: classify must not raise, and the batched count must
        # decide each point as classify does
        a_s, b_s = [], []
        while len(a_s) < 2000:
            b = complex(random_disk(rng, 0.95))
            zeta = line.zeta_pm(b)[rng.integers(2)]
            a = zeta / 2 + (0.5 + 1e-12 + rng.uniform(-3e-16, 3e-16)) * np.exp(2j * np.pi * rng.uniform())
            if abs(a) < 1:
                a_s.append(complex(a))
                b_s.append(b)
        counts = [line.classify(a, b).n_mass_points for a, b in zip(a_s, b_s)]
        assert np.array_equal(line.mass_point_count(np.array(a_s), np.array(b_s)), counts)

    def test_batched_count_matches_classify(self, rng):
        a = np.array([random_disk(rng, 0.99) for _ in range(400)] + [0j])
        b = np.array([random_disk(rng, 0.99) for _ in range(401)])
        counts = line.mass_point_count(a, b)
        assert counts.tolist() == [line.classify(complex(x), complex(y)).n_mass_points for x, y in zip(a, b)]
        assert counts[-1] == 0
        assert type(line.mass_point_count(A_HAD, B_KONNO_PI)) is int
        assert line.mass_point_count(A_HAD, B_KONNO_PI) == 4

    def test_zero_a_short_circuit(self):
        assert line.classify(0.0, 0.3 + 0.1j).label == "M0"

    def test_konno_m4_locations(self):
        cls = line.classify(A_HAD, B_KONNO_PI)
        assert cls.label == "M4" and cls.n_mass_points == 4
        zs = sorted((pt.z0 for pt in cls.points), key=lambda z: (round(z.real, 9), z.imag))
        zp = (3 + 1j) / math.sqrt(10)
        expected = sorted([zp, -zp, zp.conjugate(), -zp.conjugate()],
                          key=lambda z: (round(z.real, 9), z.imag))
        for got, want in zip(zs, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_points_closed_under_reflection(self, rng):
        for _ in range(30):
            a = random_disk(rng, 0.9, 0.05)
            b = random_disk(rng, 0.9)
            cls = line.classify(a, b)
            zs = {round(pt.z0.real, 10) + 1j * round(pt.z0.imag, 10) for pt in cls.points}
            assert zs == {-z for z in zs}
            assert cls.n_mass_points == {"M0": 0, "M2plus": 2, "M2minus": 2, "M4": 4}[cls.label]

    def test_imaginary_a_band_has_no_localization(self):
        a = 0.7j
        for im_b in (0.7, 0.8, 0.95):
            for re_b in (-0.2, 0.0, 0.1):
                b = re_b + 1j * im_b
                if abs(b) >= 1:
                    continue
                assert line.classify(a, b).label == "M0"

    def test_root_residuals_and_arc_membership(self, rng):
        for _ in range(30):
            a = random_disk(rng, 0.9, 0.05)
            b = random_disk(rng, 0.9)
            for pt in line.classify(a, b).points:
                assert line.residual(a, b, pt) <= 1e-10
                assert abs(pt.z0.imag) < abs(a) - 1e-9
                assert abs(g_line(a, b, (1 - 1e-7) * pt.z0) - 1.0) <= 1e-3

    def test_omega_independence(self, rng):
        a, b = 0.3 + 0.5j, 0.2 - 0.4j
        base = line.classify(a, b)
        for omega in np.exp(2j * np.pi * rng.uniform(size=20)):
            cls = line.classify(a, b, omega)
            assert cls.label == base.label
            for p1, p2 in zip(cls.points, base.points):
                assert p1.z0 == p2.z0 and p1.m == p2.m

    def test_re_b_independence(self, rng):
        a = 0.25 + 0.45j
        for im_b in (-0.5, 0.0, 0.4, 0.8):
            labels = set()
            zs = set()
            for re_b in np.linspace(-0.55, 0.55, 20):
                b = complex(re_b, im_b)
                if abs(b) >= 0.999:
                    continue
                cls = line.classify(a, b)
                labels.add(cls.label)
                zs.update(round(pt.z0.real, 12) for pt in cls.points)
            assert len(labels) == 1


class TestMasses:
    def test_konno_mass_is_one_fifth(self):
        zeta_plus = line.zeta_pm(B_KONNO_PI)[0]
        pt = line.mass_point_at(A_HAD, B_KONNO_PI, 1.0, zeta_plus)
        assert pt.m == pytest.approx(0.2, abs=1e-14)

    def test_reflection_symmetry(self):
        pt = line.mass_point_at(0.5j, 0.2, 1.0, line.zeta_pm(0.2 + 0j)[0])
        ref = pt.reflected()
        assert ref.m == pt.m and ref.eta == -pt.eta and ref.z0 == -pt.z0

    def test_mass_matrix_singular_psd(self, rng):
        for _ in range(20):
            a = random_disk(rng, 0.9, 0.05)
            b = random_disk(rng, 0.9)
            for pt in line.classify(a, b).points:
                mat = pt.matrix()
                eig = np.linalg.eigvalsh(mat)
                assert eig.min() >= -1e-15
                assert abs(np.linalg.det(mat)) <= 1e-15
                assert 0.0 < pt.m < 0.5

    def test_total_trace_below_two(self, rng):
        for _ in range(20):
            a = random_disk(rng, 0.9, 0.05)
            b = random_disk(rng, 0.9)
            total = sum(2 * pt.m for pt in line.classify(a, b).points)
            assert total < 2.0

    def test_boundary_zeta_guard(self):
        a = 0.5 + 0.5j
        # zeta_a^- = 1 sits exactly on the boundary of Sigma_a
        with pytest.raises(BoundaryZeta):
            line.mass_point_at(a, 0.3, 1.0, 1.0 + 0j)


class TestReturnProbability:
    def test_konno_state_independent(self, rng):
        for _ in range(5):
            q = random_qubit(rng)
            assert line.return_probability_limit(A_HAD, B_KONNO_PI, 1.0, q) == pytest.approx(
                0.64, abs=1e-12
            )

    @pytest.mark.parametrize("phi", [0.4, 1.0, 2.2, 3.0])
    def test_konno_general_phi(self, rng, phi):
        b = 1j * np.exp(1j * phi) / S2
        expected = (2 * (1 - math.cos(phi)) / (3 - 2 * math.cos(phi))) ** 2
        q = random_qubit(rng)
        assert line.return_probability_limit(A_HAD, b, 1.0, q) == pytest.approx(
            expected, abs=1e-12
        )

    def test_m0_gives_zero(self, rng):
        assert line.return_probability_limit(A_HAD, A_HAD, 1.0, random_qubit(rng)) == 0.0

    def test_pair_form_matches_quadratic_form(self, rng):
        for _ in range(100):
            a = random_disk(rng, 0.95, 0.05)
            b = random_disk(rng, 0.95)
            omega = np.exp(2j * np.pi * rng.uniform())
            q = random_qubit(rng)
            total = 0.0
            for sign in (+1, -1):
                if line.condition_m(a, b, sign):
                    total += line.return_probability_pm(a, b, omega, q, sign)
            assert line.return_probability_limit(a, b, omega, q) == pytest.approx(
                total, abs=1e-12
            )

    def test_imaginary_a_closed_form(self, rng):
        a = 0.7j
        for _ in range(10):
            b = random_disk(rng, 0.9)
            if b.imag >= a.imag:
                continue
            expected = line.imaginary_a_limit(a, b)
            for _ in range(5):
                q = random_qubit(rng)
                assert line.return_probability_limit(a, b, 1.0, q) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_nonlocalized_qubit_annihilates(self, rng):
        for _ in range(40):
            a = random_disk(rng, 0.9, 0.05)
            b = random_disk(rng, 0.9)
            omega = np.exp(2j * np.pi * rng.uniform())
            cls = line.classify(a, b, omega)
            if cls.label == "M4":
                assert line.nonlocalized_qubit(a, b, omega, cls.label) is None
            elif cls.label.startswith("M2"):
                q = line.nonlocalized_qubit(a, b, omega, cls.label)
                assert line.return_probability_limit(a, b, omega, q) <= 1e-12

    def test_nonlocalized_qubit_real_b_form(self):
        a, b, omega = -0.4 + 0.2j, 0.35 + 0j, np.exp(0.4j)
        cls = line.classify(a, b, omega)
        assert cls.label == "M2plus"
        q = line.nonlocalized_qubit(a, b, omega, cls.label)
        rho_b = math.sqrt(1 - abs(b) ** 2)
        expected_ratio = omega * rho_b / (b.real + 1.0)
        assert q.beta / q.alpha == pytest.approx(expected_ratio, abs=1e-12)


class TestMaxReturnScan:
    """The largest asymptotic return over qubits: the top eigenvalue of the
    return form, against the value at the balanced qubit beta = i omega alpha."""

    BALANCED = Qubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))  # omega = 1

    def test_m0_rows_zero(self):
        for a, b in ((0.05j, 0.1j), (0j, 0.1j)):  # a = 0: the diagonal constant coin
            assert line.classify(a, b).label == "M0"
            assert np.array_equal(line.return_form(a, b), np.zeros((2, 2)))
            assert line.return_probability_limit(a, b, 1.0, self.BALANCED) == 0.0

    def test_sup_tends_to_one_anti_diagonal_limit(self):
        a, b = 0.999 * np.exp(0.5j), 0.2 + 0.1j
        assert line.classify(a, b).label == "M4"
        sup = float(np.linalg.eigvalsh(line.return_form(a, b))[-1])
        assert sup > 0.99
        assert line.return_probability_limit(a, b, 1.0, self.BALANCED) <= sup + 1e-15

    def test_imaginary_a_all_qubits_return(self, rng):
        # balanced lower bound coincides with the sup: the form is scalar
        a, b = 0.9999j, 0.1 - 0.2j
        assert line.classify(a, b).label == "M4"
        sup = float(np.linalg.eigvalsh(line.return_form(a, b))[-1])
        lower = line.return_probability_limit(a, b, 1.0, self.BALANCED)
        assert sup > 0.99 and abs(lower - sup) <= 1e-9

    def test_sup_is_attained(self, rng):
        a, b, omega = 0.4 + 0.45j, 0.1 - 0.2j, np.exp(1.7j)
        form = line.return_form(a, b, omega)
        sup = float(np.linalg.eigvalsh(form)[-1])
        best = 0.0
        for _ in range(400):
            best = max(best, line.return_probability_limit(a, b, omega, random_qubit(rng)))
        assert best <= sup + 1e-12
        assert best >= 0.9 * sup


class TestOutOfDisk:
    @pytest.mark.parametrize(
        "a, b",
        [(1.2, 0.1), (0.5, 1.5), (0.5, complex(math.nan, 0.0)), (complex(0.0, math.inf), 0.1), (1.0, 0.0)],
    )
    def test_refused(self, a, b):
        # out of the disk classify found four atoms with masses up to 2.7
        with pytest.raises(ParameterOutOfDisk):
            line.classify(a, b)
        with pytest.raises(ParameterOutOfDisk):
            line.mass_point_count(np.array([0.3, a]), b)


class TestBoundaryExclusion:
    def test_sqrt_scaling(self):
        # zeta_+(b) = 1 = zeta_a^- for real b and a = (1+i)/2
        a, b = 0.5 + 0.5j, 0.3 + 0j
        assert not line.condition_m(a, b, +1)
        za = math.sqrt(1 - abs(a) ** 2) + 1j * abs(a)
        # root residual at a branch point is sqrt(eps)-limited: g - 1 ~ K sqrt(z - za)
        assert abs(g_line(a, b, za) - 1.0) <= 1e-7
        qs = []
        for eps in (1e-4, 1e-6, 1e-8):
            qs.append(eps / abs(1.0 - g_line(a, b, (1 - eps) * za)))
        assert 0.05 <= qs[1] / qs[0] <= 0.2
        assert 0.05 <= qs[2] / qs[1] <= 0.2
        assert qs[2] <= 1e-3


class TestSimulationAgreement:
    def test_time_average_matches_limit(self, rng):
        for _ in range(6):
            a = random_disk(rng, 0.85, 0.15)
            b = random_disk(rng, 0.85)
            omega = np.exp(2j * np.pi * rng.uniform())
            spec = spec_for_line_params(a, b, omega)
            q = random_qubit(rng)
            analytic = line.return_probability_limit(a, b, omega, hat_qubit(q, 0, spec))
            series = return_probability_series(spec, 0, q, 800, dimension=min_dimension(800))
            sim = float(np.mean(series[600:801:2]))
            assert abs(analytic - sim) <= 0.02
