import cmath
import math

import numpy as np
import pytest
from helpers import random_disk, random_qubit

from defectwalk.coins import (
    DefectParams,
    Lattice,
    Qubit,
    WalkSpec,
    coin_from_reflection,
    defect_params,
    hadamard,
    hat_qubit,
    identity_coin,
    konno_defect,
    random_coin,
    spec_for_halfline_params,
    spec_for_line_params,
    validate_coin,
)
from defectwalk.errors import DiagonalCoin, NotUnitary, ReducibleCoin

S2 = math.sqrt(2.0)


class TestValidateCoin:
    def test_identity_phases(self):
        c = validate_coin(np.eye(2))
        assert c.sigma1 == 0.0 and c.sigma2 == 0.0

    def test_hadamard_phases(self):
        h = hadamard()
        assert h.sigma1 == 0.0
        assert h.sigma2 == pytest.approx(math.pi)

    def test_not_unitary_fires_before_reducible(self):
        with pytest.raises(NotUnitary):
            validate_coin([[1, 0], [0, 0]])

    def test_reducible(self):
        with pytest.raises(ReducibleCoin):
            validate_coin([[0, 1], [1, 0]])

    def test_small_perturbation_rejected(self):
        m = np.eye(2) + 1e-6
        with pytest.raises(NotUnitary):
            validate_coin(m)

    def test_matrix_read_only(self):
        c = hadamard()
        with pytest.raises(ValueError):
            c.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NotUnitary):
            validate_coin([[bad, 0], [0, 1]])


class TestDefectParams:
    @pytest.mark.parametrize(
        "a, b, omega, vartheta",
        [
            (complex(math.nan, 0), 0j, 1 + 0j, 0.0),
            (0.5 + 0j, complex(0, math.nan), 1 + 0j, 0.0),
            (0.5 + 0j, 0j, complex(math.nan, 0), 0.0),
            (0.5 + 0j, 0j, 1 + 0j, math.nan),
            (0.5 + 0j, 0j, 1 + 0j, math.inf),
        ],
    )
    def test_non_finite_rejected(self, a, b, omega, vartheta):
        with pytest.raises(ValueError):
            DefectParams(a, b, omega, vartheta)

    def test_hadamard_line(self):
        p = defect_params(WalkSpec(Lattice.LINE, hadamard(), hadamard()))
        assert p.a == pytest.approx(1j / S2)
        assert p.b == pytest.approx(1j / S2)
        assert p.omega == pytest.approx(1.0)

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi, -1.3])
    def test_konno_line(self, phi):
        p = defect_params(WalkSpec(Lattice.LINE, hadamard(), konno_defect(phi)))
        assert p.a == pytest.approx(1j / S2)
        assert p.b == pytest.approx(1j * cmath.exp(1j * phi) / S2)
        assert p.omega == pytest.approx(1.0)

    def test_hadamard_halfline(self):
        p = defect_params(WalkSpec(Lattice.HALF_LINE, hadamard(), hadamard()))
        assert p.a == pytest.approx(1j / S2)
        assert p.b == pytest.approx(1j / S2)
        assert p.omega == 1.0

    def test_diagonal_coin_signal(self):
        for lattice in Lattice:
            with pytest.raises(DiagonalCoin):
                defect_params(WalkSpec(lattice, identity_coin(), hadamard()))

    def test_moduli_preserved(self, rng):
        for _ in range(50):
            c, d = random_coin(rng), random_coin(rng)
            for lattice in Lattice:
                p = defect_params(WalkSpec(lattice, c, d))
                assert abs(abs(p.a) - abs(c.c21)) <= 1e-12
                assert abs(abs(p.b) - abs(d.c21)) <= 1e-12
                assert abs(abs(p.omega) - 1.0) <= 1e-12

    def test_b_equals_a_iff_phase_condition(self, rng):
        # d21 = c21 e^{i(tau - sigma)}  =>  b = a, on both lattices
        for _ in range(20):
            c = random_coin(rng)
            t1, t2 = rng.uniform(-3, 3, size=2)
            d21 = c.c21 * cmath.exp(1j * (t1 + t2 - c.sigma))
            d = coin_from_reflection(d21, t1, t2)
            for lattice in Lattice:
                p = defect_params(WalkSpec(lattice, c, d))
                assert abs(p.b - p.a) <= 1e-12
        # conversely b = a forces the phase relation
        for _ in range(20):
            c, d = random_coin(rng), random_coin(rng)
            for lattice in Lattice:
                p = defect_params(WalkSpec(lattice, c, d))
                gap = abs(d.c21 - c.c21 * cmath.exp(1j * (d.sigma - c.sigma)))
                if abs(p.b - p.a) <= 1e-12:
                    assert gap <= 1e-11
                else:
                    assert gap > 1e-11

    def test_substituting_constant_coin_gives_b_equals_a(self, rng):
        c = random_coin(rng)
        p = defect_params(WalkSpec(Lattice.LINE, c, c))
        assert abs(p.b - p.a) <= 1e-12


class TestQubit:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            Qubit(bad, 0.0)
        with pytest.raises(ValueError):
            Qubit.normalized(1.0, complex(0.0, bad))

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            Qubit(1.0, 1.0)

    def test_normalized_constructor(self):
        q = Qubit.normalized(3.0, 4.0j)
        assert abs(q.alpha - 0.6) < 1e-15 and abs(q.beta - 0.8j) < 1e-15


class TestHatQubit:
    def test_identity_coins_trivial(self):
        spec = WalkSpec(Lattice.HALF_LINE, identity_coin(), identity_coin())
        with pytest.raises(DiagonalCoin):
            defect_params(spec)  # hat frame still well defined
        q = hat_qubit(Qubit(1.0, 0.0), 0, spec)
        assert q.alpha == 1.0 and q.beta == 0.0

    def test_origin_modulus_preserved(self):
        spec = WalkSpec(Lattice.LINE, hadamard(), konno_defect(1.1))
        q = hat_qubit(Qubit(1 / S2, 1j / S2), 0, spec)
        assert abs(abs(q.alpha) - 1 / S2) <= 1e-12
        assert abs(abs(q.beta) - 1 / S2) <= 1e-12

    def test_any_site_unitary(self, rng):
        for _ in range(10):
            c, d = random_coin(rng), random_coin(rng)
            q = random_qubit(rng)
            for lattice, sites in (
                (Lattice.LINE, (-5, -1, 0, 2, 7)),
                (Lattice.HALF_LINE, (0, 1, 4, 9)),
            ):
                spec = WalkSpec(lattice, c, d)
                for k in sites:
                    qh = hat_qubit(q, k, spec)
                    assert abs(abs(qh.alpha) - abs(q.alpha)) <= 1e-12
                    assert abs(abs(qh.beta) - abs(q.beta)) <= 1e-12

    def test_negative_site_rejected_on_halfline(self):
        spec = WalkSpec(Lattice.HALF_LINE, hadamard(), hadamard())
        with pytest.raises(ValueError):
            hat_qubit(Qubit(1.0, 0.0), -1, spec)


class TestRealization:
    def test_line_roundtrip(self, rng):
        for _ in range(25):
            a = random_disk(rng, 0.95, 0.05)
            b = random_disk(rng, 0.95)
            omega = np.exp(2j * np.pi * rng.uniform())
            spec = spec_for_line_params(a, b, omega)
            p = defect_params(spec)
            assert abs(p.a - a) <= 1e-12
            assert abs(p.b - b) <= 1e-12
            assert abs(p.omega - omega) <= 1e-12

    def test_halfline_roundtrip(self, rng):
        for _ in range(25):
            a = random_disk(rng, 0.95, 0.05)
            b = random_disk(rng, 0.95)
            p = defect_params(spec_for_halfline_params(a, b))
            assert abs(p.a - a) <= 1e-12
            assert abs(p.b - b) <= 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            spec_for_line_params(0.0, 0.3)
        with pytest.raises(ValueError):
            spec_for_halfline_params(0.5, 1.2)
