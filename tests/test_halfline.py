import cmath
import math
import tracemalloc

import numpy as np
import pytest
from helpers import random_disk, random_qubit

from defectwalk import halfline as hl
from defectwalk.cmv import return_probability_series
from defectwalk.coins import Qubit, hat_qubit, spec_for_halfline_params
from defectwalk.errors import BorderlineA, BoundaryZeta, CuspParameter, ParameterOutOfDisk, ZeroA
from defectwalk.schur import arc_nodes, support_arcs, weight_halfline

S2 = math.sqrt(2.0)

# (a, b, atoms): two atoms in one cell of a 4096-point arc grid
ATOM_MISS_CASES = (
    (complex(-0.5434497535063831, 0.6101941756954485), complex(0.4713107890953063, 0.8815603397065286), 2),
    (complex(0.29105185925178745, -0.6105361335158941), complex(0.9972764540771692, -0.07096467506029103), 3),
)

# 1e-7 off a curve, where an 8192-sample winding misread it: inside the
# epitrochoid (L1, winding 1) and inside the epicycloid (2 tangencies)
NEAR_EPITROCHOID = complex(-0.7496553310982618, -0.11354090570451952)
NEAR_EPICYCLOID = complex(0.46925885959493074, -0.8329043270665373)


class TestSigmaArc:
    def test_angular_length_exceeds_pi(self, rng):
        for _ in range(20):
            a = random_disk(rng, 0.95, 0.05)
            t_lo, t_hi = hl.sigma_arc(a)
            assert t_hi - t_lo == pytest.approx(2 * (math.pi - math.acos(abs(a))))
            assert t_hi - t_lo > math.pi

    def test_endpoints_on_boundary_equality(self, rng):
        a = random_disk(rng, 0.9, 0.1)
        for t in hl.sigma_arc(a):
            zeta = hl.zeta_point(a, t)
            assert (a.conjugate() * zeta).real == pytest.approx(abs(a) ** 2, abs=1e-14)

    def test_hadamard_endpoints(self):
        a = 1j / S2
        t_lo, t_hi = hl.sigma_arc(a)
        ends = {hl.zeta_point(a, t_lo), hl.zeta_point(a, t_hi)}
        expected = {1 / S2 + 1j / S2, -1 / S2 + 1j / S2}
        for e in ends:
            assert min(abs(e - w) for w in expected) <= 1e-14

    def test_zero_a(self):
        with pytest.raises(ZeroA):
            hl.sigma_arc(0.0)


class TestMassPoints:
    def test_hadamard_boundary_roots_excluded(self):
        # b = a puts roots on both ends of Sigma_a; they carry no mass and raise nothing
        assert hl.mass_points(1j / S2, 1j / S2) == []
        assert hl.mass_point_count(1j / S2, 1j / S2) == 0

    def test_hadamard_boundary_case_simulation_tail(self):
        # no atoms despite the h = 1 boundary solutions: the constant
        # Hadamard walk on the half line shows a vanishing return tail
        spec = spec_for_halfline_params(1j / S2, 1j / S2)
        series = return_probability_series(spec, 0, Qubit(1.0, 0.0), 400)
        assert float(np.mean(series[300:401])) <= 0.02

    def test_single_root_worked_example(self):
        a = b = 0.5 + 0.5j
        pts = hl.mass_points(a, b)
        assert len(pts) == 1
        pt = pts[0]
        assert pt.side == 1
        assert pt.zeta0 == pytest.approx(-math.sqrt(3) / 2 + 0.5j, abs=1e-12)
        assert pt.z0 == pytest.approx(math.sqrt(3) / 2 - 0.5j, abs=1e-12)
        assert pt.mu == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_residual_and_positivity_invariants(self, rng):
        for _ in range(60):
            a = random_disk(rng, 0.9, 0.05)
            b = random_disk(rng, 0.9)
            pts = hl.mass_points(a, b)
            assert len(pts) <= 3
            for pt in pts:
                assert hl.residual(a, b, pt) <= 1e-10
                lam = -pt.side * (pt.zeta0 - b) ** 2 / (pt.zeta0 - a)
                assert abs(lam.imag) <= 1e-10
                assert lam.real > 0
                assert abs(pt.z0.imag) < abs(a)
                assert 0.0 < pt.mu < 1.0

    def test_count_matches_phase_crossings(self, rng):
        # independent recount: integer multiples of pi crossed by the
        # unwrapped phase of (zeta - b)^2 / (zeta - a)
        for _ in range(1000):
            a = random_disk(rng, 0.9, 0.05)
            b = random_disk(rng, 0.9)
            t_lo, t_hi = hl.sigma_arc(a)
            ts = np.linspace(t_lo + 1e-9, t_hi - 1e-9, 4096)
            zeta = hl.zeta_point(a, ts)
            phi = np.unwrap(np.angle((zeta - b) ** 2 / (zeta - a)))
            recount = int(np.abs(np.diff(np.floor(phi / math.pi))).sum())
            assert hl.mass_point_count(a, b) == recount

    @pytest.mark.parametrize("a, b, count", ATOM_MISS_CASES)
    def test_atoms_closer_than_a_grid_cell(self, a, b, count):
        pts = hl.mass_points(a, b)
        assert len(pts) == count == hl.mass_point_count(a, b, grid=2**16)
        for pt in pts:
            assert hl.residual(a, b, pt) <= 1e-10
            assert 0.0 < pt.mu < 1.0

    def test_near_tangency_guard(self):
        # b bisected toward the circle from the first atom-miss input until
        # two roots of the quartic lie within 7.4e-7
        a, b = ATOM_MISS_CASES[0][0], complex(0.4714797994509592, 0.8818764640770935)
        with pytest.raises(BorderlineA):
            hl.mass_points(a, b)
        with pytest.raises(BorderlineA):
            hl.mass_point_count(a, b)
        with pytest.raises(BorderlineA):
            hl.mass_point_count(np.array([a, 0.3]), np.array([b, 0.2]))

    def test_subnormal_a_is_borderline(self):
        # 1/a overflows: the quartic has no finite monic form
        with pytest.raises(BorderlineA):
            hl.mass_points(1e-320, 0.2)
        with pytest.raises(BorderlineA):
            hl.mass_point_count(1e-320, np.array([0.2, 0.5j]))

    def test_batched_count_matches_points(self):
        coords = -1.0 + (2 * np.arange(32) + 1) / 32
        grid = (coords[None, :] + 1j * coords[:, None]).ravel()
        grid = grid[np.abs(grid) < 1.0]
        for a, b in ((0.45 - 0.3j, grid), (grid, 0.2 + 0.6j)):
            counts = hl.mass_point_count(a, b)
            pairs = np.broadcast(a, b)
            assert counts.shape == pairs.shape
            for c, (ai, bi) in zip(counts, pairs):
                assert c == (len(hl.mass_points(ai, bi)) if ai != 0 else 0)

    def test_s_region_guarantees_roots(self, rng):
        for _ in range(40):
            a = random_disk(rng, 0.9, 0.1)
            b = random_disk(rng, 0.9)
            if hl.in_s_region(a, b, margin=1e-6):
                assert len(hl.mass_points(a, b)) >= 1

    def test_masses_plus_weight_normalize(self, rng):
        for _ in range(3):
            a = random_disk(rng, 0.8, 0.2)
            b = random_disk(rng, 0.8)
            total = sum(pt.mu for pt in hl.mass_points(a, b))
            for lo, hi in support_arcs(a):
                th, w = arc_nodes(lo, hi, 2000)
                total += float(np.sum(w * weight_halfline(a, b, th, check_branch=False))) / (
                    2 * math.pi
                )
            assert abs(total - 1.0) <= 1e-6

    def test_mass_vanishes_toward_arc_boundary(self):
        a, b = 0.5 + 0.5j, 0.1 - 0.2j
        t_lo, _ = hl.sigma_arc(a)
        masses = [hl.point_mass(a, b, hl.zeta_point(a, t_lo + eps)) for eps in (1e-2, 1e-4, 1e-6)]
        assert masses[0] > masses[1] > masses[2]
        assert masses[2] < 1e-3

    def test_boundary_zeta_guard(self):
        a = 0.5 + 0.5j
        t_lo, _ = hl.sigma_arc(a)
        with pytest.raises(BoundaryZeta):
            hl.point_mass(a, 0.2, hl.zeta_point(a, t_lo))


class TestReturnProbability:
    def test_no_atoms_gives_zero(self, rng):
        for _ in range(3):
            q = random_qubit(rng)
            assert hl.return_probability_cesaro(1j / S2, 1j / S2, q) == 0.0
            assert hl.return_probability_limit(1j / S2, 1j / S2, q) == 0.0

    def test_single_root_worked_value(self):
        a = b = 0.5 + 0.5j
        p = hl.return_probability_limit(a, b, Qubit(1.0, 0.0))
        mu = 1 / math.sqrt(3)
        zeta0 = -math.sqrt(3) / 2 + 0.5j
        expected = mu**2 * (1 + 0.5 / abs(zeta0 - b) ** 2)
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.42264973, abs=1e-7)

    def test_nonlocalized_qubit(self, rng):
        for _ in range(30):
            a = random_disk(rng, 0.9, 0.1)
            b = random_disk(rng, 0.9)
            pts = hl.mass_points(a, b)
            q = hl.nonlocalized_qubit(a, b)
            if len(pts) == 1:
                assert hl.return_probability_limit(a, b, q) <= 1e-12
            else:
                assert q is None

    def test_multi_atom_oscillation_and_cesaro(self):
        a, b = 0.62 - 0.2j, -0.8 + 0.05j
        q = Qubit(1.0, 0.0)
        asym = hl.return_asymptotics(a, b, q)
        assert len(asym.zs) >= 2
        with pytest.raises(ValueError):
            hl.return_probability_limit(a, b, q)
        window = np.array([asym.value(n) for n in range(3000, 3600)])
        assert abs(window.mean() - asym.cesaro) <= 2e-3
        assert window.std() > 1e-3  # genuinely oscillatory

    def test_simulation_agreement(self, rng):
        for _ in range(6):
            a = random_disk(rng, 0.85, 0.15)
            b = random_disk(rng, 0.85)
            spec = spec_for_halfline_params(a, b)
            q = random_qubit(rng)
            analytic = hl.return_probability_cesaro(a, b, hat_qubit(q, 0, spec))
            series = return_probability_series(spec, 0, q, 400)
            sim = float(np.mean(series[300:401]))
            assert abs(analytic - sim) <= 0.02


class TestEnvelope:
    def test_exterior_and_tangency(self):
        a = 0.45 + 0.3j
        t_lo, t_hi = hl.sigma_arc(a)
        for t in np.linspace(t_lo + 1e-3, t_hi - 1e-3, 40):
            for sign in (+1, -1):
                p = hl.envelope_point(a, float(t), sign)
                assert abs(p) >= 1.0 - 1e-9
                zeta = hl.zeta_point(a, float(t))
                x = (zeta - a) + sign * abs(zeta - a)
                assert abs((x * (zeta - p).conjugate()).real) <= 1e-10

    def test_limit_parameters_reach_branch_points(self):
        a = 0.45 + 0.3j
        t_lo, _ = hl.sigma_arc(a)
        za = math.sqrt(1 - abs(a) ** 2) + 1j * abs(a)
        branch = (za, -za, za.conjugate(), -za.conjugate())
        for sign in (+1, -1):
            p = hl.envelope_point(a, t_lo + 1e-9, sign)
            assert abs(abs(p) - 1.0) <= 1e-6
            assert min(abs(p - w) for w in branch) <= 1e-4

    def test_cusp_parameter_guard(self):
        # for real a the plus-family factor A + |A| vanishes exactly at t = pi
        # (zeta - a real negative), degenerating the envelope system
        with pytest.raises(CuspParameter):
            hl.envelope_point(0.9 + 0j, math.pi, +1)


class TestLimitLines:
    def test_endpoints_unimodular(self, rng):
        for _ in range(20):
            a = random_disk(rng, 0.95, 0.05)
            for ch in hl.limit_lines(a):
                assert abs(abs(ch.start) - 1.0) <= 1e-14
                assert abs(abs(ch.end) - 1.0) <= 1e-14

    def test_directions_follow_families(self, rng):
        for _ in range(20):
            a = random_disk(rng, 0.95, 0.05)
            for ch in hl.limit_lines(a):
                direction = ch.end - ch.start
                base = cmath.sqrt(ch.start - a)
                ref = 1j * base if ch.family == 1 else base
                cross = abs((direction.conjugate() * ref).imag) / (abs(direction) * abs(ref))
                assert cross <= 1e-10

    def test_orthogonal_pairs_parallel_to_sqrt_ia(self, rng):
        a = random_disk(rng, 0.9, 0.1)
        dirs = {}
        for ch in hl.limit_lines(a):
            d = ch.end - ch.start
            dirs[(ch.anchor, ch.family)] = d / abs(d)
        # families at the same anchor are orthogonal
        for anchor in ("zeta_plus", "zeta_minus"):
            inner = (dirs[(anchor, 1)].conjugate() * dirs[(anchor, -1)]).real
            assert abs(inner) <= 1e-10
        # each chord is parallel to sqrt(ia) or sqrt(-ia)
        for d in dirs.values():
            s1, s2 = cmath.sqrt(1j * a), cmath.sqrt(-1j * a)
            sin1 = abs((d.conjugate() * s1).imag) / abs(s1)
            sin2 = abs((d.conjugate() * s2).imag) / abs(s2)
            assert min(sin1, sin2) <= 1e-10

    def test_imaginary_a_horizontal_lines_coincide(self):
        chords = hl.limit_lines(0.2j)
        horizontals = [
            ch for ch in chords if abs((ch.end - ch.start).imag) <= 1e-12
        ]
        assert len(horizontals) == 2
        ends0 = {horizontals[0].start, horizontals[0].end}
        for p in (horizontals[1].start, horizontals[1].end):
            assert min(abs(p - q) for q in ends0) <= 1e-12
        verticals = [ch for ch in chords if abs((ch.end - ch.start).real) <= 1e-12]
        assert len(verticals) == 2


class TestRegionClass:
    def test_outside_epitrochoid_is_l0(self):
        rc = hl.classify_region(0.95)
        assert rc.l_label == "L0" and rc.tangent_profile == "Te1+2"
        assert rc.epitrochoid_winding == 0 and rc.full_envelope_tangencies == 4

    def test_l0_localizes_every_b(self, rng):
        for _ in range(200):
            b = random_disk(rng, 0.97)
            assert hl.mass_point_count(0.95, b) >= 1

    def test_inside_loop_is_l2_with_two_bands(self):
        rc = hl.classify_region(0.3)
        assert rc.l_label == "L2" and rc.tangent_profile == "Te0+1"
        # the two localization-free sectors are disconnected
        assert hl.mass_point_count(0.3, 0.7 + 0.6j) == 0
        assert hl.mass_point_count(0.3, 0.7 - 0.6j) == 0
        assert hl.mass_point_count(0.3, 0.95) >= 1

    def test_imaginary_a_is_l1(self):
        for a in (0.2j, 0.7j, -0.5j):
            rc = hl.classify_region(a)
            assert rc.l_label == "L1" and rc.tangent_profile == "Te1+1"

    def test_winding_crosscheck_on_random_points(self, rng):
        points = [random_disk(rng, 0.95, 0.05) for _ in range(40)]
        for d in (1.2e-9, 1e-8, 1e-7):
            t = rng.uniform(0.0, 2 * math.pi, 20)
            v = hl.epitrochoid_velocity(t)
            points += list(hl.epitrochoid(t) + rng.choice([-d, d], 20) * 1j * v / np.abs(v))
        for a in points + [NEAR_EPITROCHOID]:
            try:
                rc = hl.classify_region(complex(a))
            except BorderlineA:
                continue
            assert rc.l_label == f"L{rc.epitrochoid_winding}"

    def test_near_curves_counted_exactly(self):
        rc = hl.classify_region(NEAR_EPITROCHOID)
        assert rc.l_label == "L1" and rc.epitrochoid_winding == 1
        assert hl.classify_region(NEAR_EPICYCLOID).full_envelope_tangencies == 2

    def test_cusp_has_three_tangencies(self):
        # a double root of the epicycloid cubic, off the circle by ~1e-8
        for a in (0.5, -0.5):
            assert hl.classify_region(a).full_envelope_tangencies == 3

    def test_borderline_reported(self):
        a = hl.epitrochoid(0.9)
        with pytest.raises(BorderlineA):
            hl.classify_region(complex(a))

    def test_zero_a(self):
        with pytest.raises(ZeroA):
            hl.classify_region(0.0)

    @pytest.mark.parametrize("a", [1e-25 + 1e-25j, 1e-35 + 1e-35j, 1e-320])
    def test_tiny_a_is_borderline(self, a):
        # a -> 0 approaches the epitrochoid's double point at the origin; below
        # about 1e-30 the cubic's middle root comes out exactly 0
        with pytest.raises(BorderlineA):
            hl.classify_region(a)


class TestCurves:
    def test_epicycloid_cusps(self):
        cusps = sorted(hl.epicycloid_cusps(), key=lambda z: z.real)
        assert len(cusps) == 2
        assert abs(cusps[0] + 0.5) <= 1e-9
        assert abs(cusps[1] - 0.5) <= 1e-9

    def test_coefficients_match_closed_forms(self):
        ts = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
        w = np.exp(1j * ts)
        # rounding of w^3 against e^{3it} alone reaches 1.0e-15
        assert np.abs(np.polyval(hl._EPICYCLOID, w) - hl.epicycloid(ts)).max() <= 2e-15
        assert np.abs(np.polyval(hl._EPITROCHOID, w) - hl.epitrochoid(ts)).max() <= 2e-15

    def test_epitrochoid_self_intersections(self):
        pts = sorted(hl.epitrochoid_self_intersections(), key=lambda z: z.real)
        assert len(pts) == 2
        assert abs(pts[0] + 1 / S2) <= 1e-9
        assert abs(pts[1] - 1 / S2) <= 1e-9

    def test_self_intersections_match_polyline_oracle(self):
        # an independent numeric oracle: intersect the 512-point polyline
        # with itself, all pairs of non-adjacent segments at once
        n = 512
        p = hl.epitrochoid(np.linspace(0.0, 2 * math.pi, n, endpoint=False))
        r = np.roll(p, -1) - p
        i, j = np.triu_indices(n, 2)
        i, j = i[j - i < n - 1], j[j - i < n - 1]  # segments n-1 and 0 share a vertex
        d, den = p[j] - p[i], (r[i].conj() * r[j]).imag
        with np.errstate(divide="ignore", invalid="ignore"):
            s, u = (d.conj() * r[j]).imag / den, (d.conj() * r[i]).imag / den
        hit = (den != 0) & (s >= 0) & (s <= 1) & (u >= 0) & (u <= 1)
        crossings = sorted(p[i[hit]] + s[hit] * r[i[hit]], key=lambda z: z.real)
        assert len(crossings) == 2  # the tangential point at 0 is not crossed
        sines = np.abs(den[hit]) / (np.abs(r[i[hit]]) * np.abs(r[j[hit]]))
        assert np.all(sines > 0.5)
        exact = sorted(hl.epitrochoid_self_intersections(), key=lambda z: z.real)
        for z, target, oracle in zip(exact, (-1 / S2, 1 / S2), crossings):
            assert abs(oracle - target) <= 1e-3 and abs(oracle - z) <= 1e-3

    def test_curves_inscribed_in_disk(self):
        ts = np.linspace(0, 2 * math.pi, 400)
        assert np.abs(hl.epicycloid(ts)).max() <= 1.0 + 1e-12
        assert np.abs(hl.epitrochoid(ts)).max() <= 1.0 + 1e-12


class TestCompanionRoots:
    @pytest.mark.parametrize("degree", [3, 4])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_equal_to_np_roots(self, degree, dtype):
        rng = np.random.default_rng(1000 * degree + (dtype is complex))
        coeffs = rng.normal(size=(200, degree + 1))
        if dtype is complex:
            coeffs = coeffs + 1j * rng.normal(size=coeffs.shape)
        roots = hl._companion_roots(coeffs)
        assert roots.shape == (200, degree)
        for row, p in zip(roots, coeffs):
            # bytes, so that the signs of zero count too
            assert row.tobytes() == np.roots(p).astype(complex).tobytes()


def _companion_count(a, b):
    """The decider's count at one point, or None where it raises BorderlineA."""
    try:
        return int(hl._arc_roots(a, b)[1].sum())
    except BorderlineA:
        return None


def _plane():
    coords = -1.0 + (2 * np.arange(128) + 1) / 128
    points = (coords[None, :] + 1j * coords[:, None]).ravel()
    return points[np.abs(points) < 1.0]


class TestBatchedCount:
    """The batched count takes the closed-form roots only where every decision
    has margin, and asks the companion roots everywhere else."""

    @pytest.fixture
    def recounted(self, monkeypatch):
        points = []
        arc_roots = hl._arc_roots

        def spy(a, b):
            points.append(np.size(a))
            return arc_roots(a, b)

        monkeypatch.setattr(hl, "_arc_roots", spy)
        return points

    @pytest.mark.parametrize(
        "a_min, a_max, n, recount_share",
        # below |a| = 1e-3 the monic quartic grows like 1/|a| and the closed
        # form loses digits: most points there must be recounted
        [(1e-3, 0.99, 3000, 0.01), (1e-6, 1e-3, 500, 1.0)],
    )
    def test_equals_companion_count(self, recounted, a_min, a_max, n, recount_share):
        rng = np.random.default_rng(18)
        a = np.exp(rng.uniform(math.log(a_min), math.log(a_max), n) + 2j * np.pi * rng.uniform(size=n))
        b = 0.99 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        ref = [_companion_count(ai, bi) for ai, bi in zip(a, b)]
        keep = np.array([c is not None for c in ref])
        assert keep.sum() >= 0.97 * n and (np.abs(b) > 0.98).sum() >= n // 100
        recounted.clear()
        counts = hl.mass_point_count(a[keep], b[keep])
        assert counts.tolist() == [c for c in ref if c is not None]
        assert sum(recounted) <= recount_share * keep.sum()

    @pytest.mark.parametrize("spoil", ["nan", "edge"])
    def test_fallback_recounts_spoiled_points(self, monkeypatch, recounted, spoil):
        a, b = 0.45 - 0.3j, _plane()
        keep = hl._arc_roots(a, b)[1]
        recounted.clear()
        quartic_roots = hl._quartic_roots

        def spoiled_roots(c):
            roots, step = quartic_roots(c)
            rows = np.arange(0, len(roots), 7)
            if spoil == "nan":
                roots[rows, 0] = np.nan
            else:  # the root nearest the circle, moved onto the edge of |r| = 1 within 1e-7
                k = np.abs(np.abs(roots[rows]) - 1.0).argmin(axis=-1)
                roots[rows, k] *= (1.0 + 1e-7) / np.abs(roots[rows, k])
            return roots, step

        monkeypatch.setattr(hl, "_quartic_roots", spoiled_roots)
        assert np.array_equal(hl.mass_point_count(a, b), keep.sum(axis=-1))
        assert sum(recounted) >= len(b) // 7

    def test_guard_raises_through_recount(self, monkeypatch):
        a, b = ATOM_MISS_CASES[0][0], complex(0.4714797994509592, 0.8818764640770935)
        plane = _plane()
        expected = hl._arc_roots(0.45 - 0.3j, plane)[1].sum(axis=-1)
        nan_roots = np.full((hl._BLOCK, 4), np.nan)
        monkeypatch.setattr(hl, "_quartic_roots", lambda c: (nan_roots[: len(c)], nan_roots[: len(c)]))
        assert np.array_equal(hl.mass_point_count(0.45 - 0.3j, plane), expected)
        with pytest.raises(BorderlineA):
            hl.mass_point_count(np.array([0.3, a]), np.array([0.2, b]))

    def test_plane_memory_bounded(self):
        b = _plane()
        assert len(b) == 12892
        hl.mass_point_count(0.45 - 0.3j, b[:8])
        tracemalloc.start()
        try:
            hl.mass_point_count(0.45 - 0.3j, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20  # 7.5 MiB with all the companion matrices at once


class TestOutOfDisk:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: hl.mass_points(0.5, 1.5),
            lambda: hl.mass_points(1.2, 0.1),
            lambda: hl.mass_points(0.5, complex(math.nan, 0.0)),
            lambda: hl.classify_region(1.2),
            lambda: hl.classify_region(math.nan),
            lambda: hl.classify_region(complex(0.3, math.inf)),
            lambda: hl.mass_point_count(1.2, 0.1),
            lambda: hl.mass_point_count([0.5, 0.3], [0.1, math.nan]),
            lambda: hl.mass_point_count(0.5, 1.5, grid=64),
            lambda: hl.mass_point_count(math.nan, 0.1, grid=64),
        ],
    )
    def test_refused(self, call):
        with pytest.raises(ParameterOutOfDisk):
            call()


class TestSRegion:
    def test_imaginary_a_equivalence_on_grid(self):
        a = 0.55j
        for re in np.linspace(-0.9, 0.9, 12):
            for im in np.linspace(-0.9, 0.9, 12):
                b = complex(re, im)
                if abs(b) >= 1 - 1e-6:
                    continue
                if abs((a.conjugate() * b).real - abs(a) ** 2) < 1e-6:
                    continue
                assert (hl.mass_point_count(a, b) > 0) == hl.in_s_region(a, b)
