import tracemalloc

import numpy as np
import pytest
from helpers import band_states, random_qubit, random_spec, reference_evolve

from defectwalk import cmv
from defectwalk.cmv import (
    MAX_STEPS,
    _qubit_amplitudes,
    _walk,
    amplitude,
    basis_state,
    build_lambda,
    build_transition,
    default_dimension,
    evolve,
    index_of,
    min_dimension,
    moments_at_origin,
    qubit_state,
    return_probability,
    return_probability_series,
    site_of_index,
)
from defectwalk.coins import (
    Lattice,
    Qubit,
    WalkSpec,
    hadamard,
    identity_coin,
    konno_defect,
)
from defectwalk.errors import SizeTooSmall, TooLarge, TruncationTooSmall
from defectwalk.oracles import simulated_moments


def test_index_roundtrip():
    for lattice, sites in ((Lattice.LINE, range(-6, 7)), (Lattice.HALF_LINE, range(7))):
        seen = set()
        for s in sites:
            for up in (True, False):
                i = index_of(lattice, s, up)
                assert i not in seen
                seen.add(i)
                assert site_of_index(lattice, i) == (s, up)
    # the line ordering interleaves exactly as documented
    order = [site_of_index(Lattice.LINE, i) for i in range(8)]
    assert order == [
        (0, True), (-1, False), (-1, True), (0, False),
        (1, True), (-2, False), (-2, True), (1, False),
    ]


class TestLambda:
    def test_identity_coins_all_ones(self):
        for lattice in Lattice:
            spec = WalkSpec(lattice, identity_coin(), identity_coin())
            lam = build_lambda(spec, 16)
            assert np.abs(lam - 1.0).max() == 0.0

    def test_halfline_closed_form(self):
        spec = WalkSpec(Lattice.HALF_LINE, hadamard(), konno_defect(0.7))
        s1, s2 = spec.coin.sigma1, spec.coin.sigma2
        t1, t2 = spec.defect.sigma1, spec.defect.sigma2
        lam = build_lambda(spec, 12)
        assert lam[0] == 1.0
        for k in range(1, 6):
            assert lam[2 * k - 1] == pytest.approx(np.exp(1j * (t2 + (k - 1) * s2)))
            assert lam[2 * k] == pytest.approx(np.exp(-1j * (t1 + (k - 1) * s1)))

    def test_unimodular(self, rng):
        for lattice in Lattice:
            lam = build_lambda(random_spec(rng, lattice), 30)
            assert np.abs(np.abs(lam) - 1.0).max() <= 1e-12


class TestVerblunsky:
    def test_halfline_sequence_invariants(self, rng):
        from defectwalk.cmv import verblunsky_halfline

        spec = random_spec(rng, Lattice.HALF_LINE)
        alphas = verblunsky_halfline(spec, 24)
        assert np.abs(alphas).max() < 1.0
        assert np.abs(alphas[1::2]).max() == 0.0  # odd coefficients vanish
        rhos = np.sqrt(1.0 - np.abs(alphas[::2]) ** 2)
        assert rhos.min() > 0.0

    def test_line_scalars_in_disk(self, rng):
        from defectwalk.cmv import verblunsky_line

        spec = random_spec(rng, Lattice.LINE)
        for k in range(-8, 9):
            assert abs(verblunsky_line(spec, k)) < 1.0


class TestBuildTransition:
    def test_two_constructions_agree_on_random_specs(self, rng):
        # the builder raises if the coin-action and CMV assemblies differ
        for _ in range(50):
            for lattice in Lattice:
                build_transition(random_spec(rng, lattice), 36, check=True)

    def test_identity_coins_permutation(self):
        spec = WalkSpec(Lattice.HALF_LINE, identity_coin(), identity_coin())
        dense = build_transition(spec, 12).to_dense()
        assert np.all(np.isin(np.round(dense.real, 12), [0.0, 1.0]))
        assert np.abs(dense.imag).max() == 0.0
        # each full row carries exactly unit mass
        assert np.abs(np.abs(dense[:10]).sum(axis=1) - 1.0).max() <= 1e-12

    def test_interior_columns_orthonormal(self, rng):
        for lattice in Lattice:
            u = build_transition(random_spec(rng, lattice), 40)
            dense = u.to_dense()
            gram = dense.conj().T @ dense
            interior = gram[:30, :30] - np.eye(40)[:30, :30]
            assert np.abs(interior).max() <= 1e-12

    def test_size_guard(self):
        spec = WalkSpec(Lattice.LINE, hadamard(), hadamard())
        with pytest.raises(SizeTooSmall):
            build_transition(spec, 2)
        with pytest.raises(SizeTooSmall):
            build_transition(spec, 9)


def test_lambda_line_closed_form(rng):
    # |x up> carries e^{-i (t1 + (x-1) s1)} for x >= 1 and e^{-i x s1} for
    # x <= 0; |x dn> carries e^{i (t2 + x s2)} for x >= 0 and e^{i (x+1) s2}
    # for x < 0
    spec = random_spec(rng, Lattice.LINE)
    s1, s2 = spec.coin.sigma1, spec.coin.sigma2
    t1, t2 = spec.defect.sigma1, spec.defect.sigma2
    lam = build_lambda(spec, 48)
    for x in range(-12, 12):
        up = -(t1 + (x - 1) * s1) if x >= 1 else -x * s1
        dn = t2 + x * s2 if x >= 0 else (x + 1) * s2
        assert lam[index_of(Lattice.LINE, x, True)] == pytest.approx(np.exp(1j * up), abs=1e-14)
        assert lam[index_of(Lattice.LINE, x, False)] == pytest.approx(np.exp(1j * dn), abs=1e-14)
    # the sites x >= 0 carry the half line's Lambda
    half = build_lambda(WalkSpec(Lattice.HALF_LINE, spec.coin, spec.defect), 24)
    for x in range(12):
        for up in (True, False):
            assert lam[index_of(Lattice.LINE, x, up)] == half[index_of(Lattice.HALF_LINE, x, up)]


@pytest.mark.parametrize("lattice", list(Lattice))
def test_site_of_index_elementwise(lattice):
    sites, ups = site_of_index(lattice, np.arange(400))
    assert [site_of_index(lattice, i) for i in range(400)] == list(zip(sites.tolist(), ups.tolist()))


@pytest.mark.parametrize("lattice", list(Lattice))
def test_index_of_elementwise(lattice):
    sites = np.arange(-50 if lattice is Lattice.LINE else 0, 50)
    for up in (True, False):
        scalar = [index_of(lattice, s, up) for s in sites.tolist()]
        assert all(type(i) is int for i in scalar)
        assert index_of(lattice, sites, up).tolist() == scalar
        assert index_of(lattice, sites, np.full(len(sites), up)).tolist() == scalar
    ups = np.arange(len(sites)) % 3 == 0
    got_sites, got_ups = site_of_index(lattice, index_of(lattice, sites, ups))
    assert np.array_equal(got_sites, sites) and np.array_equal(got_ups, ups)
    with pytest.raises(ValueError, match="nonnegative"):
        index_of(Lattice.HALF_LINE, np.array([3, -1, 2]), True)


@pytest.mark.parametrize("lattice", list(Lattice))
def test_band_writer_refuses_entries_off_the_band(rng, monkeypatch, lattice):
    # every target moved 8 places down the basis lies outside the band
    index = cmv.index_of
    monkeypatch.setattr(cmv, "index_of", lambda lat, site, up: index(lat, site, up) + 8)
    with pytest.raises(ValueError, match="band"):
        build_transition(random_spec(rng, lattice), 40, check=False)


@pytest.mark.parametrize("lattice", list(Lattice))
def test_to_dense_matches_entries(rng, lattice):
    u = build_transition(random_spec(rng, lattice), 40)
    dense = u.to_dense()
    for i in range(40):
        for j in range(40):
            assert dense[i, j] == u.entry(i, j)


@pytest.mark.parametrize("lattice", list(Lattice))
def test_build_check_catches_wrong_verblunsky(rng, monkeypatch, lattice):
    # the CMV side with conjugated coefficients must fail the cross-check
    spec = random_spec(rng, lattice)
    build_transition(spec, 36, check=True)
    verblunsky = cmv.verblunsky_line
    monkeypatch.setattr(cmv, "verblunsky_line", lambda s, k: np.conj(verblunsky(s, k)))
    with pytest.raises(AssertionError, match="disagree"):
        build_transition(spec, 36, check=True)


class TestEvolve:
    def test_zero_steps_identity(self, rng):
        spec = random_spec(rng, Lattice.LINE)
        u = build_transition(spec, 40)
        psi = qubit_state(Lattice.LINE, 0, random_qubit(rng), 40)
        assert np.array_equal(evolve(u, psi, 0), psi)

    def test_deterministic_shift(self):
        spec = WalkSpec(Lattice.HALF_LINE, identity_coin(), identity_coin())
        u = build_transition(spec, 40)
        out = evolve(u, basis_state(Lattice.HALF_LINE, 0, True, 40), 3)
        expected = basis_state(Lattice.HALF_LINE, 3, True, 40)
        assert np.abs(out - expected).max() <= 1e-15

    @pytest.mark.parametrize("lattice", list(Lattice))
    def test_matches_reference_evolver(self, rng, lattice):
        for _ in range(5):
            spec = random_spec(rng, lattice)
            steps = 4
            dim = default_dimension(lattice, steps, 0)
            u = build_transition(spec, dim)
            out = evolve(u, basis_state(lattice, 0, True, dim), steps)
            ref = reference_evolve(spec, {(0, True): 1.0}, steps)
            for (site, up), amp in ref.items():
                assert abs(out[index_of(lattice, site, up)] - amp) <= 1e-13
            mass_ref = sum(abs(v) ** 2 for v in ref.values())
            assert abs(mass_ref - np.linalg.norm(out) ** 2) <= 1e-12

    def test_hadamard_two_steps_hand_values(self):
        spec = WalkSpec(Lattice.LINE, hadamard(), hadamard())
        dim = default_dimension(Lattice.LINE, 2, 0)
        u = build_transition(spec, dim)
        out = evolve(u, basis_state(Lattice.LINE, 0, True, dim), 2)
        ref = reference_evolve(spec, {(0, True): 1.0}, 2)
        # hand expansion: |0u> -> (|1u> + |-1d>)/sqrt2 -> ...
        assert ref[(2, True)] == pytest.approx(0.5)
        assert ref[(0, False)] == pytest.approx(0.5)
        for (site, up), amp in ref.items():
            assert out[index_of(Lattice.LINE, site, up)] == pytest.approx(amp)

    @pytest.mark.parametrize("lattice", list(Lattice))
    def test_norm_conserved_1000_steps(self, rng, lattice):
        spec = random_spec(rng, lattice)
        steps = 1000
        dim = default_dimension(lattice, steps, 0)
        u = build_transition(spec, dim, check=False)
        psi = evolve(u, qubit_state(lattice, 0, random_qubit(rng), dim), steps)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    def test_ballistic_support(self, rng):
        spec = random_spec(rng, Lattice.LINE)
        steps = 40
        dim = default_dimension(Lattice.LINE, steps, 0)
        u = build_transition(spec, dim)
        out = evolve(u, basis_state(Lattice.LINE, 0, True, dim), steps)
        for i in range(dim):
            site, _ = site_of_index(Lattice.LINE, i)
            if abs(site) > steps:
                assert abs(out[i]) <= 1e-14

    def test_truncation_guard(self):
        spec = WalkSpec(Lattice.LINE, hadamard(), hadamard())
        u = build_transition(spec, 40)
        psi = basis_state(Lattice.LINE, 0, True, 40)
        with pytest.raises(TruncationTooSmall):
            evolve(u, psi, 100)
        with pytest.raises(TruncationTooSmall):
            return_probability_series(spec, 0, Qubit(1.0, 0.0), 100, dimension=40)

    def test_zero_dimension_is_refused_not_defaulted(self):
        spec = WalkSpec(Lattice.LINE, hadamard(), hadamard())
        with pytest.raises(TruncationTooSmall):
            return_probability_series(spec, 0, Qubit(1.0, 0.0), 3, dimension=0)


class TestReturnProbability:
    def test_zero_steps_is_one(self, rng):
        spec = random_spec(rng, Lattice.HALF_LINE)
        assert return_probability(spec, 0, random_qubit(rng), 0) == pytest.approx(1.0, abs=1e-12)

    def test_odd_times_vanish_on_line(self, rng):
        for _ in range(3):
            spec = random_spec(rng, Lattice.LINE)
            series = return_probability_series(spec, 0, random_qubit(rng), 31)
            assert max(series[1::2]) <= 1e-12

    def test_series_in_unit_interval(self, rng):
        spec = random_spec(rng, Lattice.HALF_LINE)
        series = return_probability_series(spec, 2, random_qubit(rng), 60)
        assert np.all(series >= 0.0) and np.all(series <= 1.0 + 1e-12)


class TestAmplitude:
    def test_zero_steps_delta(self, rng):
        spec = random_spec(rng, Lattice.LINE)
        assert amplitude(spec, 3, 3, 0) == 1.0
        assert amplitude(spec, 3, 5, 0) == 0.0

    def test_one_step_matches_band(self, rng):
        for lattice in Lattice:
            spec = random_spec(rng, lattice)
            u = build_transition(spec, default_dimension(lattice, 1, 2))
            for i, j in ((0, 0), (0, 2), (1, 2), (4, 5), (2, 1)):
                assert amplitude(spec, i, j, 1) == pytest.approx(u.entry(i, j))

    def test_matches_band_in_and_out_of_reach(self, rng):
        # three steps reach sites up to 3 away; further ones get exactly 0
        for lattice in Lattice:
            spec = random_spec(rng, lattice)
            dim = 40
            for i in (0, 9):
                psi0 = np.zeros(dim, dtype=complex)
                psi0[i] = 1.0
                final = band_states(spec, psi0, 3, dim)[-1]
                for j in range(dim):
                    assert amplitude(spec, i, j, 3, dim) == final[j]

    def test_out_of_reach_runs_no_walk(self, rng):
        # no buffer spans the 10^5 sites between the two basis states
        for lattice in Lattice:
            spec = random_spec(rng, lattice)
            far = index_of(lattice, 10**5, True)
            tracemalloc.start()
            try:
                got = [amplitude(spec, 0, far, 3), amplitude(spec, far, 1, 3)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1024 * 1024
            assert all(type(a) is complex and a == 0 for a in got)

    def test_dimension_floor(self):
        assert min_dimension(100, 0) == 216
        assert default_dimension(Lattice.HALF_LINE, 100, 0) == 216
        assert default_dimension(Lattice.LINE, 100, 0) == 436


class TestKernelMatchesBand:
    """The kernel steps in site order inside the light cone; the band steps
    the whole truncation in CMV order.  Results must agree bit for bit."""

    STEPS = 300

    def cases(self, rng):
        for lattice in Lattice:
            spec = random_spec(rng, lattice)
            for site in (0, 3):
                dims = (default_dimension(lattice, self.STEPS, site), min_dimension(self.STEPS, site))
                for dim in dims:
                    yield spec, site, dim

    def test_return_probability_series(self, rng):
        for spec, site, dim in self.cases(rng):
            q = random_qubit(rng)
            i_up, i_dn = index_of(spec.lattice, site, True), index_of(spec.lattice, site, False)
            states = band_states(spec, qubit_state(spec.lattice, site, q, dim), self.STEPS, dim)
            band = np.array([abs(psi[i_up]) ** 2 + abs(psi[i_dn]) ** 2 for psi in states])
            assert np.array_equal(return_probability_series(spec, site, q, self.STEPS, dim), band)

    def test_simulated_moments(self, rng):
        for spec, site, dim in self.cases(rng):
            q = random_qubit(rng)
            psi0 = qubit_state(spec.lattice, site, q, dim)
            band = np.array([np.vdot(psi0, psi) for psi in band_states(spec, psi0, self.STEPS, dim)])
            got = simulated_moments(spec, site, q, self.STEPS, dim)
            assert np.abs(got - band).max() <= 1e-15

    def test_moments_at_origin(self, rng):
        for spec, site, dim in self.cases(rng):
            if site:
                continue
            if spec.lattice is Lattice.HALF_LINE:
                band = [psi[0] for psi in band_states(spec, basis_state(spec.lattice, 0, True, dim), self.STEPS, dim)]
            else:
                starts = (basis_state(spec.lattice, 0, True, dim), basis_state(spec.lattice, -1, False, dim))
                rows = [band_states(spec, psi0, self.STEPS, dim) for psi0 in starts]
                band = [[[r[n][0], r[n][1]] for r in rows] for n in range(self.STEPS + 1)]
            assert np.array_equal(moments_at_origin(spec, self.STEPS, dim), np.array(band))

    def test_amplitude(self, rng):
        for spec, site, dim in self.cases(rng):
            i = index_of(spec.lattice, site, False)
            states = band_states(spec, basis_state(spec.lattice, site, False, dim), self.STEPS, dim)
            for j in (i, index_of(spec.lattice, site + 1, True), index_of(spec.lattice, 0, True)):
                assert amplitude(spec, i, j, self.STEPS, dim) == states[-1][j]

    def test_seeded_specs(self):
        # 20 specs per lattice, 1-300 steps, starts at sites 0-3; the line
        # also runs the two-vector batch of moments_at_origin
        rng = np.random.default_rng(11)
        for lattice in Lattice:
            for _ in range(20):
                spec, q = random_spec(rng, lattice), random_qubit(rng)
                steps, site = int(rng.integers(1, 301)), int(rng.integers(0, 4))
                dim = default_dimension(lattice, steps, site)
                taps = [index_of(lattice, site, True), index_of(lattice, site, False)]
                states = band_states(spec, qubit_state(lattice, site, q, dim), steps, dim)
                band = np.array([psi[taps] for psi in states])
                assert np.array_equal(_qubit_amplitudes(spec, site, q, steps), band)
                if lattice is Lattice.LINE:
                    block = [basis_state(lattice, 0, True, dim), basis_state(lattice, -1, False, dim)]
                    rows = [band_states(spec, psi0, steps, dim) for psi0 in block]
                    band = np.array([[r[n][:2] for r in rows] for n in range(steps + 1)])
                    assert np.array_equal(moments_at_origin(spec, steps), band)

    def test_many_observed_sites(self, rng):
        # one walk from site 3 observed at sites 0, 3 and 5, both spins
        observe = [(site, up) for site in (0, 3, 5) for up in (True, False)]
        for lattice in Lattice:
            spec, q = random_spec(rng, lattice), random_qubit(rng)
            dim = default_dimension(lattice, self.STEPS, 3)
            states = band_states(spec, qubit_state(lattice, 3, q, dim), self.STEPS, dim)
            taps = [index_of(lattice, site, up) for site, up in observe]
            band = np.array([psi[taps] for psi in states])
            start = {(3, True): q.alpha, (3, False): q.beta}
            assert np.array_equal(_walk(spec, [start], observe, self.STEPS)[:, 0], band)

    def test_state_is_the_left_operand(self, rng):
        # numpy's complex multiply is a fused multiply-add, so x * c and c * x
        # round differently for about a third of draws; the kernel must
        # compute x * c, as the band's psi * band[:, k] does
        x = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        for lattice in Lattice:
            spec = random_spec(rng, lattice)
            for site, coin in ((5, spec.coin), (0, spec.defect)):
                # on the half line site 0's down output is reflected into (0, up)
                wall = lattice is Lattice.HALF_LINE and site == 0
                observe = [(site + 1, True), (0, True) if wall else (site - 1, False)]
                for is_up in (True, False):
                    starts = [{(site, is_up): v} for v in x]
                    out = _walk(spec, starts, observe, 1)[1]
                    assert np.array_equal(out, x[:, None] * coin.matrix[:, 0 if is_up else 1])


def _band_amplitudes(spec, starts, observe, steps):
    """The band's amplitudes at ``observe``, in ``_walk``'s layout."""
    reach = max(abs(site) for state in starts + [dict.fromkeys(observe)] for site, _ in state)
    dim = default_dimension(spec.lattice, steps, reach)
    taps = [index_of(spec.lattice, site, up) for site, up in observe]
    rows = []
    for state in starts:
        psi0 = np.zeros(dim, dtype=complex)
        for (site, up), amp in state.items():
            psi0[index_of(spec.lattice, site, up)] = amp
        rows.append([psi[taps] for psi in band_states(spec, psi0, steps, dim)])
    return np.array(rows).transpose(1, 0, 2)


class TestBlockedWindows:
    """Steps go in blocks that share one window (the union of the steps'
    cones); any block size, a wall entering mid-block and a window that holds
    no reachable site must all give the band's amplitudes."""

    @pytest.mark.parametrize("block", [1, 3, 64, 1000])
    def test_block_sizes(self, rng, monkeypatch, block):
        monkeypatch.setattr(cmv, "_BLOCK", block)
        observe = [(site, up) for site in (0, 3, 5) for up in (True, False)]
        for lattice in Lattice:
            spec, q = random_spec(rng, lattice), random_qubit(rng)
            starts = [{(3, True): q.alpha, (3, False): q.beta}, {(0, False): 1.0}]
            for steps in (0, 63, 64, 65, 129):
                band = _band_amplitudes(spec, starts, observe, steps)
                assert np.array_equal(_walk(spec, starts, observe, steps), band)

    def test_wall_enters_mid_block(self, rng):
        # from site s the cone reaches the wall at step s, inside a block
        spec, q = random_spec(rng, Lattice.HALF_LINE), random_qubit(rng)
        for site in range(5, 71):
            starts = [{(site, True): q.alpha, (site, False): q.beta}]
            observe = [(site, True), (site, False), (0, True)]
            band = _band_amplitudes(spec, starts, observe, 150)
            assert np.array_equal(_walk(spec, starts, observe, 150), band)

    def test_unreachable_observer(self, rng):
        # 10 or 30 steps from site 40 never reach site 0, so every step's
        # window is empty (after 10 steps even their union is); 50 steps
        # reach it from step 40 on
        for lattice in Lattice:
            spec = random_spec(rng, lattice)
            starts, observe = [{(40, True): 1.0}], [(0, True), (0, False)]
            for steps in (10, 30, 50):
                got = _walk(spec, starts, observe, steps)
                assert np.array_equal(got, _band_amplitudes(spec, starts, observe, steps))
            assert not got[:40].any() and got[40:].any()


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached past the step cap")


def test_step_cap_refuses_before_allocating(rng, monkeypatch):
    # numpy is out of reach in cmv, so a missing guard fails at once instead
    # of running (and allocating for) a walk of MAX_STEPS + 1 steps
    monkeypatch.setattr(cmv, "np", _NoNumpy())
    steps = MAX_STEPS + 1
    for lattice in Lattice:
        spec, q = random_spec(rng, lattice), random_qubit(rng)
        for call in (
            lambda: return_probability_series(spec, 0, q, steps),
            lambda: moments_at_origin(spec, steps),
            lambda: amplitude(spec, 0, 0, steps),
            lambda: simulated_moments(spec, 0, q, steps),
        ):
            with pytest.raises(TooLarge):
                call()
    # MAX_STEPS itself passes the cap: a bad site then fails before any buffer
    with pytest.raises(ValueError):
        _walk(spec, [{(-1, True): 1.0}], [(0, True)], MAX_STEPS)


def test_negative_steps_refused_before_allocating(rng, monkeypatch):
    # numpy is out of reach in cmv, as in the step-cap test above
    monkeypatch.setattr(cmv, "np", _NoNumpy())
    for lattice in Lattice:
        spec, q = random_spec(rng, lattice), random_qubit(rng)
        for steps in (-1, -2):
            for call in (
                lambda: return_probability_series(spec, 0, q, steps),
                lambda: return_probability(spec, 0, q, steps),
                lambda: moments_at_origin(spec, steps),
                lambda: amplitude(spec, 0, 0, steps),
                lambda: simulated_moments(spec, 0, q, steps),
            ):
                with pytest.raises(ValueError, match="steps must be >= 0"):
                    call()


def test_evolve_refuses_negative_steps():
    spec = WalkSpec(Lattice.LINE, hadamard(), hadamard())
    u = build_transition(spec, 40)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        evolve(u, basis_state(Lattice.LINE, 0, True, 40), -2)


def test_amplitude_refuses_negative_indices(rng):
    # divmod floors, so on the line index -5 would read as site -2 dn (index 5)
    for lattice in Lattice:
        spec = random_spec(rng, lattice)
        for i, j in ((-5, 5), (5, -5), (-1, 0)):
            with pytest.raises(ValueError, match="basis indices are nonnegative"):
                amplitude(spec, i, j, 0)


def test_halfline_buffer_spans_the_cone(rng):
    # ten steps from a far site touch 21 sites; the buffer must not reach
    # back to the wall, and inside the cone both lattices see only the coin
    spec, q = random_spec(rng, Lattice.HALF_LINE), random_qubit(rng)
    line = WalkSpec(Lattice.LINE, spec.coin, spec.defect)
    site = 200_000
    tracemalloc.start()
    try:
        half_series = return_probability_series(spec, site, q, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert np.array_equal(half_series, return_probability_series(line, site, q, 10))


def test_build_check_holds_at_large_dimension():
    # rounding k * sigma with k in the thousands costs ~k eps |sigma| of
    # phase, past the cross-check's 1e-12 on most seeded coins at this size
    rng = np.random.default_rng(1)
    for _ in range(4):
        build_transition(random_spec(rng, Lattice.LINE), 20036, check=True)
