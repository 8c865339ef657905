"""Exact-plane oracle against closed-form hyperbolic geometry.

The constant-curvature plane admits exact answers: distances are single
acosh evaluations, the lattice is enumerable by integer arithmetic, and
small ball counts are cross-checked against an independent norm-pruned
walk of the generators.
"""

import math
import tracemalloc
from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from plane_reference import HPoint, apply, busemann_inf, h2_distance, t_xi

from cuspgrowth import cli, h2_oracle
from cuspgrowth.errors import DomainError, EnumerationCapError
from cuspgrowth.h2_oracle import (
    BALL_CAP,
    R_CAP,
    CountTable,
    MoebiusElement,
    coset_counts,
    enumerate_group,
    estimate_delta,
    prop28_radius,
    verify_counting,
    verify_lemmas,
    verify_prop28,
)

I2 = MoebiusElement.identity()
A = MoebiusElement(1, 2, 0, 1)
B = MoebiusElement(1, 0, 2, 1)

BASE = HPoint(0.0, 1.0)

# defect of the flow-time approximation is globally confined to this
# window in the plane; the worst case sits at equal heights with the
# horizontal gap equal to the height
DEFECT_SUP = math.acosh(1.5)


def approx_defect(x: HPoint, y: HPoint) -> float:
    """Signed defect d(x,y) - (2 t_xi + |busemann|) of the flow-time
    approximation; the oracle bounds its absolute value empirically."""
    b = busemann_inf(x, y)
    return h2_distance(x, y) - (2.0 * t_xi(x, y) + abs(b))


def hpoints(im_lo: float = math.exp(-5.0), im_hi: float = math.exp(5.0)):
    return st.builds(HPoint,
                     st.floats(-50.0, 50.0),
                     st.floats(im_lo, im_hi))


@lru_cache(maxsize=None)
def _table() -> CountTable:
    return coset_counts(12.0, 2.0)


@lru_cache(maxsize=None)
def _prop28(gauge: float):
    return verify_prop28(12.0, gauge)


@lru_cache(maxsize=None)
def _lemmas():
    return verify_lemmas(2000, 20250817)


@pytest.fixture(scope="module")
def oracle_text(tmp_path_factory):
    """oracle.txt of one `oracle-verify --Rcap 12`: cli renders the
    sections from this module's records."""
    out = tmp_path_factory.mktemp("oracle") / "out"
    assert cli.main(["oracle-verify", "--Rcap", "12", "--out", str(out)]) == 0
    return (out / "oracle.txt").read_text()


def _section(report: str, title: str) -> list[str]:
    """The lines of the section '== title ==' of a report."""
    body = report.split(f"== {title} ==\n", 1)[1]
    return body.split("\n\n", 1)[0].split("\n")


class TestMoebiusElement:
    def test_identity(self):
        assert I2.as_tuple() == (1, 0, 0, 1)
        assert I2.displacement() == 0.0

    def test_canonical_sign(self):
        assert MoebiusElement(-1, 0, 0, -1) == I2
        assert MoebiusElement(-1, -2, 0, -1).as_tuple() == (1, 2, 0, 1)

    def test_rejects_bad_determinant(self):
        with pytest.raises(DomainError):
            MoebiusElement(1, 2, 2, 3)

    def test_rejects_congruence_violations(self):
        with pytest.raises(DomainError):
            MoebiusElement(1, 1, 0, 1)
        with pytest.raises(DomainError):
            MoebiusElement(2, 1, 1, 1)

    def test_rejects_float_entries(self):
        with pytest.raises(DomainError):
            MoebiusElement(1.0, 0, 0, 1.0)

    def test_accepts_numpy_integers(self):
        g = MoebiusElement(np.int64(1), np.int64(2), np.int64(0), np.int64(1))
        assert g == A

    def test_mul_and_inverse(self):
        assert (A @ A.inverse()) == I2
        assert (A @ B).as_tuple() == (5, 2, 2, 1)
        ab = A @ B
        assert (ab.inverse() @ ab) == I2

    def test_frozen(self):
        with pytest.raises(Exception):
            A.a = 3

    def test_usable_in_sets(self):
        assert len({A, A, B, I2}) == 3

    def test_generator_displacements(self):
        assert A.displacement() == pytest.approx(math.acosh(3.0), abs=1e-12)
        assert (A @ A).displacement() == pytest.approx(
            math.acosh(9.0), abs=1e-12)
        assert (A @ B).displacement() == pytest.approx(
            math.acosh(17.0), abs=1e-12)

    def test_weighted_displacement_matches_direct_distance(self):
        for g in enumerate_group(6.0)[::17]:
            for h in (0.0, 0.7, 2.0):
                direct = h2_distance(BASE, apply(g, HPoint(0.0, math.exp(h))))
                assert g.displacement(h) == pytest.approx(direct, abs=1e-12)


class TestDistances:
    def test_vertical_segment(self):
        assert h2_distance(BASE, HPoint(0.0, 2.0)) == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_unit_horizontal_step(self):
        assert h2_distance(BASE, HPoint(1.0, 1.0)) == pytest.approx(
            math.acosh(1.5), abs=1e-12)

    def test_rejects_boundary_points(self):
        with pytest.raises(DomainError):
            HPoint(0.0, 0.0)
        with pytest.raises(DomainError):
            HPoint(1.0, -2.0)

    @settings(deadline=None, max_examples=60)
    @given(hpoints(), hpoints())
    def test_symmetry(self, x, y):
        assert h2_distance(x, y) == pytest.approx(h2_distance(y, x),
                                                  abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(hpoints(), hpoints(), hpoints())
    def test_triangle_inequality(self, x, y, z):
        assert h2_distance(x, y) <= (h2_distance(x, z) + h2_distance(z, y)
                                     + 1e-9)

    @settings(deadline=None, max_examples=60)
    @given(hpoints(), hpoints())
    def test_isometry_invariance(self, x, y):
        d = h2_distance(x, y)
        for g in (A, B, A @ B):
            assert h2_distance(apply(g, x), apply(g, y)) == pytest.approx(
                d, abs=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(hpoints(), hpoints(), hpoints())
    def test_busemann_cocycle(self, x, y, z):
        total = busemann_inf(x, y) + busemann_inf(y, z)
        assert total == pytest.approx(busemann_inf(x, z), abs=1e-12)

    def test_busemann_antisymmetry(self):
        x, y = HPoint(3.0, 0.5), HPoint(-1.0, 7.0)
        assert busemann_inf(x, y) == pytest.approx(-busemann_inf(y, x),
                                                   abs=1e-12)
        assert busemann_inf(x, y) == pytest.approx(math.log(14.0), abs=1e-12)


class TestFlowTime:
    def test_worked_example(self):
        x, y = BASE, HPoint(5.0, 1.0)
        assert t_xi(x, y) == pytest.approx(math.log(5.0), abs=1e-12)
        want = math.acosh(13.5) - 2.0 * math.log(5.0)
        assert approx_defect(x, y) == pytest.approx(want, abs=1e-12)
        assert abs(want) < 0.08

    def test_aligned_points_need_no_flow(self):
        assert t_xi(BASE, HPoint(0.0, 9.0)) == 0.0
        assert t_xi(HPoint(0.3, 2.0), HPoint(0.5, 1.0)) == 0.0

    @settings(deadline=None, max_examples=80)
    @given(hpoints(), hpoints(), st.floats(0.01, 100.0))
    def test_scaling_invariance(self, x, y, lam):
        sx = HPoint(lam * x.re, lam * x.im)
        sy = HPoint(lam * y.re, lam * y.im)
        assert t_xi(sx, sy) == pytest.approx(t_xi(x, y), abs=1e-9)
        assert approx_defect(sx, sy) == pytest.approx(approx_defect(x, y),
                                                      abs=1e-9)

    @settings(deadline=None, max_examples=120)
    @given(hpoints(), hpoints())
    def test_defect_window(self, x, y):
        defect = approx_defect(x, y)
        assert -1e-9 <= defect <= DEFECT_SUP + 1e-9


# Retired allowance formulas: the thin-triangle allowance at apex angle
# theta, and the horoball allowance at gap d (the first at the angle
# complementary to arctan(1/sinh d), plus the first at a right angle).
def _ref_eps_theta(theta: float) -> float:
    spread = 1.0 - math.cos(theta)
    return math.inf if spread <= 0.0 else math.log(2.0 / spread)


def _ref_eps1_bound(d: float) -> float:
    theta = math.pi / 2.0 - math.atan(1.0 / math.sinh(d))
    return _ref_eps_theta(theta) + _ref_eps_theta(math.pi / 2.0)


def _allowance(a: float, b: float, c: float) -> float:
    return float(h2_oracle._triangle_allowance(
        np.array([a]), np.array([b]), np.array([c]))[0])


class TestGeometryConstants:
    """The closed-form lemma allowances of curvature -1."""

    def test_right_angle_allowance(self):
        # hyperbolic Pythagoras: cosh c = cosh a cosh b at a right angle
        for a, b in [(1.0, 1.0), (0.1, 3.0), (2.5, 0.7), (8.0, 9.0)]:
            c = math.acosh(math.cosh(a) * math.cosh(b))
            assert _allowance(a, b, c) == pytest.approx(math.log(2.0),
                                                        abs=1e-12)

    def test_monotone_in_angle(self):
        # the angle at the apex grows with the opposite side c
        a, b = 1.3, 2.1
        cs = np.linspace(b - a, a + b, 41)
        with np.errstate(all="raise"):
            got = h2_oracle._triangle_allowance(
                np.full_like(cs, a), np.full_like(cs, b), cs)
        assert got[0] == math.inf
        assert np.all(np.diff(got[1:]) < 0.0)
        # a straight apex: no excess and no allowance
        assert got[-1] == pytest.approx(0.0, abs=1e-12)
        assert _allowance(a, b, a + b - 1e-9) == pytest.approx(0.0, abs=1e-8)
        # a vanishing angle, and clipped s - a or s - b
        assert _allowance(a, b, b - a - 1e-12) == math.inf
        assert _allowance(b, a, b - a - 1e-12) == math.inf

    def test_zero_side_is_infinite(self):
        with np.errstate(all="raise"):
            assert _allowance(0.0, 2.0, 2.0) == math.inf
            assert _allowance(2.0, 0.0, 2.0) == math.inf
            assert _allowance(0.0, 0.0, 0.0) == math.inf

    def test_matches_the_angle_formula_on_random_triangles(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(0.01, 20.0, (2, 2000))
        theta = rng.uniform(1e-3, math.pi - 1e-3, 2000)
        # hyperbolic law of cosines for the side opposite theta
        c = np.arccosh(np.cosh(a) * np.cosh(b)
                       - np.sinh(a) * np.sinh(b) * np.cos(theta))
        got = h2_oracle._triangle_allowance(a, b, c)
        want = [_ref_eps_theta(t) for t in theta.tolist()]
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_horoball_allowance(self):
        d = np.linspace(0.2, 6.0, 581)
        got = h2_oracle._horoball_allowance(d)
        want = np.array([_ref_eps1_bound(x) for x in d.tolist()])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(got) < 0.0) and got[-1] > math.log(4.0)


class TestEnumeration:
    def test_tiny_balls(self):
        assert [g.as_tuple() for g in enumerate_group(1.0)] == [(1, 0, 0, 1)]
        got = enumerate_group(2.0)
        assert [g.as_tuple() for g in got] == [
            (1, 0, 0, 1), (1, -2, 0, 1), (1, 0, -2, 1),
            (1, 0, 2, 1), (1, 2, 0, 1)]

    def test_ball_counts_match_independent_walk(self):
        walk = _walk(4.0)
        assert sum(1 for g in walk if g.displacement() < 4.0) == 25
        assert len(enumerate_group(4.0)) == 25

    def test_walk_is_subset_of_enumeration(self):
        enum6 = {g.as_tuple() for g in enumerate_group(6.0)}
        missing = [g for g in _walk(6.0)
                   if g.displacement() <= 6.0 and g.as_tuple() not in enum6]
        assert missing == []

    def test_sorted_unique_canonical(self):
        elems = enumerate_group(6.0)
        disps = [g.displacement() for g in elems]
        assert disps == sorted(disps)
        assert len({g.as_tuple() for g in elems}) == len(elems)
        assert all(g.a > 0 for g in elems)

    def test_entry_bound(self):
        cap = math.sqrt(2.0 * math.cosh(6.0))
        for g in enumerate_group(6.0):
            assert max(abs(e) for e in g.as_tuple()) <= cap

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            enumerate_group(R_CAP + 0.5)
        assert len(enumerate_group(3.0)) > 5

    def test_weighted_enumeration_tracks_moved_base_point(self):
        # with the base point at height e^2 the cheap elements are the
        # translations; the off-diagonal generators drop out of the ball
        elems = enumerate_group(2.5, h=2.0)
        tuples = {g.as_tuple() for g in elems}
        assert tuples == {(1, 0, 0, 1), (1, 2, 0, 1), (1, -2, 0, 1),
                          (1, 4, 0, 1), (1, -4, 0, 1)}
        assert (1, 0, 2, 1) in {g.as_tuple() for g in enumerate_group(2.5)}
        for g in elems:
            assert g.displacement(2.0) <= 2.5 + 1e-12

    def test_bfs_trivial_cases(self):
        # the generators' entry norm 6 exceeds twice the ball's bound 2
        assert _walk(0.0) == {I2}


def _walk(radius: float) -> set[MoebiusElement]:
    """Breadth-first walk of the two parabolic generators and their
    inverses, pruned at twice the entry norm bound of the ball of the
    given radius: along reduced words the entry norm is monotone, so the
    slack-2 prune loses no element of that ball."""
    prune = 2.0 * (2.0 * math.cosh(radius))
    gens = [A, A.inverse(), B, B.inverse()]
    seen = {I2}
    frontier = deque(seen)
    while frontier:
        g = frontier.popleft()
        for s in gens:
            nxt = g @ s
            if nxt.sq_sum <= prune and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class TestCosetCounts:
    def test_frozen_table(self):
        tab = _table()
        rows = np.column_stack([tab.v_group, tab.v_group_annulus,
                                tab.v_cosets, tab.v_double])
        assert tab.radii.tolist() == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
        assert rows.tolist() == [
            [5, 12, 3, 2],
            [25, 60, 13, 8],
            [221, 460, 111, 60],
            [1473, 3504, 737, 364],
            [11069, 26084, 5535, 2752],
            [81361, 191404, 40681, 20252],
        ]

    def test_left_and_right_cosets_agree(self):
        # inversion swaps the two coset families and preserves the norm,
        # so the one coset count is each family's: P g keeps the bottom
        # row (c, d) of g up to sign, g P its first column (a, c)
        tab = coset_counts(8.0, 2.0)
        minima = {"left": {}, "right": {}}
        for g in enumerate_group(8.0):
            flip = g.c < 0 or (g.c == 0 and g.d < 0)
            for side, key in (("left", (-g.c, -g.d) if flip else (g.c, g.d)),
                              ("right", (g.a, g.c))):
                minima[side][key] = min(g.displacement(),
                                        minima[side].get(key, math.inf))
        for side, found in minima.items():
            norms = np.sort(np.fromiter(found.values(), dtype=float))
            assert np.array_equal(np.searchsorted(norms, tab.radii, "left"),
                                  tab.v_cosets), side

    def test_monotone_and_nested(self):
        tab = _table()
        for col in (tab.v_group, tab.v_cosets, tab.v_double):
            assert np.all(np.diff(col) >= 0)
        assert np.all(tab.v_double <= tab.v_cosets)
        assert np.all(tab.v_cosets <= tab.v_group)

    def test_halving_structure(self):
        # every nontrivial coset picks up minimizing elements in pairs
        tab = _table()
        assert np.array_equal(2 * tab.v_cosets, tab.v_group + 1)

    def test_coset_norm_inversion_symmetry(self):
        # |gP| computed by direct translation minimization equals |Pg^-1|
        for g in (B, A @ B, B @ A @ B):
            right_min = min((g @ _pow(A, n)).displacement()
                            for n in range(-30, 31))
            inv_left = min((_pow(A, n) @ g.inverse()).displacement()
                           for n in range(-30, 31))
            assert right_min == pytest.approx(inv_left, abs=1e-12)
            assert right_min <= g.displacement() + 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            coset_counts(8.0, 0.0)
        with pytest.raises(EnumerationCapError):
            coset_counts(R_CAP + 1.0, 1.0)
        with pytest.raises(DomainError, match="no gauge multiple"):
            coset_counts(9.0, 11.0)


def _pow(g: MoebiusElement, n: int) -> MoebiusElement:
    out = MoebiusElement.identity()
    step = g if n >= 0 else g.inverse()
    for _ in range(abs(n)):
        out = out @ step
    return out


class TestLemmas:
    def test_sweep_passes(self):
        rep = _lemmas()
        assert rep.passed
        assert rep.triangle_violations == 0
        assert rep.horoball_violations == 0

    def test_defect_statistics(self):
        rep = _lemmas()
        assert 0.0 < rep.approx_eps0 <= DEFECT_SUP + 1e-9
        assert rep.approx_window_growth <= 0.1

    def test_horoball_path_never_undershoots(self):
        rep = _lemmas()
        assert rep.horoball_min_defect >= -1e-9
        assert rep.eps1_fitted > 0.0

    def test_deterministic_under_seed(self):
        again = verify_lemmas(2000, 20250817)
        rep = _lemmas()
        assert again.approx_eps0 == rep.approx_eps0
        assert again.triangle_max_defect == rep.triangle_max_defect
        assert again.eps1_fitted == rep.eps1_fitted

    def test_seed_matters(self):
        other = verify_lemmas(500, 7)
        assert other.approx_eps0 != _lemmas().approx_eps0

    def test_sample_count_validation(self):
        with pytest.raises(DomainError):
            verify_lemmas(0, 1)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 7,
                                      10 ** 300])
    def test_counter_draws_match_python_splitmix(self, seed):
        # the numpy generator, uint64 products wrapping, against SplitMix64
        # in Python integers; seeds past 2^64 fold in 64 bits at a time
        mask = (1 << 64) - 1

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        words = [(seed >> s) & mask for s in range(0, max(seed.bit_length(), 1), 64)]
        key = len(words)
        for word in words:
            key = mix(((key ^ word) + 0x9E3779B97F4A7C15) & mask)
        want = [(mix((key + i * 0x9E3779B97F4A7C15) & mask) >> 11) * 2.0 ** -53
                for i in range(1, 3001)]
        rng = h2_oracle._CounterUniforms(seed)
        got = [rng.uniform(0.0, 1.0)] + rng.uniform(0.0, 1.0, (333, 3)).ravel().tolist()
        got += rng.uniform(np.zeros(2), np.ones(2), (1000, 2)).ravel().tolist()
        assert got == want
        assert 0.47 < np.mean(got) < 0.53

    def test_seeds_past_64_bits_differ(self):
        reports = [verify_lemmas(500, seed) for seed in (7, 2 ** 64 + 7, 2 ** 128 + 7)]
        assert all(rep.passed for rep in reports)
        assert len({rep.approx_eps0 for rep in reports}) == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            verify_lemmas(10, -1)

    def test_summary_text(self, oracle_text):
        lemmas = _section(oracle_text, "geometric lemmas")
        assert lemmas[3].startswith("horoball additivity: 10000 checked, ")
        assert lemmas[-1] == "verdict: PASS"


class TestProp28:
    def test_gauge_one(self):
        rep = _prop28(1.0)
        assert rep.passed
        assert rep.right_left_in_group and rep.right_double_in_group
        assert rep.shift_cosets_lower == 0.0
        assert rep.shift_double_lower == 0.75

    def test_gauge_two(self):
        rep = _prop28(2.0)
        assert rep.passed
        assert rep.shift_cosets_lower == 0.0
        assert rep.shift_double_lower == 1.75

    def test_two_phase_split(self):
        rep = _prop28(1.0)
        assert rep.fit_max == 6.0
        assert rep.n_fit == rep.n_assert == 24

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_prop28(8.0, -1.0)
        with pytest.raises(EnumerationCapError):
            verify_prop28(R_CAP + 1.0, 1.0)
        # r is within R_CAP, but the ball it reads is not
        assert prop28_radius(R_CAP, 2.0) > BALL_CAP
        with pytest.raises(EnumerationCapError):
            verify_prop28(R_CAP, 2.0)


class TestDelta:
    def test_point_estimate(self):
        rep = estimate_delta()
        assert rep.estimate == pytest.approx(0.9090215730743529, abs=1e-9)
        assert 0.85 <= rep.estimate <= 1.15
        assert rep.est.converged_plus
        assert rep.n_elements == 81361

    def test_summary(self, oracle_text):
        assert _section(oracle_text, "critical exponent")[0].startswith(
            "critical exponent 0.9090 (outer window ")

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            estimate_delta(r_cap=R_CAP + 2.0)

    @pytest.mark.parametrize("r_cap", [
        0.0, 5.0, 8.0, math.nextafter(h2_oracle._DELTA_FLOOR, 0.0)])
    def test_below_the_floor(self, monkeypatch, r_cap):
        def no_ball(r, h, starts):
            raise AssertionError("a ball was built below the floor")

        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        monkeypatch.setattr(h2_oracle, "_walk", no_ball)
        floor = h2_oracle._DELTA_FLOOR
        assert floor == 996 / 121
        with pytest.raises(DomainError) as err:
            estimate_delta(r_cap=r_cap)
        assert f"r_cap {r_cap!r}" in str(err.value)
        assert f"floor {floor!r}" in str(err.value)


class TestCountingBand:
    def test_two_phase_band_membership(self):
        rep = verify_counting()
        assert rep.passed
        assert rep.log_constant == pytest.approx(1.7056259944375791,
                                                 abs=1e-6)
        assert rep.max_assert_deviation <= rep.log_constant
        assert rep.max_center_drift < 0.15


# calls whose radius or gauge no count can read
_BAD_ENTRIES = {
    "enumerate_group-nan": lambda: enumerate_group(math.nan),
    "enumerate_group-inf": lambda: enumerate_group(math.inf),
    "enumerate_group--inf": lambda: enumerate_group(-math.inf),
    # 2 cosh(r) is even in r: this read the radius-3 ball
    "enumerate_group--3": lambda: enumerate_group(-3.0),
    "estimate_delta-nan": lambda: estimate_delta(r_cap=math.nan),
    "coset_counts-r-nan": lambda: coset_counts(math.nan, 1.0),
    "coset_counts-gauge-nan": lambda: coset_counts(12.0, math.nan),
    "coset_counts-gauge-inf": lambda: coset_counts(12.0, math.inf),
    "verify_prop28-r-nan": lambda: verify_prop28(math.nan, 1.0),
    "verify_prop28-r--inf": lambda: verify_prop28(-math.inf, 1.0),
    "verify_prop28-gauge-nan": lambda: verify_prop28(12.0, math.nan),
    "verify_prop28-gauge-inf": lambda: verify_prop28(12.0, math.inf),
    # fewer than two quarter-unit rows: no fit row or no assert row
    **{f"verify_prop28-r-{r}": (lambda r=r: verify_prop28(r, 1.0))
       for r in (-1.0, 0.0, 0.25, 0.49)},
}


class TestEntryChecks:
    """A radius or gauge that no count can read is a DomainError, not a
    bare ValueError from numpy or a vacuous pass."""

    @pytest.mark.parametrize("case", list(_BAD_ENTRIES))
    def test_rejected(self, case):
        with pytest.raises(DomainError):
            _BAD_ENTRIES[case]()

    def test_smallest_checked_radius(self):
        rep = verify_prop28(0.5, 1.0)
        assert (rep.n_fit, rep.n_assert) == (1, 1)


# Each consumer at a radius of its own, so that a fresh ball is built at
# exactly the radius it requests.  The warm balls are larger than every
# request; the small ones are smaller, so each request must grow them.
# 996/121 is the smallest --Rcap the command line accepts.
_BALL_CASES = {
    **{f"coset_counts-{g}": (lambda g=g: coset_counts(11.0, g))
       for g in (0.5, 1.0, 2.0)},
    **{f"verify_prop28-{g}": (lambda g=g: verify_prop28(11.0, g))
       for g in (0.5, 1.0, 2.0)},
    "estimate_delta-12": lambda: estimate_delta(r_cap=12.0),
    "estimate_delta-floor": lambda: estimate_delta(r_cap=996 / 121),
    "verify_counting-depth2": lambda: verify_counting(),
}
_PREBUILT = {"warm": {0.0: 13.5, 2.0: 13.0}, "small": {0.0: 10.5, 2.0: 11.5}}


@pytest.fixture(scope="module")
def ball_runs():
    """Results with a fresh ball per call, and after each prebuilt set,
    with the balls held at the end of each run."""
    runs = {"fresh": {}}
    for case, call in _BALL_CASES.items():
        h2_oracle._BALLS.clear()
        runs["fresh"][case] = call()
    held = {}
    for name, balls in _PREBUILT.items():
        h2_oracle._BALLS.clear()
        for h, r in balls.items():
            h2_oracle._sorted_norms(r, h)
        runs[name] = {case: call() for case, call in _BALL_CASES.items()}
        held[name] = dict(h2_oracle._BALLS)
    h2_oracle._BALLS.clear()
    return runs, held


class TestSharedBall:
    """Counts read from a larger cached ball equal those from a ball built
    at exactly the requested radius."""

    @pytest.mark.parametrize("prebuilt", list(_PREBUILT))
    @pytest.mark.parametrize("case", list(_BALL_CASES))
    def test_same_result_as_a_fresh_ball(self, ball_runs, case, prebuilt):
        runs, _ = ball_runs
        a, b = runs["fresh"][case], runs[prebuilt][case]
        for field in a._fields:
            x, y = getattr(a, field), getattr(b, field)
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y), field
            else:
                assert x == y, field

    def test_largest_ball_is_kept(self, ball_runs):
        _, held = ball_runs
        radii = {name: {h: r for h, (r, _) in balls.items()}
                 for name, balls in held.items()}
        # the warm balls served every request; the small ones grew to the
        # largest request at each depth
        assert radii["warm"] == _PREBUILT["warm"]
        assert radii["small"] == {0.0: prop28_radius(11.0, 2.0), 2.0: 12.0}

    def test_cache_holds_only_sorted_float_arrays(self, ball_runs):
        _, held = ball_runs
        for balls in held.values():
            for h, (radius, norms) in balls.items():
                assert isinstance(radius, float)
                # cosets are counted at depth 0 only
                if h == 0.0:
                    assert set(norms) == {"group", "cosets", "double"}
                else:
                    assert set(norms) == {"group"}
                # the counted form: distinct sorted distances, and the
                # count below each one and in all
                for distinct, below in norms.values():
                    assert isinstance(distinct, np.ndarray)
                    assert distinct.dtype == float
                    assert below.dtype == np.int64
                    assert not distinct.flags.writeable
                    assert not below.flags.writeable
                    assert np.all(np.diff(distinct) > 0)
                    assert below.size == distinct.size + 1
                    assert below[0] == 0 and np.all(np.diff(below) > 0)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            h2_oracle._sorted_norms(math.nextafter(BALL_CAP, math.inf))


# -- reference ball build ----------------------------------------------------
# The scalar enumeration and dict group-by that the numpy ball build
# replaced, kept as the reference it must reproduce bit for bit.


def _ref_ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _ref_enumerate(r: float, h: float = 0.0) -> list[tuple[int, ...]]:
    s_cap = 2.0 * math.cosh(r)
    eh = math.exp(h)
    bound_ac = s_cap / eh
    out = []
    a_max = int(math.isqrt(int(bound_ac))) + 1
    for a in range(1, a_max + 1, 2):
        c_span = bound_ac - a * a
        if c_span < 0:
            break
        c_max = int(math.sqrt(c_span)) + 2
        c_max -= c_max % 2
        for c in range(-c_max, c_max + 2, 2):
            col = a * a + c * c
            if col * eh > s_cap:
                continue
            g, u, v = _ref_ext_gcd(a, c)
            if abs(g) != 1:
                continue
            d0, b0 = u * g, -v * g
            m_cap = (s_cap - col * eh) * eh
            qa = col
            qb = 2.0 * (a * b0 + c * d0)
            qc = b0 * b0 + d0 * d0 - m_cap
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0:
                continue
            root = math.sqrt(disc)
            k_lo = math.ceil((-qb - root) / (2.0 * qa) - 1e-9)
            k_hi = math.floor((-qb + root) / (2.0 * qa) + 1e-9)
            if (k_lo + b0) % 2 != 0:
                k_lo += 1
            for k in range(k_lo, k_hi + 1, 2):
                b = b0 + k * a
                d = d0 + k * c
                w = eh * col + (b * b + d * d) / eh
                if w <= s_cap * (1.0 + 1e-12):
                    out.append((a, b, c, d))
    return out


def _ref_sorted_norms(r: float, h: float = 0.0) -> dict[str, np.ndarray]:
    raw = _ref_enumerate(r, h)
    if h == 0.0:
        disp = [math.acosh(max(1.0, (a * a + b * b + c * c + d * d) / 2.0))
                for a, b, c, d in raw]
    else:
        up, down = math.exp(h), math.exp(-h)
        disp = [math.acosh(max(1.0, (up * (a * a + c * c)
                                     + down * (b * b + d * d)) / 2.0))
                for a, b, c, d in raw]
    left, right, double = {}, {}, {}
    for (a, b, c, d), w in zip(raw, disp):
        rk = (c, d) if (c > 0 or (c == 0 and d > 0)) else (-c, -d)
        left[rk] = min(w, left.get(rk, math.inf))
        right[(a, c)] = min(w, right.get((a, c), math.inf))
        if c != 0:
            aa, dd = (a, d) if c > 0 else (-a, -d)
            dk = (abs(c), aa % (2 * abs(c)), dd % (2 * abs(c)))
            double[dk] = min(w, double.get(dk, math.inf))
    return {
        "group": np.sort(disp),
        "left": np.sort(np.fromiter(left.values(), dtype=float)),
        "right": np.sort(np.fromiter(right.values(), dtype=float)),
        "double": np.sort(np.fromiter(double.values(), dtype=float)),
    }


def _ref_enumerate_group(r: float, h: float = 0.0) -> list[MoebiusElement]:
    elems = [MoebiusElement(*t) for t in _ref_enumerate(r, h)]
    elems.sort(key=lambda g: (g.weighted_sum(h),) + g.as_tuple())
    return elems


def _expand(norms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The sorted array of all counted distances of a counted form."""
    distinct, below = norms
    return np.repeat(distinct, np.diff(below))


def _compact(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The counted form of a sorted array."""
    distinct, counts = np.unique(arr, return_counts=True)
    return distinct, np.r_[0, np.cumsum(counts)]


class TestBallAgainstReference:
    """The numpy ball build reproduces the scalar reference exactly."""

    @pytest.mark.parametrize("h", [0.0, 2.0])
    @pytest.mark.parametrize("r", [6.0, 9.0, 12.0])
    def test_sorted_norms_bit_identical(self, monkeypatch, r, h):
        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        got = h2_oracle._sorted_norms(r, h)
        want = _ref_sorted_norms(r, h)
        # the depth-2 ball holds the group array only; the reference
        # groups left and right cosets apart, and each is the one count
        assert set(got) == ({"group", "cosets", "double"} if h == 0.0
                            else {"group"})
        for name, ref in (("group", "group"), ("cosets", "left"),
                          ("cosets", "right"), ("double", "double")):
            if name in got:
                assert _expand(got[name]).tobytes() == want[ref].tobytes(), ref

    @pytest.mark.parametrize("r, h", [(6.0, 0.0), (2.5, 2.0)])
    def test_enumerate_group_same_list(self, r, h):
        assert enumerate_group(r, h=h) == _ref_enumerate_group(r, h)

    def test_radius_cap_ball_sizes(self, monkeypatch):
        # frozen from the reference at the largest ball any count reads
        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        norms = h2_oracle._sorted_norms(BALL_CAP)
        sizes = {name: int(below[-1]) for name, (_, below) in norms.items()}
        assert sizes == {"group": 991_417, "cosets": 495_709,
                         "double": 247_938}

    def test_ball_build_frees_its_batches(self, monkeypatch):
        # the walked batches are freed once concatenated: the ball that
        # oracle-verify --Rcap 14 reads peaked at 7.71 MB of traced memory
        # while they lived through the sort and the tallies
        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        tracemalloc.start()
        try:
            h2_oracle._sorted_norms(h2_oracle.prop28_radius(14.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7_550_000

    def test_counted_form_counts_like_the_sorted_array(self):
        # sums that round to one distance, sums counted once, repeats
        big = 2.0 * math.cosh(14.0)
        sums = np.array([2.0, 6.0, 6.0, 10.0, big, math.nextafter(big, 0.0),
                         math.nextafter(big, math.inf), 18.0, 2.0 * big])
        once = sums[[0, 3, 5]]
        distinct, below = _counted(sums, once)
        want = np.sort(np.r_[sums, np.delete(sums, [0, 3, 5])])
        want = np.array([math.acosh(max(1.0, s / 2.0)) for s in want.tolist()])
        assert distinct.size < np.unique(sums).size
        assert np.all(np.diff(distinct) > 0)
        assert _expand((distinct, below)).tobytes() == want.tobytes()
        x = np.r_[want, np.linspace(-1.0, 20.0, 97), math.inf]
        assert np.array_equal(h2_oracle._ball((distinct, below), x),
                              np.searchsorted(want, x, side="left"))
        empty = _counted(sums[:0], once[:0])
        assert empty[0].size == 0 and empty[1].tolist() == [0]

    def test_one_acosh_pass_for_the_group_and_its_cosets(self, monkeypatch):
        # at h = 0 the group and the one-sided cosets count the same walked
        # sums, and the double cosets' sums are some of them: one pass
        # maps them all
        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        passes = []
        distinct = h2_oracle._distinct

        def counted(sums):
            passes.append(sums.size)
            return distinct(sums)

        monkeypatch.setattr(h2_oracle, "_distinct", counted)
        norms = h2_oracle._sorted_norms(9.0)
        assert len(passes) == 1
        assert norms["group"][0] is norms["cosets"][0]


# -- reference full-disk ball -------------------------------------------------
# The enumeration over both signs of c that the half-disk enumeration and
# its mirror weights replaced, with its int64 Euclid, and the ball of raw
# sorted distance arrays built from it, kept as the reference.


def _ref_euclid(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise extended Euclid on int64 arrays, a > 0, c >= 0: g =
    gcd(a, c) and the v of a*u + c*v = g (u = (g - c*v) / a is exact, so
    untracked)."""
    old_r, r = a.copy(), c.copy()
    old_v, v = np.zeros_like(a), np.ones_like(a)
    live = np.flatnonzero(r)
    while live.size:
        r_l, v_l = r[live], v[live]
        q = old_r[live] // r_l
        old_r[live], r[live] = r_l, old_r[live] - q * r_l
        old_v[live], v[live] = v_l, old_v[live] - q * v_l
        live = live[r[live] != 0]
    return old_r, old_v


def _ref_columns(s_cap: float, eh: float) -> tuple[np.ndarray, ...]:
    """The nonempty columns (a, c) of the elements with weighted entry sum
    at most s_cap: a > 0 odd, c even and coprime to a, in the trace bound.
    Each admits a one-parameter family (b, d) = (b0 + ka, d0 + kc) whose
    norm is quadratic in k, so the k window is solved in closed form; the
    congruence forces k to one parity class.  Returns a, c, b0, d0, the
    first k and the number of k values, one entry per column: the c >= 0
    columns a then c ascending, then their c < 0 mirrors."""
    bound_ac = s_cap / eh
    a_max = int(math.isqrt(int(bound_ac))) + 1
    a = np.arange(1, a_max + 1, 2, dtype=np.int64)
    c_span = bound_ac - a * a
    a, c_span = a[c_span >= 0], c_span[c_span >= 0]
    c_max = np.sqrt(c_span).astype(np.int64) + 2
    # c runs over 0, 2, ..., c_max for each a
    run, step = h2_oracle._ragged_offsets(c_max // 2 + 1)
    a, c = a[run], 2 * step
    col = a * a + c * c
    keep = col * eh <= s_cap
    a, c, col = a[keep], c[keep], col[keep]
    g, v = _ref_euclid(a, c)
    coprime = g == 1
    a, c, col, v = a[coprime], c[coprime], col[coprime], v[coprime]
    # a*d0 - c*b0 = 1 from a*u + c*v = 1
    b0, d0 = -v, (1 - c * v) // a
    # (b0+ka)^2 + (d0+kc)^2 <= (s_cap - col*eh) / e^{-h}
    m_cap = (s_cap - col * eh) * eh
    qb = 2.0 * (a * b0 + c * d0)
    qc = b0 * b0 + d0 * d0 - m_cap
    disc = qb * qb - 4.0 * col * qc
    root = np.sqrt(np.maximum(disc, 0.0))
    k_lo = np.ceil((-qb - root) / (2.0 * col) - 1e-9).astype(np.int64)
    k_hi = np.floor((-qb + root) / (2.0 * col) + 1e-9).astype(np.int64)
    k_lo += (k_lo + b0) % 2
    count = np.where(disc >= 0, np.maximum((k_hi - k_lo) // 2 + 1, 0), 0)
    # conjugation by diag(1, -1) keeps every weighted sum and maps column
    # (a, c) to (a, -c) with (-b0, d0): element (a, b, c, d) at k goes to
    # (a, -b, -c, d) at -k, so the mirror's window is the negated one
    full = count > 0
    mirror = full & (c > 0)
    k_last = k_lo + 2 * (count - 1)
    return tuple(np.concatenate((x[full], y[mirror])) for x, y in (
        (a, a), (c, -c), (b0, -b0), (d0, d0), (k_lo, -k_last), (count, count)))


def _ref_disk_enumerate(r: float, h: float = 0.0) -> tuple[np.ndarray, ...]:
    """All canonical group elements with weighted displacement <= r, as
    int64 entry arrays (a, b, c, d), column by column (see _ref_columns)
    and by k within a column, and the number kept from each column.  The
    squares stay exact: they overflow only past entries of 3e9, and a ball
    with such an entry also holds the unipotent elements up to it, over a
    billion of them."""
    s_cap = 2.0 * math.cosh(r)
    eh = math.exp(h)
    a, c, b0, d0, k_lo, count = _ref_columns(s_cap, eh)
    run, step = h2_oracle._ragged_offsets(count)
    k = k_lo[run] + 2 * step
    a, c = a[run], c[run]
    b = b0[run] + k * a
    d = d0[run] + k * c
    # the ball is the run's peak memory: drop the expansion indices first
    del run, step, k
    keep = eh * (a * a + c * c) + (b * b + d * d) / eh <= s_cap * (1.0 + 1e-12)
    kept = np.add.reduceat(keep, np.cumsum(count) - count)
    return a[keep], b[keep], c[keep], d[keep], kept


def _ref_distances(sums: np.ndarray) -> np.ndarray:
    """MoebiusElement.displacement of each sorted weighted sum, in the same
    float operations, taken once per distinct sum."""
    first = np.flatnonzero(np.diff(sums, prepend=-math.inf))
    half = np.maximum(sums[first] / 2.0, 1.0)
    dist = np.array([math.acosh(x) for x in half.tolist()])
    return np.repeat(dist, np.diff(np.r_[first, sums.size]))


def _ref_disk_norms(r: float) -> dict[str, np.ndarray]:
    """Sorted raw distance arrays of the group, its cosets (right and left
    alike) and its nontrivial double cosets, complete below radius r
    about i."""
    a, b, c, d, kept = _ref_disk_enumerate(r)
    s = h2_oracle._weighted_sums(a, b, c, d, 0.0)
    norms = {"group": _ref_distances(np.sort(s))}
    # right coset: one nonempty enumeration column
    starts = (np.cumsum(kept) - kept)[kept > 0]
    col_min = np.minimum.reduceat(s, starts)
    a, c, d = a[starts], c[starts], d[starts]
    norms["cosets"] = _ref_distances(np.sort(col_min))
    # double coset: residues of the diagonal modulo twice the lower left
    # entry, sign-normalized to c > 0
    off = c != 0
    sign = np.where(c[off] > 0, 1, -1)
    cc = np.abs(c[off])
    norms["double"] = _ref_distances(_ref_group_minima(
        col_min[off], cc, (sign * a[off]) % (2 * cc),
        (sign * d[off]) % (2 * cc)))
    return norms


# -- reference coset group-by and sandwich loops -----------------------------
# The per-element distances and the left-coset group-by over the row keys
# that the sum-based ball replaced, and the scalar verify_prop28 loops that
# the array comparisons replaced, kept as the references they must
# reproduce.


def _ref_group_minima(w: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Sorted minima of w over the classes of rows with equal integer
    keys: the keys are packed into one int64, the rows sorted by it, and
    each run reduced."""
    if w.size == 0:
        return w
    packed = np.zeros(w.size, dtype=np.int64)
    for key in keys:
        key = key - key.min()
        packed = packed * (int(key.max()) + 1) + key
    order = np.argsort(packed)
    packed = packed[order]
    starts = np.flatnonzero(np.r_[True, packed[1:] != packed[:-1]])
    return np.sort(np.minimum.reduceat(w[order], starts))


def _ref_one_sided_cosets(r: float) -> dict[str, np.ndarray]:
    a, b, c, d, _ = _ref_disk_enumerate(r)
    sums, where = np.unique(a * a + b * b + c * c + d * d,
                            return_inverse=True)
    disp = np.array([math.acosh(max(1.0, s / 2.0))
                     for s in sums.tolist()])[where]
    # left coset: invariant row (c, d) up to sign; right coset: invariant
    # column (a, c), a > 0 already canonical
    flip = (c < 0) | ((c == 0) & (d < 0))
    return {"left": _ref_group_minima(disp, np.where(flip, -c, c),
                                      np.where(flip, -d, d)),
            "right": _ref_group_minima(disp, a, c)}


def _ref_annulus(norms: np.ndarray, r, gauge: float):
    if gauge <= 0:
        return 0
    return (np.searchsorted(norms, r + gauge / 2.0, side="left")
            - np.searchsorted(norms, r - gauge / 2.0, side="left"))


def _ref_fit_lower_shift(norms_big, norms_small, prefactor, gauge, radii,
                         grid):
    # smallest shift s with prefactor * v^{gauge-s}_big <= v^gauge_small
    # on every radius; the left side shrinks as s grows, so scan upward
    for s in grid:
        ok = all(
            prefactor * _ref_annulus(norms_big, r, gauge - s)
            <= _ref_annulus(norms_small, r, gauge) + 1e-9
            for r in radii)
        if ok:
            return float(s)
    return None


def _ref_verify_prop28(r: float, gauge: float,
                       norms=None) -> h2_oracle.Prop28Report:
    if norms is None:
        norms = _ref_disk_norms(prop28_radius(r, gauge))
    radii = [float(x) for x in np.arange(0.25, r + 1e-12, 0.25)]
    fit_max = r / 2.0
    fit_radii = [x for x in radii if x <= fit_max]
    assert_radii = [x for x in radii if x > fit_max]

    right_left = all(
        _ref_annulus(norms["cosets"], x, gauge)
        <= _ref_annulus(norms["group"], x, gauge)
        for x in radii)
    right_double = all(
        _ref_annulus(norms["double"], x, gauge)
        <= _ref_annulus(norms["group"], x, gauge)
        for x in radii)

    shift_grid = np.arange(0.0, gauge + 2.0 + 1e-9, 0.25)
    fits = {}
    for name, prefactor in (("cosets", 0.5), ("double", 0.25)):
        fits[name] = _ref_fit_lower_shift(
            norms["group"], norms[name], prefactor, gauge, fit_radii,
            shift_grid)

    assert_ok = True
    for name, prefactor in (("cosets", 0.5), ("double", 0.25)):
        s = fits[name]
        if s is None:
            assert_ok = False
            continue
        for x in assert_radii:
            if (prefactor * _ref_annulus(norms["group"], x, gauge - s)
                    > _ref_annulus(norms[name], x, gauge) + 1e-9):
                assert_ok = False

    return h2_oracle.Prop28Report(
        gauge=gauge, r_max=r, fit_max=fit_max,
        n_fit=len(fit_radii), n_assert=len(assert_radii),
        right_left_in_group=right_left, right_double_in_group=right_double,
        shift_cosets_lower=fits["cosets"], shift_double_lower=fits["double"],
        assert_ok=assert_ok)


class TestCosetsAgainstReference:
    """The one coset count, and the array sandwiches, equal the left and
    right group-bys and the scalar loops they replace."""

    def test_left_group_by_equals_both_coset_arrays(self, monkeypatch):
        # the left and the right group-by each give the one coset array
        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        norms = h2_oracle._sorted_norms(BALL_CAP)
        for side, want in _ref_one_sided_cosets(BALL_CAP).items():
            assert want.size == 495_709, side
            assert np.array_equal(_expand(norms["cosets"]), want), side

    @pytest.mark.parametrize("gauge", [0.5, 1.0, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("r", [9.0, 12.0])
    def test_prop28_same_report(self, r, gauge):
        _assert_same_report(verify_prop28(r, gauge),
                            _ref_verify_prop28(r, gauge))

    @pytest.mark.parametrize("gauge", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_prop28_same_report_on_synthetic_balls(self, monkeypatch, seed,
                                                   gauge):
        # the lattice passes every sandwich with the same shifts; these
        # arrays also reach failed inclusions, failed assertions and other
        # shifts
        norms = _synthetic_ball(seed)
        counted = {name: _compact(arr) for name, arr in norms.items()}
        monkeypatch.setattr(h2_oracle, "_sorted_norms",
                            lambda r, h=0.0: counted)
        _assert_same_report(verify_prop28(12.0, gauge),
                            _ref_verify_prop28(12.0, gauge, norms))


def _assert_same_report(got, want) -> None:
    for field in want._fields:
        x, y = getattr(got, field), getattr(want, field)
        assert type(x) is type(y) and x == y, field


def _synthetic_ball(seed: int) -> dict[str, np.ndarray]:
    """Sorted arrays with density e^x on [0, 12.5], the cosets drawn
    apart from the group, so that every sandwich can fail somewhere."""
    rng = np.random.default_rng(seed)

    def draw(n: int) -> np.ndarray:
        return np.sort(np.log(rng.uniform(1.0, math.exp(12.5), n)))

    return {"group": draw(3000),
            "cosets": draw(int(rng.integers(900, 1800))),
            "double": draw(int(rng.integers(450, 900)))}


# -- retired half-disk ball build ---------------------------------------------
# The enumeration of the c >= 0 columns with its int32 Euclid, and the
# column-minimum and residue-key coset grouping, that the reduced-word
# walk replaced, kept verbatim as the reference it must reproduce.


def _euclid(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise extended Euclid, a > 0, c >= 0: g = gcd(a, c) and the v
    of a*u + c*v = g (u = (g - c*v) / a is exact, so untracked), as int64.
    It runs on int32 copies: every remainder is at most max(a, c) and
    every |v| at most a, and the entries stay far below 2^31 in any ball
    that fits in memory (see _enumerate)."""
    old_r, r = a.astype(np.int32), c.astype(np.int32)
    old_v, v = np.zeros_like(old_r), np.ones_like(old_r)
    live = np.flatnonzero(r)
    while live.size:
        r_l, v_l = r[live], v[live]
        q = old_r[live] // r_l
        old_r[live], r[live] = r_l, old_r[live] - q * r_l
        old_v[live], v[live] = v_l, old_v[live] - q * v_l
        live = live[r[live] != 0]
    return old_r.astype(np.int64), old_v.astype(np.int64)


def _columns(s_cap: float, eh: float) -> tuple[np.ndarray, ...]:
    """The nonempty columns (a, c), c >= 0, of the elements with weighted
    entry sum at most s_cap: a > 0 odd, c even and coprime to a, in the
    trace bound.  Each admits a one-parameter family (b, d) = (b0 + ka,
    d0 + kc) whose norm is quadratic in k, so the k window is solved in
    closed form; the congruence forces k to one parity class.  Returns a,
    c, b0, d0, the first k and the number of k values, one entry per
    column, a then c ascending."""
    bound_ac = s_cap / eh
    a_max = int(math.isqrt(int(bound_ac))) + 1
    a = np.arange(1, a_max + 1, 2, dtype=np.int64)
    c_span = bound_ac - a * a
    a, c_span = a[c_span >= 0], c_span[c_span >= 0]
    c_max = np.sqrt(c_span).astype(np.int64) + 2
    # c runs over 0, 2, ..., c_max for each a
    run, step = h2_oracle._ragged_offsets(c_max // 2 + 1)
    a, c = a[run], 2 * step
    col = a * a + c * c
    keep = col * eh <= s_cap
    a, c, col = a[keep], c[keep], col[keep]
    g, v = _euclid(a, c)
    coprime = g == 1
    a, c, col, v = a[coprime], c[coprime], col[coprime], v[coprime]
    # a*d0 - c*b0 = 1 from a*u + c*v = 1
    b0, d0 = -v, (1 - c * v) // a
    # (b0+ka)^2 + (d0+kc)^2 <= (s_cap - col*eh) / e^{-h}
    m_cap = (s_cap - col * eh) * eh
    qb = 2.0 * (a * b0 + c * d0)
    qc = b0 * b0 + d0 * d0 - m_cap
    disc = qb * qb - 4.0 * col * qc
    root = np.sqrt(np.maximum(disc, 0.0))
    k_lo = np.ceil((-qb - root) / (2.0 * col) - 1e-9).astype(np.int64)
    k_hi = np.floor((-qb + root) / (2.0 * col) + 1e-9).astype(np.int64)
    k_lo += (k_lo + b0) % 2
    count = np.where(disc >= 0, np.maximum((k_hi - k_lo) // 2 + 1, 0), 0)
    full = count > 0
    return tuple(x[full] for x in (a, c, b0, d0, k_lo, count))


def _enumerate(r: float, h: float = 0.0) -> tuple[np.ndarray, ...]:
    """The canonical group elements with c >= 0 and weighted displacement
    <= r, as int64 entry arrays (a, b, c, d), column by column (see
    _columns) and by k within a column, and the number kept from each
    column.  Conjugation by diag(1, -1) maps (a, b, c, d) to (a, -b, -c,
    d): it keeps a^2 + c^2 and b^2 + d^2, so every weighted sum at every
    depth, and fixes only the c = 0 column, so the ball is these elements
    and the mirrors of those with c > 0.  The squares stay exact: they
    overflow only past entries of 3e9, and a ball with such an entry also
    holds the unipotent elements up to it, over a billion of them."""
    s_cap = 2.0 * math.cosh(r)
    eh = math.exp(h)
    a, c, b0, d0, k_lo, count = _columns(s_cap, eh)
    run, step = h2_oracle._ragged_offsets(count)
    k = k_lo[run] + 2 * step
    a, c = a[run], c[run]
    b = b0[run] + k * a
    d = d0[run] + k * c
    # the ball is the run's peak memory: drop the expansion indices first
    del run, step, k
    keep = eh * (a * a + c * c) + (b * b + d * d) / eh <= s_cap * (1.0 + 1e-12)
    kept = np.add.reduceat(keep, np.cumsum(count) - count)
    return a[keep], b[keep], c[keep], d[keep], kept


def _group_minima(w: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Minima of w over the classes of rows with equal integer keys: the
    keys are packed into one int64, the rows sorted by it, and each run
    reduced."""
    if w.size == 0:
        return w
    packed = np.zeros(w.size, dtype=np.int64)
    for key in keys:
        key = key - key.min()
        packed = packed * (int(key.max()) + 1) + key
    order = np.argsort(packed)
    packed = packed[order]
    starts = np.flatnonzero(np.r_[True, packed[1:] != packed[:-1]])
    return np.minimum.reduceat(w[order], starts)


def _counted(sums: np.ndarray, once: np.ndarray,
             times: tuple[int, ...] = (2,)) -> tuple[np.ndarray, ...]:
    """The displacements of the weighted sums in counted form: distinct,
    the sorted distinct displacements, then for each multiplicity t in
    times the array below, the number of counted displacements under
    each one and, last, in all, where each sum counts t times, except
    those also in once, which count once.  On the sorted array arr of
    all counted displacements, searchsorted(arr, x, "left") equals
    below[searchsorted(distinct, x, "left")].  The displacements are
    taken once per distinct sum and shared by every multiplicity."""
    sums = np.sort(sums)
    first, dist = h2_oracle._distinct(sums)
    ones = np.searchsorted(np.sort(once), np.r_[sums[first], math.inf])
    return h2_oracle._tally(dist, np.r_[first, sums.size], ones, times)


def _half_disk_norms(r: float,
                     h: float = 0.0) -> dict[str, tuple[np.ndarray, ...]]:
    """The counted forms that _sorted_norms built from _enumerate."""
    a, b, c, d, kept = _enumerate(r, h)
    s = h2_oracle._weighted_sums(a, b, c, d, h)
    norms = {"group": _counted(s, s[c == 0])}
    if h == 0.0:
        # right coset: invariant column (a, c), a > 0 already canonical:
        # one nonempty enumeration column
        starts = (np.cumsum(kept) - kept)[kept > 0]
        col_min = np.minimum.reduceat(s, starts)
        a, c, d = a[starts], c[starts], d[starts]
        # left coset: inversion maps the ball onto itself, each left coset
        # onto a right coset and keeps the entry sum, so the two are equal
        norms["cosets"] = _counted(col_min, col_min[c == 0])
        # double coset: residues of the diagonal modulo twice the lower
        # left entry, sign-normalized to c > 0, so constant along a column;
        # translations on both sides are quotiented out and the parabolic
        # subgroup itself (c = 0) is excluded.  The mirror column (a, -c)
        # has key (c, -a mod 2c, -d mod 2c); a is odd and c even, so
        # exactly one key of each mirror pair has its second entry below
        # c; the pair's two cosets share their minimum, so it is grouped
        # under that key and counts twice
        off = c > 0
        a, c, d, col_min = a[off], c[off], d[off], col_min[off]
        span = 2 * c
        alpha, delta = a % span, d % span
        flip = alpha > c
        norms["double"] = _counted(_group_minima(
            col_min, c, np.where(flip, span - alpha, alpha),
            np.where(flip, -delta % span, delta)), np.empty(0))
    return norms


# radii and depths at which the walk reproduces the retired build byte for
# byte: every radius and depth the commands read, the ball cap, the
# smallest balls, and depths on either side of 0, where the chains run
# long at a base point off i
_WALK_CASES = [(14.5, 0.0), (13.0, 0.0), (12.0, 0.0), (9.0, 0.0), (6.0, 0.0),
               (1.0, 0.0), (0.0, 0.0), (12.0, 2.0), (10.0, 2.0), (6.0, 2.0),
               (2.5, 2.0), (14.0, 1.0), (11.0, -1.0), (14.5, 0.5),
               (12.0, -2.0)]


class TestColumns:
    """The retired half-disk build, and the walk against it."""

    def test_column_invariants_at_the_ball_cap(self):
        a, c, b0, d0, _, count = _ref_columns(2.0 * math.cosh(BALL_CAP), 1.0)
        # every column's base element has unit determinant, exactly
        assert np.all(a * d0 - c * b0 == 1)
        assert np.all(count > 0)
        # the column set is closed under c -> -c
        span = 2 * int(np.abs(c).max()) + 1
        assert np.array_equal(np.sort(a * span + c), np.sort(a * span - c))
        assert np.unique(a * span + c).size == a.size

    def test_euclid_is_exact_up_to_the_int32_range(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2 ** 31 - 1, 20000) | 1
        c = rng.integers(0, 2 ** 31 - 1, 20000) & ~1
        c[:100] = 0
        for got, want in zip(_euclid(a, c), _ref_euclid(a, c)):
            assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("r, h", [(BALL_CAP, 0.0), (12.0, 2.0),
                                      (2.5, 2.0), (0.0, 0.0)])
    def test_half_disk_is_the_reference_c_nonnegative_part(self, r, h):
        s_cap, eh = 2.0 * math.cosh(r), math.exp(h)
        got = _columns(s_cap, eh)
        want = _ref_columns(s_cap, eh)
        half = want[1] >= 0
        for x, y in zip(got, want):
            assert x.dtype == np.int64
            assert np.array_equal(x, y[half])

    @pytest.mark.parametrize("r, h", _WALK_CASES)
    def test_walk_reproduces_the_half_disk(self, monkeypatch, r, h):
        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        got = h2_oracle._sorted_norms(r, h)
        want = _half_disk_norms(r, h)
        assert set(got) == set(want)
        for name in want:
            for x, y in zip(got[name], want[name]):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    def test_sum_at_the_bound(self, monkeypatch):
        # the identity's weighted sum at depth 2 is 2 cosh 2 to rounding:
        # the keep predicate takes it, the retired column pre-window
        # dropped it, and it lies at distance 2, where no count reads it
        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        got = h2_oracle._sorted_norms(2.0, 2.0)["group"]
        want = _half_disk_norms(2.0, 2.0)["group"]
        assert (got[1][-1], want[1][-1]) == (1, 0)
        x = np.linspace(0.0, 2.0, 81)
        assert np.array_equal(h2_oracle._ball(got, x),
                              h2_oracle._ball(want, x))


_LETTERS = (A, A.inverse(), B, B.inverse())


def _reduced_words(length: int) -> list[tuple[int, ...]]:
    """Every reduced word of at most the given length, as indices into
    _LETTERS; letter i ^ 1 is the inverse of letter i."""
    words = frontier = [()]
    for _ in range(length):
        frontier = [(i,) + w for w in frontier for i in range(4)
                    if not w or i != w[0] ^ 1]
        words = words + frontier
    return words


def _element(word: tuple[int, ...]) -> MoebiusElement:
    g = I2
    for i in word:
        g = g @ _LETTERS[i]
    return g


def _rises(g: MoebiusElement, gx: MoebiusElement, h: float) -> bool:
    """Whether gx has the larger weighted sum, from the exact integer
    changes of a^2 + c^2 and b^2 + d^2."""
    up = gx.a ** 2 + gx.c ** 2 - g.a ** 2 - g.c ** 2
    down = gx.b ** 2 + gx.d ** 2 - g.b ** 2 - g.d ** 2
    return math.exp(h) * up + math.exp(-h) * down > 0.0


class TestWalkPremises:
    """The facts that make the walk's prune and its symmetry counts exact."""

    @pytest.mark.parametrize("h", [-1.0, 0.0, 0.25, 2.0])
    def test_every_left_extension_rises(self, h):
        for word in _reduced_words(6):
            g = _element(word)
            for i in range(4):
                if not word or i != word[0] ^ 1:
                    assert _rises(g, _LETTERS[i] @ g, h), (word, i)

    def test_every_right_extension_rises_at_depth_zero(self):
        for word in _reduced_words(6):
            g = _element(word)
            for i in range(4):
                if not word or i != word[-1] ^ 1:
                    assert _rises(g, g @ _LETTERS[i], 0.0), (word, i)

    def test_words_are_the_ball(self):
        # the reduced words are distinct elements, and those in a small
        # ball are the whole ball
        words = _reduced_words(6)
        elements = {_element(w) for w in words}
        assert len(elements) == len(words)
        ball = {g for g in elements if g.displacement() <= 5.0}
        assert ball == set(enumerate_group(5.0))

    @pytest.mark.parametrize("r", [6.0, 9.0])
    def test_letter_swap_maps_the_ball_onto_itself(self, r):
        # (a, b, c, d) -> (d, c, b, a) swaps A and B and keeps the sum
        ball = enumerate_group(r)
        assert {MoebiusElement(g.d, g.c, g.b, g.a) for g in ball} == set(ball)

    def test_empty_ball(self, monkeypatch):
        # the identity's sum 2 cosh 2 already exceeds 2 cosh 0.5
        monkeypatch.setattr(h2_oracle, "_BALLS", {})
        norms = h2_oracle._sorted_norms(0.5, 2.0)
        assert set(norms) == {"group"}
        distinct, below = norms["group"]
        assert distinct.size == 0 and below.tolist() == [0]
        assert enumerate_group(0.5, h=2.0) == []


def _step(state, k):
    """The walk's single syllable step X^k on a state (x, y, u, v)."""
    x, y, u, v = state
    return u, v, x + 2 * k * u, y + 2 * k * v


class TestChains:
    """The third cusp's parabolic chains, which the walk adds whole."""

    def test_closed_form_is_the_single_steps(self):
        # reduced words of up to six syllables, then a chain of up to 101
        # alternating unit steps: member 2m is m pairs from the word,
        # member 2m + 1 is m pairs from its first step
        rng = np.random.default_rng(24)
        states = []
        for _ in range(300):
            state = (h2_oracle._A_FIRST, h2_oracle._B_FIRST)[rng.integers(2)]
            for k in rng.choice([-3, -2, -1, 1, 2, 3], rng.integers(7)):
                state = _step(state, int(k))
            states.append(state)
        start = tuple(np.array(z, dtype=np.int64) for z in zip(*states))
        for s in (1, -1):
            signs = np.full(len(states), s, dtype=np.int8)
            first = _step(start, s)
            stepped = start
            for j in range(102):
                m = np.full(len(states), j // 2, dtype=np.int64)
                got = (h2_oracle._chain(*start, signs, m) if j % 2 == 0
                       else h2_oracle._chain(*first, -signs, m))
                for g, want in zip(got, stepped):
                    assert g.dtype == np.int64 and np.array_equal(g, want)
                stepped = _step(stepped, s if j % 2 == 0 else -s)

    def test_the_ball_cap_walks_in_few_rounds(self):
        # one syllable count per round took 705 rounds here, most of them
        # on a few long chains
        walk = h2_oracle._walk(BALL_CAP, 0.0, (h2_oracle._B_FIRST,))
        assert sum(1 for _ in walk) < 64


# -- reference lemma sweep ---------------------------------------------------
# The scalar sweep that the array sweep replaced, kept as the reference it
# must reproduce: the same draws, so every count exactly, and every fitted
# value to rounding.  Its allowances come from the retired angle formulas
# at the apex angle between chart tangents, a construction independent of
# the sweep's closed forms in the side lengths.


def _ref_tangent_toward(z: HPoint, w: HPoint) -> tuple[float, float]:
    # unit tangent at z of the geodesic toward w, in the conformal chart
    if abs(z.re - w.re) < 1e-14 * max(1.0, abs(z.re), abs(w.re)):
        return (0.0, 1.0) if w.im >= z.im else (0.0, -1.0)
    center = ((w.re ** 2 + w.im ** 2) - (z.re ** 2 + z.im ** 2)) \
        / (2.0 * (w.re - z.re))
    phi_z = math.atan2(z.im, z.re - center)
    phi_w = math.atan2(w.im, w.re - center)
    sign = 1.0 if phi_w > phi_z else -1.0
    norm = math.hypot(z.im, z.re - center)
    return (-sign * z.im / norm, sign * (z.re - center) / norm)


def _ref_angle_at(z: HPoint, x: HPoint, y: HPoint) -> float:
    ux, uy = _ref_tangent_toward(z, x)
    vx, vy = _ref_tangent_toward(z, y)
    dot = max(-1.0, min(1.0, ux * vx + uy * vy))
    return math.acos(dot)


def _ref_verify_lemmas(sample_count: int, seed: int) -> h2_oracle.LemmaReport:
    # one scalar draw per call, from the oracle's own counter generator
    rng = h2_oracle._CounterUniforms(seed)

    def draw_point() -> HPoint:
        return HPoint(float(rng.uniform(-50.0, 50.0)),
                      float(math.exp(rng.uniform(-5.0, 5.0))))

    tri_checked = tri_violations = 0
    tri_max = 0.0
    for _ in range(sample_count):
        x, y, z = draw_point(), draw_point(), draw_point()
        if min(h2_distance(z, x), h2_distance(z, y)) < 1e-9:
            continue
        tri_checked += 1
        defect = h2_distance(x, z) + h2_distance(z, y) - h2_distance(x, y)
        tri_max = max(tri_max, defect)
        if defect > _ref_eps_theta(_ref_angle_at(z, x, y)) + 1e-9:
            tri_violations += 1

    eps0 = 0.0
    win_low = win_high = 0.0
    for _ in range(sample_count):
        x, y = draw_point(), draw_point()
        d = h2_distance(x, y)
        gap = abs(approx_defect(x, y))
        eps0 = max(eps0, gap)
        if 5.0 <= d < 10.0:
            win_low = max(win_low, gap)
        elif 10.0 <= d <= 14.0:
            win_high = max(win_high, gap)

    horo_checked = horo_violations = 0
    min_defect = math.inf
    eps1_fit = 0.0
    for _ in range(sample_count):
        sigma = float(rng.uniform(0.1, 3.0))
        tau = float(rng.uniform(0.1, 3.0))
        level = math.exp(sigma)
        top = math.exp(-tau)
        z1 = HPoint(0.0, level)
        z2 = HPoint(0.0, top)
        x = HPoint(float(rng.uniform(-50.0, 50.0)),
                   level * math.exp(rng.uniform(0.0, 3.0)))
        ry = float(rng.uniform(-50.0, 50.0))
        uy = (1.0 / top) * math.exp(rng.uniform(0.0, 3.0))
        denom = ry ** 2 + uy ** 2
        y = HPoint(-ry / denom, uy / denom)
        horo_checked += 1
        through = h2_distance(x, z1) + (sigma + tau) + h2_distance(z2, y)
        defect = through - h2_distance(x, y)
        min_defect = min(min_defect, defect)
        eps1_fit = max(eps1_fit, defect)
        if defect > _ref_eps1_bound(sigma + tau) + 1e-9:
            horo_violations += 1

    # the sweep checks every sample of each lemma
    assert tri_checked == horo_checked == sample_count
    return h2_oracle.LemmaReport(
        samples=sample_count, seed=seed, triangle_violations=tri_violations,
        triangle_max_defect=tri_max, approx_eps0=eps0,
        approx_window_low=win_low, approx_window_high=win_high,
        horoball_violations=horo_violations, horoball_min_defect=min_defect,
        eps1_fitted=eps1_fit)


class TestLemmasAgainstReference:
    """The array sweep reproduces the scalar reference: every count
    exactly, every fitted value to rounding."""

    @pytest.mark.parametrize("n, seed", [(10000, 7), (2000, 20250817),
                                         (500, 7), (1, 5), (10000, 3)])
    def test_every_field_equal(self, n, seed):
        # numpy's exp, log and arccosh may differ from Python's in the
        # last digit; 1e-12 is a thousandth of the sweep's 1e-9 slop
        got, want = verify_lemmas(n, seed), _ref_verify_lemmas(n, seed)
        for field in want._fields:
            x, y = getattr(got, field), getattr(want, field)
            assert type(x) is type(y), field
            if isinstance(y, float):
                assert abs(x - y) <= 1e-12, field
            else:
                assert x == y, field

    @pytest.mark.parametrize("z, w", [
        # one vertical line, w above and below z
        ((0.3, 1.0), (0.3, 4.0)),
        ((-2.0, 5.0), (-2.0, 0.5)),
        # nearly vertical, inside the relative threshold
        ((1e3, 1.0), (1e3 + 1e-12, 2.0)),
        # circle arcs toward either side, so both atan2 orders
        ((0.0, 1.0), (3.0, 1.0)),
        ((0.0, 1.0), (-3.0, 1.0)),
        ((1.0, 2.0), (4.0, 0.1)),
        ((4.0, 0.1), (1.0, 2.0)),
        ((-40.0, 0.01), (45.0, 100.0)),
        # a square here rounds differently as x ** 2 and as x * x
        ((-37.005891094277864, 1.920062587542339),
         (-6.874580182872116, 3.0758477510303464)),
    ])
    def test_array_tangent_matches_scalar(self, z, w):
        # the closed form's apex angle at z, toward w and a third point,
        # against the angle between the scalar chart tangents
        z, w = HPoint(*z), HPoint(*w)
        y = HPoint(z.re + 2.0 * z.im, 0.5 * z.im)
        got = _allowance(h2_distance(z, w), h2_distance(z, y),
                         h2_distance(w, y))
        assert got == pytest.approx(_ref_eps_theta(_ref_angle_at(z, w, y)),
                                    rel=1e-9)

    def test_crafted_tangents_cover_every_branch(self):
        vertical = [((0.3, 1.0), (0.3, 4.0)), ((-2.0, 5.0), (-2.0, 0.5))]
        assert {_ref_tangent_toward(HPoint(*z), HPoint(*w))[1]
                for z, w in vertical} == {1.0, -1.0}
        arcs = [((0.0, 1.0), (3.0, 1.0)), ((0.0, 1.0), (-3.0, 1.0))]
        assert {math.copysign(1.0, _ref_tangent_toward(
            HPoint(*z), HPoint(*w))[0]) for z, w in arcs} == {1.0, -1.0}

    def test_array_tangents_on_a_batch(self):
        rng = np.random.default_rng(11)
        zr, wr, yr = rng.uniform(-50.0, 50.0, (3, 400))
        zi, wi, yi = np.exp(rng.uniform(-5.0, 5.0, (3, 400)))
        wr[:50] = zr[:50]
        z, w, y = ([HPoint(*p) for p in zip(re.tolist(), im.tolist())]
                   for re, im in ((zr, zi), (wr, wi), (yr, yi)))
        got = h2_oracle._triangle_allowance(
            *(np.array([h2_distance(*pair) for pair in zip(p, q)])
              for p, q in ((z, w), (z, y), (w, y))))
        want = [_ref_eps_theta(_ref_angle_at(*t)) for t in zip(z, w, y)]
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


# -- group counts from sums of two squares ------------------------------------
#
# An integer matrix with a^2 + b^2 + c^2 + d^2 = n has determinant 1
# exactly when (a + d)^2 + (b - c)^2 = n + 2 and (a - d)^2 + (b + c)^2 =
# n - 2.  In the level-two group a, d are odd and b, c even, so n = 4m - 2,
# and P = (a + d)/2, S = (b - c)/2, Q = (a - d)/2, R = (b + c)/2 are the
# integers with P^2 + S^2 = m, Q^2 + R^2 = m - 1 and P + Q odd (then
# S + R is even, and the map back gives the parities).  So the projective
# count at n is half the number of such pairs, from one bincount of sums
# of two squares split by the parity of P, with no enumeration.


def _group_counts_by_m(m_max: int) -> np.ndarray:
    """The projective number of group elements with entry-square sum
    4m - 2, for m = 0 ... m_max (0 at m = 0)."""
    side = math.isqrt(m_max)
    p, s = np.meshgrid(np.arange(-side, side + 1), np.arange(-side, side + 1),
                       indexing="ij")
    sums = (p * p + s * s).ravel()
    odd = (p % 2 == 1).ravel()
    keep = sums <= m_max
    even_p = np.bincount(sums[keep & ~odd], minlength=m_max + 1)
    odd_p = np.bincount(sums[keep & odd], minlength=m_max + 1)
    pairs = np.zeros(m_max + 1, dtype=np.int64)
    pairs[1:] = even_p[1:] * odd_p[:-1] + odd_p[1:] * even_p[:-1]
    assert np.all(pairs % 2 == 0)
    return pairs // 2


class TestGroupCountsFromTwoSquares:
    def test_ball_counts_on_the_quarter_unit_grid(self):
        r = 14.5
        radii = np.arange(0.25, r + 1e-12, 0.25)
        # every sum 4m - 2 whose displacement acosh(2m - 1) reaches r,
        # in _distinct's float operations
        m_max = math.ceil((math.cosh(r) + 1.0) / 2.0) + 1
        counts = _group_counts_by_m(m_max)
        m = np.arange(1, m_max + 1)
        disp = np.array([math.acosh(max((4.0 * k - 2.0) / 2.0, 1.0))
                         for k in m.tolist()])
        assert disp[-1] > r
        below = np.r_[0, np.cumsum(counts[1:])]
        want = below[np.searchsorted(disp, radii, side="left")]
        got = h2_oracle._ball(h2_oracle._sorted_norms(r, 0.0)["group"], radii)
        np.testing.assert_array_equal(got, want)

    def test_counts_per_sum_against_the_enumeration(self):
        elems = enumerate_group(10.0)
        sums = np.array([a * a + b * b + c * c + d * d
                         for a, b, c, d in (g.as_tuple() for g in elems)])
        assert np.all(sums % 4 == 2)
        m_max = int(sums.max() + 2) // 4
        want = _group_counts_by_m(m_max)
        got = np.bincount((sums + 2) // 4, minlength=m_max + 1)
        assert got.sum() == len(elems) == 11_069
        # the displacement grows with the sum, so the ball of radius 10
        # holds every element of each sum up to its largest one
        np.testing.assert_array_equal(got, want)
