"""Exact-plane oracle against closed-form hyperbolic geometry.

The constant-curvature plane admits exact answers: distances are single
acosh evaluations, the lattice is enumerable by integer arithmetic, and
small ball counts were cross-checked against an independent
breadth-first walk of the generators before freezing.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuspgrowth import h2_oracle
from cuspgrowth.errors import DomainError, EnumerationCapError
from cuspgrowth.h2_oracle import (
    BALL_CAP,
    R_CAP,
    CountTable,
    GeometryConstants,
    HPoint,
    MoebiusElement,
    approx_defect,
    busemann_inf,
    coset_counts,
    enumerate_group,
    estimate_delta,
    group_bfs,
    h2_distance,
    prop28_radius,
    t_xi,
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
                direct = h2_distance(BASE, g.apply(HPoint(0.0, math.exp(h))))
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
            assert h2_distance(g.apply(x), g.apply(y)) == pytest.approx(
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


class TestGeometryConstants:
    def test_right_angle_allowance(self):
        geo = GeometryConstants()
        assert geo.eps_theta(math.pi / 2.0) == pytest.approx(math.log(2.0),
                                                             abs=1e-12)

    def test_monotone_in_angle(self):
        geo = GeometryConstants()
        assert geo.eps_theta(0.3) > geo.eps_theta(1.0) > geo.eps_theta(2.5)
        assert geo.eps_theta(math.pi) == pytest.approx(0.0, abs=1e-12)
        assert geo.eps_theta(0.0) == math.inf

    def test_angle_domain(self):
        geo = GeometryConstants()
        with pytest.raises(DomainError):
            geo.eps_theta(-0.1)
        with pytest.raises(DomainError):
            geo.eps_theta(3.5)

    def test_horoball_allowance(self):
        geo = GeometryConstants()
        assert geo.eps1_bound(1.0) > geo.eps1_bound(2.0) > math.log(2.0)
        with pytest.raises(DomainError):
            geo.eps1_bound(0.0)

    def test_curvature_scaling(self):
        sharp = GeometryConstants(a=2.0)
        assert sharp.eps_theta(math.pi / 2.0) == pytest.approx(
            math.log(2.0) / 2.0, abs=1e-12)


class TestEnumeration:
    def test_tiny_balls(self):
        assert [g.as_tuple() for g in enumerate_group(1.0)] == [(1, 0, 0, 1)]
        got = enumerate_group(2.0)
        assert [g.as_tuple() for g in got] == [
            (1, 0, 0, 1), (1, -2, 0, 1), (1, 0, -2, 1),
            (1, 0, 2, 1), (1, 2, 0, 1)]

    def test_ball_counts_match_independent_walk(self):
        # depth 12 in the generators saturates both balls (the slowest
        # elements are pure translations, which need ~10 letters here)
        walk = group_bfs(12)
        assert sum(1 for g in walk if g.displacement() < 4.0) == 25
        assert len(enumerate_group(4.0)) == 25

    def test_walk_is_subset_of_enumeration(self):
        enum6 = {g.as_tuple() for g in enumerate_group(6.0)}
        missing = [g for g in group_bfs(6)
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
        assert len(enumerate_group(3.0, r_cap=3.0)) > 5

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
        assert group_bfs(0) == {I2}
        with pytest.raises(DomainError):
            group_bfs(-1)


class TestCosetCounts:
    def test_frozen_table(self):
        tab = _table()
        rows = np.column_stack([tab.v_group, tab.v_group_annulus,
                                tab.v_left, tab.v_right, tab.v_double])
        assert tab.radii.tolist() == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
        assert rows.tolist() == [
            [5, 12, 3, 3, 2],
            [25, 60, 13, 13, 8],
            [221, 460, 111, 111, 60],
            [1473, 3504, 737, 737, 364],
            [11069, 26084, 5535, 5535, 2752],
            [81361, 191404, 40681, 40681, 20252],
        ]

    def test_left_and_right_cosets_agree(self):
        # inversion swaps the two coset families and preserves the norm
        tab = _table()
        assert np.array_equal(tab.v_left, tab.v_right)

    def test_monotone_and_nested(self):
        tab = _table()
        for col in (tab.v_group, tab.v_left, tab.v_right, tab.v_double):
            assert np.all(np.diff(col) >= 0)
        assert np.all(tab.v_double <= tab.v_right)
        assert np.all(tab.v_right <= tab.v_group)

    def test_halving_structure(self):
        # every nontrivial coset picks up minimizing elements in pairs
        tab = _table()
        assert np.array_equal(2 * tab.v_left, tab.v_group + 1)

    def test_csv_shape(self):
        text = _table().to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == ("R,v_gamma,v_gamma_annulus,v_left_cosets,"
                            "v_right_cosets,v_double_cosets")
        assert lines[1] == "2.0,5,12,3,3,2"
        assert len(lines) == 7

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
        assert rep.triangle_checked > 1900

    def test_defect_statistics(self):
        rep = _lemmas()
        assert 0.0 < rep.approx_eps0 <= DEFECT_SUP + 1e-9
        assert rep.approx_window_growth <= 0.1
        assert rep.constants.eps0_fitted == rep.approx_eps0

    def test_horoball_path_never_undershoots(self):
        rep = _lemmas()
        assert rep.horoball_min_defect >= -1e-9
        assert rep.constants.eps1_fitted > 0.0

    def test_deterministic_under_seed(self):
        again = verify_lemmas(2000, 20250817)
        rep = _lemmas()
        assert again.approx_eps0 == rep.approx_eps0
        assert again.triangle_max_defect == rep.triangle_max_defect
        assert again.constants.eps1_fitted == rep.constants.eps1_fitted

    def test_seed_matters(self):
        other = verify_lemmas(500, 7)
        assert other.approx_eps0 != _lemmas().approx_eps0

    def test_sample_count_validation(self):
        with pytest.raises(DomainError):
            verify_lemmas(0, 1)

    def test_summary_text(self):
        text = _lemmas().summary()
        assert "PASS" in text
        assert "horoball additivity" in text


class TestProp28:
    def test_gauge_one(self):
        rep = _prop28(1.0)
        assert rep.passed
        assert rep.right_left_in_group and rep.right_double_in_group
        assert rep.shift_right_to_left == 0.0
        assert (rep.shift_left_lower, rep.shift_right_lower) == (0.0, 0.0)
        assert rep.shift_double_lower == 0.75

    def test_gauge_two(self):
        rep = _prop28(2.0)
        assert rep.passed
        assert rep.shift_right_to_left == 0.0
        assert (rep.shift_left_lower, rep.shift_right_lower) == (0.0, 0.0)
        assert rep.shift_double_lower == 1.75

    def test_two_phase_split(self):
        rep = _prop28(1.0)
        assert rep.fit_max == 6.0
        assert rep.n_fit == rep.n_assert == 24
        assert "PASS" in rep.summary()

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
        assert rep.converged
        assert rep.n_elements == 81361

    def test_summary(self):
        assert "critical exponent" in estimate_delta().summary()

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            estimate_delta(r_cap=R_CAP + 2.0)


class TestCountingBand:
    def test_two_phase_band_membership(self):
        rep = verify_counting()
        assert rep.passed
        assert rep.log_constant == pytest.approx(1.7056259944375791,
                                                 abs=1e-6)
        assert rep.max_assert_deviation <= rep.log_constant
        assert rep.max_center_drift < 0.15

    def test_validation(self):
        with pytest.raises(DomainError):
            verify_counting(r_cap=6.0, fit_max=6.0)
        with pytest.raises(EnumerationCapError):
            verify_counting(r_cap=R_CAP + 1.0)


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
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y), field.name
            else:
                assert x == y, field.name

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
            for radius, norms in balls.values():
                assert isinstance(radius, float)
                assert set(norms) == {"group", "left", "right", "double"}
                for arr in norms.values():
                    assert isinstance(arr, np.ndarray) and arr.dtype == float
                    assert not arr.flags.writeable
                    assert np.all(np.diff(arr) >= 0)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            h2_oracle._sorted_norms(math.nextafter(BALL_CAP, math.inf))
