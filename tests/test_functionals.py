import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrcert import functionals as fn
from bohrcert import schur
from bohrcert.errors import (
    OddGapRequired,
    ParameterOutOfRange,
    RadiusOutOfRange,
    RadiusOutOfWindow,
    ShapeMismatch,
    TruncationInsufficient,
    UnknownTheorem,
)

from support import (
    full_psum,
    mobius_linear_sum,
    mobius_majorant,
    mobius_square_sum,
    refined_bound_rhs,
    thm41_lhs,
)

ORDER = 512


def mobius_profile(a, m=0, p=1):
    f = schur.extremal_family("LacunaryD", a, m, p, ORDER)
    return fn.profile_from_series(f, m, p)


def sample_profile(seed, m, p, order=ORDER, depth=5):
    phi = schur.sample_schur(seed, depth, order)
    return fn.LacunaryProfile(m, p, np.abs(phi.coeffs))


ZERO = fn.LacunaryProfile(0, 1, np.zeros(4), coeff_bound=0.0, exact=True)


class TestBohrSums:
    def test_mobius_anchor_third(self):
        b, _ = fn.bohr_sums(mobius_profile(0.5), 1.0 / 3.0)
        assert b == pytest.approx(0.8, abs=1e-12)

    def test_equality_point(self):
        # B = 1 exactly at r = 1/(1 + 2a)
        b, _ = fn.bohr_sums(mobius_profile(0.5), 0.5)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_zero_profile(self):
        b, a = fn.bohr_sums(ZERO, 0.99)
        assert b == 0.0 and a == 0.0

    def test_alternating_sign_layout(self):
        prof = fn.LacunaryProfile(1, 2, [0.5, 0.25], exact=True)
        b, a = fn.bohr_sums(prof, 0.5)
        # indices 1 and 3: B = .5*.5 + .25*.125, A = -(those)
        assert b == pytest.approx(0.28125)
        assert a == pytest.approx(-0.28125)

    def test_matches_closed_form_on_grid(self):
        prof = mobius_profile(0.7)
        grid = np.arange(0.05, 0.901, 0.05)
        b, _ = fn.bohr_sums_grid(prof, grid)
        want = mobius_majorant(0.7, grid)
        assert np.abs(b - want).max() < 1e-12

    def test_radius_validation(self):
        with pytest.raises(RadiusOutOfRange):
            fn.bohr_sums(ZERO, 1.0)
        with pytest.raises(RadiusOutOfRange):
            fn.bohr_sums(ZERO, -0.1)
        with pytest.raises(RadiusOutOfRange):
            fn.bohr_sums_grid(ZERO, [0.3, np.nan])
        with pytest.raises(RadiusOutOfRange):
            fn.theorem_margins("ThmC", ZERO.mods, 0, 1, [np.nan, 0.3])

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_profile_rejects_nonfinite_bound(self, bound):
        with pytest.raises(ParameterOutOfRange):
            fn.LacunaryProfile(0, 1, [0.5, 0.25], coeff_bound=bound)

    def test_profile_rejects_nan_moduli(self):
        with pytest.raises(ParameterOutOfRange):
            fn.LacunaryProfile(0, 1, [0.5, math.nan])


class TestRefinedBound:
    def test_extremal_equality_anchor(self):
        chk = fn.refined_thmB(mobius_profile(0.5), 0.2)
        assert chk.lhs == pytest.approx(0.1875, abs=1e-12)
        assert chk.rhs == pytest.approx(0.1875, abs=1e-12)
        assert chk.satisfied

    def test_extremal_equality_half(self):
        chk = fn.refined_thmB(mobius_profile(0.5), 0.5)
        assert chk.lhs == pytest.approx(0.75, abs=1e-12)
        assert chk.rhs == pytest.approx(0.75, abs=1e-12)

    def test_equality_everywhere_on_family(self):
        for a in (0.3, 0.5, 0.7, 0.9):
            prof = mobius_profile(a)
            for r in np.arange(0.05, 0.901, 0.05):
                chk = fn.refined_thmB(prof, r)
                assert abs(chk.margin) < 1e-10

    def test_zero_profile(self):
        chk = fn.refined_thmB(ZERO, 0.4)
        assert chk.lhs == 0.0
        assert chk.rhs == pytest.approx(0.4 / 0.6)

    def test_shape_mismatch(self):
        prof = fn.LacunaryProfile(1, 1, [0.0, 0.5], exact=True)
        with pytest.raises(ShapeMismatch):
            fn.refined_thmB(prof, 0.3)

    def test_oracle_decomposition(self):
        # cross-check lhs against the hand-derived geometric sums
        a, r = 0.6, 0.45
        chk = fn.refined_thmB(mobius_profile(a), r)
        want = mobius_linear_sum(a, r) + (
            1.0 / (1.0 + a) + r / (1.0 - r)
        ) * mobius_square_sum(a, r)
        assert chk.lhs == pytest.approx(want, abs=1e-13)
        assert chk.rhs == pytest.approx(refined_bound_rhs(a, r), abs=1e-13)


class TestLemmaDBounds:
    def test_even_equality_anchor(self):
        _, even = fn.lemmaD_bounds(mobius_profile(0.5), 0.5)
        assert even.lhs == pytest.approx(0.25, abs=1e-12)
        assert even.rhs == pytest.approx(0.25, abs=1e-12)

    def test_odd_equality(self):
        odd, _ = fn.lemmaD_bounds(mobius_profile(0.5), 0.5)
        assert odd.lhs == pytest.approx(odd.rhs, abs=1e-12)
        assert odd.rhs == pytest.approx(0.5 / 0.75, abs=1e-12)

    def test_equality_all_shapes(self):
        for (m, p) in [(0, 1), (1, 2), (2, 3)]:
            prof = mobius_profile(0.7, m, p)
            for r in (0.2, 0.5, 0.8):
                odd, even = fn.lemmaD_bounds(prof, r)
                assert abs(odd.margin) < 1e-10
                assert abs(even.margin) < 1e-10

    def test_zero_profile_p2(self):
        prof = fn.LacunaryProfile(0, 2, np.zeros(3), coeff_bound=0.0, exact=True)
        odd, _ = fn.lemmaD_bounds(prof, 0.3)
        assert odd.lhs == 0.0
        assert odd.rhs == pytest.approx(0.09 / (1 - 0.0081))

    def test_steep_family_satisfied(self):
        prof = mobius_profile(0.9, 1, 2)
        odd, even = fn.lemmaD_bounds(prof, 0.6)
        assert odd.satisfied and even.satisfied

    def test_random_samples_satisfied(self):
        for seed in range(20):
            prof = sample_profile(seed, 1, 2)
            for r in (0.3, 0.7, 0.9):
                odd, even = fn.lemmaD_bounds(prof, r)
                assert odd.margin >= -1e-9
                assert even.margin >= -1e-9


class TestEvaluateTheorem:
    def test_unknown_id(self):
        with pytest.raises(UnknownTheorem):
            fn.evaluate_theorem("ThmZ", ZERO, 0.2)

    def test_thm31_boundary_equality(self):
        chk = fn.evaluate_theorem("Thm31", mobius_profile(0.5), 0.4, extras={"s": 1.0})
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.satisfied

    def test_thm31_needs_s(self):
        with pytest.raises(Exception):
            fn.evaluate_theorem("Thm31", mobius_profile(0.5), 0.3)

    def test_thm34_monomial_at_root(self):
        prof = fn.LacunaryProfile(1, 1, [0.0, 1.0], exact=True)
        chk = fn.evaluate_theorem("Thm34", prof, 1.0 / np.sqrt(2.0))
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)

    def test_thmc_includes_origin_square(self):
        # constant profile [c]: lhs = c^2 r / (1 - r^2)
        prof = fn.LacunaryProfile(0, 1, [0.5], exact=True)
        chk = fn.evaluate_theorem("ThmC", prof, 0.5)
        assert chk.lhs == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_odd_gap_required(self):
        prof = fn.LacunaryProfile(0, 2, [0.0, 0.5], exact=True)
        for tid in ("ThmC", "Thm41", "Cor43"):
            with pytest.raises(OddGapRequired):
                fn.evaluate_theorem(tid, prof, 0.3)

    def test_thm32_rejects_nonvanishing_start(self):
        prof = fn.LacunaryProfile(0, 1, [0.5, 0.1], exact=True)
        with pytest.raises(ShapeMismatch):
            fn.evaluate_theorem("Thm32", prof, 0.3)

    def test_thm32_matches_family_closed_form(self):
        # lhs on the vanishing-start family collapses to
        # a r^(p+m) + (1 - a^2) r^(2p+m)/(1 - r^p)
        for (a, m, p, r) in [(0.5, 0, 1, 0.3), (0.3, 1, 2, 0.55), (0.8, 2, 3, 0.6)]:
            f = schur.extremal_family("L2", a, m, p, ORDER)
            prof = fn.profile_from_series(f, m, p)
            chk = fn.evaluate_theorem("Thm32", prof, r)
            want = a * r ** (p + m) + (1 - a * a) * r ** (2 * p + m) / (1 - r ** p)
            assert chk.lhs == pytest.approx(want, abs=1e-12)

    def test_bombieri_envelope(self):
        prof = mobius_profile(0.5)
        chk = fn.evaluate_theorem("BombieriUpper", prof, 1.0 / 3.0)
        assert chk.rhs == pytest.approx(1.0, abs=1e-12)
        assert chk.satisfied
        with pytest.raises(RadiusOutOfWindow):
            fn.evaluate_theorem("BombieriUpper", prof, 0.2)
        with pytest.raises(RadiusOutOfWindow):
            fn.evaluate_theorem("BombieriUpper", prof, 0.8)

    def test_bb_envelope_window(self):
        prof = mobius_profile(0.5)
        chk = fn.evaluate_theorem("BBUpper", prof, 0.8)
        assert chk.rhs == pytest.approx(1.0 / np.sqrt(1 - 0.64))
        with pytest.raises(RadiusOutOfWindow):
            fn.evaluate_theorem("BBUpper", prof, 0.5)

    def test_thmc_equals_thm41(self):
        # both ids share one core; the oracle evaluates Thm41's own form
        for seed, (m, p) in enumerate([(0, 1), (1, 1), (1, 3), (2, 3), (3, 3)]):
            prof = sample_profile(seed, m, p)
            for r in (0.2, 0.5, 0.8):
                want = thm41_lhs(prof.mods, m, p, [r])[0]
                for tid in ("ThmC", "Thm41"):
                    got, _ = fn.evaluate_theorem_grid(tid, prof, [r])
                    assert abs(got[0] - want) < 1e-14

    def test_truncation_guard(self):
        prof = fn.LacunaryProfile(0, 1, [0.5, 0.5, 0.5])
        with pytest.raises(TruncationInsufficient):
            fn.evaluate_theorem("ThmC", prof, 0.9)

    def test_scalar_equals_grid_path(self):
        prof = sample_profile(3, 0, 1)
        grid = np.array([0.1, 0.4, 0.7])
        lhs, rhs = fn.evaluate_theorem_grid("Thm34", prof, grid)
        for i, r in enumerate(grid):
            chk = fn.evaluate_theorem("Thm34", prof, float(r))
            # matmul kernels may differ between single- and multi-column
            # evaluations by a last bit
            assert chk.lhs == pytest.approx(lhs[i], abs=1e-14)
            assert chk.rhs == rhs[i]


class TestMonotonicity:
    def test_lhs_nondecreasing(self):
        grid = np.linspace(0.01, 0.9, 90)
        for seed, (m, p) in enumerate([(0, 1), (1, 3)]):
            prof = sample_profile(seed + 40, m, p)
            for tid in ("Thm34",):
                lhs, _ = fn.evaluate_theorem_grid(tid, prof, grid)
                assert np.all(np.diff(lhs) >= -1e-14)
            lo, _ = fn.theorem_margins("LemDOdd", prof.mods, m, p, grid)
            le, _ = fn.theorem_margins("LemDEven", prof.mods, m, p, grid)
            assert np.all(np.diff(lo[0]) >= -1e-14)
            assert np.all(np.diff(le[0]) >= -1e-14)

    def test_alternating_components_monotone(self):
        # For the alternating ids, the odd linear part and the even-plus-
        # squares part are each nondecreasing; the outer |.| need not be.
        grid = np.linspace(0.01, 0.85, 85)
        prof = sample_profile(77, 1, 3)
        k = np.arange(prof.mods.size)
        modrow = prof.mods[None, :]
        odd = fn.theorem_margins("LemDOdd", modrow, 1, 3, grid)[0][0]
        even = fn.theorem_margins("LemDEven", modrow, 1, 3, grid)[0][0]
        assert np.all(np.diff(odd) >= -1e-14)
        assert np.all(np.diff(even) >= -1e-14)


class TestCertification:
    def test_samples_below_radius(self):
        # light version of the acceptance sweep: 50 seeds, three ids
        from bohrcert import radius as rd

        grid = np.arange(0.005, 0.6, 0.01)
        for seed in range(50):
            prof = sample_profile(seed, 1, 1, order=320)
            for tid, spec in [
                ("ThmC", rd.RadiusSpec("ThmC34", 1, 1)),
                ("Thm34", rd.RadiusSpec("ThmC34", 1, 1)),
                ("Cor43", rd.RadiusSpec("Cor43", 1, 1)),
            ]:
                rstar = rd.solve_radius(spec)
                sub = grid[grid <= rstar - 1e-3]
                lhs, rhs = fn.evaluate_theorem_grid(tid, prof, sub)
                assert (rhs - lhs).min() >= -1e-9


# Recorded from the per-theorem evaluators that the theorem table replaced:
# id -> (m, p, radii, moduli, extras, lhs for the first 1, 2 and 3 moduli,
# rhs or None for the bound 1).
MODS = np.array([[0.5, 0.25, 0.125], [0.2, 0.7, 0.1]])
ZERO_START = np.array([[0.0, 0.5, 0.25], [0.0, 0.3, 0.6]])
TABLE_CASES = {
    "ThmB": (0, 1, [0.3, 0.6], MODS, None,
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.08116071428571428, 0.19874999999999998], [0.26565, 0.8315999999999999]],
            [[0.09254933035714286, 0.2481375], [0.2747522142857143, 0.8706239999999998]],
        ],
        [[0.32142857142857145, 1.1249999999999998], [0.4114285714285714, 1.4399999999999997]]),
    "LemDOdd": (1, 3, [0.3, 0.6], MODS, None,
        [
            [[0.006754924339843745, 0.05664272287862513], [0.0010807878943749993, 0.009062835660580023]],
            [[0.01350615542480468, 0.11130340359828139], [0.01999043960046874, 0.16544257250268526]],
            [[0.013506155649169915, 0.11131110977819547], [0.019990439744062487, 0.16544750445783027]],
        ],
        [[0.02701969735937498, 0.22657089151450052], [0.02701969735937498, 0.22657089151450052]]),
    "LemDEven": (1, 3, [0.3, 0.6], MODS, None,
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[3.040823929394528e-05, 0.0020867070354457567], [0.000297935596064531, 0.02017002315789473]],
            [[0.00012153878119555658, 0.007943046386307195], [0.00037084002861656224, 0.024854828313006054]],
        ],
        [[0.0005471488715273433, 0.03670448442534908], [0.0007003505555549994, 0.04698174006444682]]),
    "ThmC": (1, 3, [0.3, 0.6], MODS, None,
        [
            [[0.002026477301953123, 0.03398563372717507], [0.0003242363683124998, 0.005437701396348012]],
            [[0.004051846627441404, 0.06678204215896882], [0.00599713188014062, 0.09926554350161114]],
            [[0.004024509194750974, 0.06328746586691728], [0.005975261923218745, 0.09646914267469814]],
        ],
        None),
    "Thm31": (0, 1, [0.3, 0.6], MODS, {'s': 2.0},
        [
            [[0.25, 0.25], [0.04000000000000001, 0.04000000000000001]],
            [[0.3311607142857143, 0.44875000000000004], [0.30565, 0.8715999999999999]],
            [[0.34254933035714286, 0.4981375], [0.31475221428571426, 0.9106239999999999]],
        ],
        None),
    "Thm32": (1, 3, [0.3, 0.6], ZERO_START, None,
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.004049999999999999, 0.06479999999999998], [0.0024299999999999994, 0.03887999999999999]],
            [[0.004104931278526463, 0.0721544614530612], [0.0025629141913893583, 0.05795033369640187]],
        ],
        None),
    "Thm34": (1, 3, [0.3, 0.6], MODS, None,
        [
            [[0.0020264773019531236, 0.03398563372717508], [0.00032423636831249985, 0.005437701396348014]],
            [[0.004051846627441404, 0.06678204215896885], [0.00599713188014062, 0.09926554350161114]],
            [[0.004051846694750974, 0.06678666586691728], [0.0059971319232187455, 0.09926850267469814]],
        ],
        None),
    "Thm41": (1, 3, [0.3, 0.6], MODS, None,
        [
            [[0.0020264773019531236, 0.03398563372717508], [0.00032423636831249985, 0.005437701396348014]],
            [[0.004051846627441404, 0.06678204215896885], [0.00599713188014062, 0.09926554350161114]],
            [[0.004024509194750975, 0.06328746586691728], [0.005975261923218745, 0.09646914267469814]],
        ],
        None),
    "Cor43": (1, 3, [0.3, 0.6], MODS, None,
        [
            [[0.05005471488715273, 0.10734089688506981], [0.01000875438194444, 0.021174543501611173]],
            [[0.04803883735894092, 0.07619292110633727], [0.004428135060763802, 0.05744344260365196]],
            [[0.048066176521511406, 0.07970672471685414], [0.00445000639052941, 0.05463255951058516]],
        ],
        None),
    "BombieriUpper": (0, 1, [0.4, 0.6], MODS, None,
        [
            [[0.5, 0.5], [0.2, 0.2]],
            [[0.6, 0.65], [0.48, 0.62]],
            [[0.62, 0.6950000000000001], [0.496, 0.656]],
        ],
        [[1.0192593015921403, 1.2287638336717466], [1.0192593015921403, 1.2287638336717466]]),
    "BBUpper": (0, 1, [0.75, 0.9], MODS, None,
        [
            [[0.5, 0.5], [0.2, 0.2]],
            [[0.6875, 0.725], [0.725, 0.83]],
            [[0.7578125, 0.8262499999999999], [0.78125, 0.9109999999999999]],
        ],
        [[1.5118578920369088, 2.294157338705618], [1.5118578920369088, 2.294157338705618]]),
}


class TestTheoremTable:
    def test_every_id_recorded(self):
        assert set(TABLE_CASES) == set(fn.THEOREM_IDS)

    @pytest.mark.parametrize("tid", sorted(TABLE_CASES))
    def test_short_profiles_match_recorded_values(self, tid):
        m, p, radii, mods, extras, lhs_by_length, rhs_want = TABLE_CASES[tid]
        for length, lhs_want in zip((1, 2, 3), lhs_by_length):
            want = (np.asarray(lhs_want), np.ones((2, 2)) if rhs_want is None
                    else np.asarray(rhs_want))
            for cols in (slice(None), slice(0, 1)):  # both radii, then one
                got = fn.theorem_margins(tid, mods[:, :length], m, p, radii[cols],
                                         extras=extras, exact=True)
                for g, w in zip(got, want):
                    assert g.shape == w[:, cols].shape
                    np.testing.assert_allclose(g, w[:, cols], rtol=0, atol=1e-15)


# Depth-5 Schur moduli, the margin core's own inputs, and their lattice
# index; the cut cases below reuse them as every kind of lattice sum.
CUT_BANK = np.vstack([np.abs(schur.sample_schur(7 ^ i, 5, 299).coeffs) for i in range(40)])
CUT_K = np.arange(CUT_BANK.shape[1])
CUT_GRID = np.linspace(0.0, 0.95, 300)
PSUM_CASES = {  # name: (w, exps, radii, bound)
    "grid_with_zero": (CUT_BANK, 3 * CUT_K + 1, CUT_GRID, 1.0),
    "zero_exponent_at_zero": (CUT_BANK, CUT_K, np.array([0.0, 0.0, 0.3, 0.6]), 1.0),
    "unsorted_grid": (CUT_BANK, 2 * CUT_K + 1,
                      np.random.default_rng(5).permutation(CUT_GRID), 1.0),
    "single_radius": (CUT_BANK, 3 * CUT_K + 2, np.array([0.83]), 1.0),
    "near_one": (CUT_BANK, CUT_K, np.linspace(0.9, 0.999, 60), 1.0),
    # moduli up to the bound only past column 60, where a cut taken for
    # bound 1 would drop them
    "bound_above_one": (CUT_BANK * np.where(CUT_K < 60, 1.0, 2.0 ** 40), 3 * CUT_K + 1,
                        CUT_GRID, 2.0 ** 40),
    "squares": (CUT_BANK ** 2, 6 * CUT_K + 2, CUT_GRID, 1.0),
    "odd_slice": (CUT_BANK[:, 1::2], 3 * CUT_K[1::2] + 1, CUT_GRID, 1.0),
    "even_slice": (CUT_BANK[:, 2::2] ** 2, 6 * CUT_K[2::2], CUT_GRID, 1.0),
    "zero_columns": (CUT_BANK[:, :0], CUT_K[:0], CUT_GRID, 1.0),
    # no cut can be read from a NaN bound, so every column is taken
    "nan_bound": (CUT_BANK, 3 * CUT_K + 1, CUT_GRID, math.nan),
}

# lacunary_length_for(m, p, r, trunc_tol, coeff_bound), recorded before the
# lattice cut shared its formula
LENGTH_CASES = {
    (0, 1, 0.0, 1e-10, 1.0): 1,
    (0, 1, 0.5, 1e-10, 1.0): 35,
    (1, 3, 0.95, 1e-10, 1.0): 162,
    (2, 3, 0.95, 1e-10, 1.0): 162,
    (3, 3, 0.95, 1e-10, 1.0): 162,
    (0, 1, 0.95, 1e-10, 1.0): 508,
    (0, 1, 0.99, 1e-10, 1.0): 2750,
    (1, 1, 0.999, 1e-10, 1.0): 29918,
    (2, 5, 0.7, 1e-12, 2.5): 16,
    (0, 2, 0.3, 1e-6, 0.5): 6,
    (3, 7, 0.9, 2.0 ** -64, 1.0): 61,
    (0, 1, 0.5, 2.0 ** -40, 1.0): 41,
    (4, 4, 1e-3, 1e-10, 1.0): 1,
    (0, 1, 1e-6, 1e-3, 1.0): 1,
    (1, 6, 0.81, 1e-10, 1.0): 19,
    (0, 1, 0.9, 1e-10, 1.0): 241,
}


class TestLatticeCut:
    @pytest.mark.parametrize("name", sorted(PSUM_CASES))
    def test_psum_matches_full_contraction(self, name):
        w, exps, radii, bound = PSUM_CASES[name]
        got = fn._psum(w, exps, radii, bound)
        want = full_psum(w, exps, radii)
        assert got.shape == want.shape
        # BLAS sums a column in an order that depends on the block it falls
        # in (the full product differs from itself on sub-grids by up to 8
        # ulps), so allow the worst-case gap between two summation orders
        # of a K-term sum, 2 gamma_K sum_k |w_k| r^e_k (Higham, ch. 3).
        k = w.shape[-1] * np.finfo(float).eps / 2
        reorder = 2 * k / (1 - k) * full_psum(np.abs(w), exps, radii)
        assert np.all(np.abs(got - want) <= 1e-15 + reorder)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 20), st.integers(1, 16), st.floats(1e-6, 0.999),
           st.floats(0.1, 10.0))
    def test_cut_length_is_least_certified_count(self, e0, d, r, bound):
        n = float(fn._cut_length(e0, d, r, bound))
        tail = lambda k: bound * r ** (e0 + k * d) / (1.0 - r ** d)
        assert n >= 0 and n.is_integer()
        assert tail(n) <= 2.0 ** -64 * (1 + 1e-9)
        assert n == 0 or tail(n - 1) > 2.0 ** -64 * (1 - 1e-9)

    def test_lacunary_length_for_recorded_values(self):
        got = {case: fn.lacunary_length_for(*case) for case in LENGTH_CASES}
        assert got == LENGTH_CASES
