import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrcert import functionals as fn
from bohrcert import multidim as md
from bohrcert import radius as rad
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
    LEMMA_IDS,
    bucket_oracle,
    full_psum,
    full_width_margins,
    lemma_margins,
    mobius_linear_sum,
    mobius_majorant,
    mobius_square_sum,
    per_lattice_cut_counts,
    refined_bound_rhs,
    thm41_lhs,
    written_lhs,
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
        chk = fn.evaluate_theorem("ThmB", mobius_profile(0.5), 0.2)
        assert chk.lhs == pytest.approx(0.1875, abs=1e-12)
        assert chk.rhs == pytest.approx(0.1875, abs=1e-12)
        assert chk.satisfied

    def test_extremal_equality_half(self):
        chk = fn.evaluate_theorem("ThmB", mobius_profile(0.5), 0.5)
        assert chk.lhs == pytest.approx(0.75, abs=1e-12)
        assert chk.rhs == pytest.approx(0.75, abs=1e-12)

    def test_equality_everywhere_on_family(self):
        for a in (0.3, 0.5, 0.7, 0.9):
            prof = mobius_profile(a)
            for r in np.arange(0.05, 0.901, 0.05):
                chk = fn.evaluate_theorem("ThmB", prof, r)
                assert abs(chk.margin) < 1e-10

    def test_zero_profile(self):
        chk = fn.evaluate_theorem("ThmB", ZERO, 0.4)
        assert chk.lhs == 0.0
        assert chk.rhs == pytest.approx(0.4 / 0.6)

    def test_shape_mismatch(self):
        prof = fn.LacunaryProfile(1, 1, [0.0, 0.5], exact=True)
        with pytest.raises(ShapeMismatch):
            fn.evaluate_theorem("ThmB", prof, 0.3)

    def test_oracle_decomposition(self):
        # cross-check lhs against the hand-derived geometric sums
        a, r = 0.6, 0.45
        chk = fn.evaluate_theorem("ThmB", mobius_profile(a), r)
        want = mobius_linear_sum(a, r) + (
            1.0 / (1.0 + a) + r / (1.0 - r)
        ) * mobius_square_sum(a, r)
        assert chk.lhs == pytest.approx(want, abs=1e-13)
        assert chk.rhs == pytest.approx(refined_bound_rhs(a, r), abs=1e-13)


class TestLemmaDBounds:
    def test_even_equality_anchor(self):
        even = fn.evaluate_theorem("LemDEven", mobius_profile(0.5), 0.5)
        assert even.lhs == pytest.approx(0.25, abs=1e-12)
        assert even.rhs == pytest.approx(0.25, abs=1e-12)

    def test_odd_equality(self):
        odd = fn.evaluate_theorem("LemDOdd", mobius_profile(0.5), 0.5)
        assert odd.lhs == pytest.approx(odd.rhs, abs=1e-12)
        assert odd.rhs == pytest.approx(0.5 / 0.75, abs=1e-12)

    def test_equality_all_shapes(self):
        for (m, p) in [(0, 1), (1, 2), (2, 3)]:
            prof = mobius_profile(0.7, m, p)
            for r in (0.2, 0.5, 0.8):
                odd = fn.evaluate_theorem("LemDOdd", prof, r)
                even = fn.evaluate_theorem("LemDEven", prof, r)
                assert abs(odd.margin) < 1e-10
                assert abs(even.margin) < 1e-10

    def test_zero_profile_p2(self):
        prof = fn.LacunaryProfile(0, 2, np.zeros(3), coeff_bound=0.0, exact=True)
        odd = fn.evaluate_theorem("LemDOdd", prof, 0.3)
        assert odd.lhs == 0.0
        assert odd.rhs == pytest.approx(0.09 / (1 - 0.0081))

    def test_steep_family_satisfied(self):
        prof = mobius_profile(0.9, 1, 2)
        odd = fn.evaluate_theorem("LemDOdd", prof, 0.6)
        even = fn.evaluate_theorem("LemDEven", prof, 0.6)
        assert odd.satisfied and even.satisfied

    def test_random_samples_satisfied(self):
        for seed in range(20):
            prof = sample_profile(seed, 1, 2)
            for r in (0.3, 0.7, 0.9):
                odd = fn.evaluate_theorem("LemDOdd", prof, r)
                even = fn.evaluate_theorem("LemDEven", prof, r)
                assert odd.margin >= -1e-9
                assert even.margin >= -1e-9


def lemma_case(theorem_id, seed, m, p, s):
    """A small seeded depth-5 bank at a shape the row runs at, and the row's
    sharp radius R: the ThmC34 or Thm32 root, or for Thm31 the largest of
    its samples' own radii."""
    seeds = [seed ^ i for i in range(8)]
    if theorem_id == "Thm31":
        m, p = 0, 1
        top = float(rad.thm31_radius(np.abs(schur.sample_bank(seeds, 5, 0))[:, 0], s).max())
    else:
        equation = "ThmC34" if theorem_id == "Thm34" else "Thm32"
        top = rad.solve_radius(rad.RadiusSpec(equation, p, m))
    # the ThmB call of the Thm32 route runs at r^p, on the shape (0, 1)
    length = max(fn.lacunary_length_for(m, p, top), fn.lacunary_length_for(0, 1, top ** p)) + 1
    return np.abs(schur.sample_bank(seeds, 5, length - 1)), m, p, top


class TestLemmaIdentities:
    """Thm31, Thm32 and Thm34 are exact affine images of ThmB or LemDOdd
    plus a scalar, on every bank, shape and radius (``lemma_margins``); a
    failure is a finding about the catalog, not a tolerance to widen."""

    @pytest.mark.parametrize("theorem_id", LEMMA_IDS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 8), data=st.data(),
           s=st.sampled_from([0.5, 1.0, 2.0, 3.0]), t=st.floats(0.0, 1.0))
    def test_margin_is_the_lemma_plus_a_scalar(self, theorem_id, seed, p, data, s, t):
        m = data.draw(st.integers(0, p), label="m")
        bank, m, p, top = lemma_case(theorem_id, seed, m, p, s)
        r = top * np.array([0.0, t, 1.0])
        own, derived, allowance = lemma_margins(theorem_id, bank, m, p, r,
                                                s=s if theorem_id == "Thm31" else None)
        assert np.all(np.abs(own - derived) <= allowance), (m, p, top)


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

    @pytest.mark.parametrize("tid", ["ThmC", "LemDEven", "Thm34", "Lem21"])
    def test_empty_grid_gives_empty_arrays(self, tid):
        # an empty grid passes every check, so each entry point returns
        # arrays with no radius
        bank = route_bank(1, 3)[:2]
        lhs, rhs = fn.theorem_margins(tid, bank, 1, 3, [])
        assert lhs.shape == rhs.shape == (2, 0)
        prof = fn.LacunaryProfile(1, 3, bank[0])
        for got in (*fn.evaluate_theorem_grid(tid, prof, []), *fn.bohr_sums_grid(prof, [])):
            assert got.shape == (0,)

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

    def test_lem21_certifies_its_tail(self):
        # a campaign's Lem21 core certifies its tail as every core does;
        # lemma21_margins takes its moduli as whole slices
        short = np.full((2, 8), 0.5)
        with pytest.raises(TruncationInsufficient):
            fn.theorem_margins("Lem21", short, 1, 3, [0.95])
        assert md.lemma21_margins(short, 1, 3, [0.95])[0].shape == (2, 1)
        with pytest.raises(ShapeMismatch):
            fn.theorem_margins("Lem21", short, 0, 3, [0.3])

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


BOUND_ONE_IDS = sorted(tid for tid, th in fn._THEOREMS.items() if th.rhs is None)


class TestParityParts:
    """What a campaign's parity bound (``functionals._unsettled``) rests on."""

    @pytest.mark.parametrize("tid", BOUND_ONE_IDS)
    def test_weights_keep_sign_and_grow(self, tid):
        # every term is w_k >= 0 times r^e with e >= 0, a per-sample weight
        # and a per-radius weight of one sign and nondecreasing modulus
        r = np.linspace(0.0, 0.99, 4001)
        for p in range(1, 9):
            for m in range(p + 1):
                v = fn._vars(np.zeros((1, 1)), r, m, p)
                lattices = fn._plan(fn._THEOREMS[tid], m, p, 64, 1.0, 1.0).lattices
                for term, (e0, d, n, _) in zip(fn._THEOREMS[tid].terms, lattices):
                    assert (e0 + d * np.arange(n)).min() >= 0, (m, p, term)
                    if term.sample_weight is not None:
                        assert np.shape(term.sample_weight(v)) == (1, 1)
                    if term.weight is None:
                        continue
                    w = np.broadcast_to(term.weight(v), r.shape)
                    assert np.all(w >= 0.0) or np.all(w <= 0.0), (m, p, term)
                    assert np.all(np.diff(np.abs(w)) >= 0.0), (m, p, term)

    @pytest.mark.parametrize("tid", BOUND_ONE_IDS)
    def test_parts_give_the_left_side(self, tid):
        th = fn._THEOREMS[tid]
        grid = np.linspace(0.0, 0.95, 60)
        for bank, m, p in route_cases(tid):
            pos, neg = fn._parity_parts(th, bank, m, p, grid, s=1.5)
            assert np.all(pos >= 0.0) and np.all(neg >= 0.0)
            assert np.all(np.diff(pos, axis=1) >= -1e-15 * pos[:, 1:])
            assert np.all(np.diff(neg, axis=1) >= -1e-15 * neg[:, 1:])
            lhs, reorder = written_lhs(tid, bank, m, p, grid, s=1.5)
            signed = pos - neg
            assert np.all(np.abs((np.abs(signed) if th.absolute else signed) - lhs) <= reorder)


REDUCED_IDS = sorted(tid for tid, th in fn._THEOREMS.items() if th.reduced is not None)


def reduced_shapes(tid):
    """Every shape with p <= 6 the id is stated for."""
    th = fn._THEOREMS[tid]
    return [(m, p) for p in range(1, 7) for m in range(p + 1) if not (th.positive_m and m < 1)]


class TestReducedForms:
    """What a campaign's Bernstein bound (``functionals._reduced_least``) rests on."""

    def test_forms_are_the_lacunary_lemmas(self):
        assert REDUCED_IDS == ["Lem21", "LemDEven", "LemDOdd"]

    @pytest.mark.parametrize("tid", REDUCED_IDS)
    def test_scale_times_rho_is_the_margin(self, tid):
        th = fn._THEOREMS[tid]
        a, b = th.reduced.scale
        eps = np.finfo(float).eps
        grid = np.linspace(0.0, 0.95, 40)
        for m, p in reduced_shapes(tid):
            y = grid ** (2 * p)
            length = fn.lacunary_length_for(m, p, grid[-1]) + 1
            bank = np.vstack([
                np.abs(schur.sample_bank([(7 * p + m) ^ i for i in range(12)], 7, length - 1)),
                schur.family_moduli(np.linspace(0.0, 0.98, 8), length)])
            lhs, rhs = fn.theorem_margins(tid, bank, m, p, grid)
            _, reorder = written_lhs(tid, bank, m, p, grid)
            g = grid ** (a * p + b * m) / (1.0 - y)
            assert g[0] == 0.0 and np.all(np.diff(g) > 0.0), (m, p)
            # the weights the engine's skipped columns are multiplied by
            v = fn._vars(bank, grid, m, p)
            for term in th.terms:
                for weight in (term.weight, term.sample_weight):
                    if weight is not None:
                        assert np.all(np.abs(weight(v)) <= np.maximum(1.0, g) * (1 + 4 * eps))
            rho, size = fn._reduced_polynomial(th.reduced, bank, m, p, y[-1], bank.shape[1] + 1)
            got = g * full_psum(rho, np.arange(rho.shape[1]), y)
            # rounding of g * rho (rho's size at the top bounds it at every
            # radius) and of the right side, and the columns the engine skips
            tol = (reorder + 4 * rho.shape[1] * eps * g * size[:, None] + 4 * eps * np.abs(rhs)
                   + 2.0 ** -64 * len(th.terms) * np.maximum(1.0, g))
            assert np.all(np.abs(got - (rhs - lhs)) <= tol), (m, p)

    @pytest.mark.parametrize("tid", REDUCED_IDS)
    def test_size_bounds_every_piece(self, tid):
        # 1 and each part, with 1 - y taken as 1, sum to the size at y
        th = fn._THEOREMS[tid]
        bank = route_bank(1, 2)
        rho, size = fn._reduced_polynomial(th.reduced, bank, 1, 2, 0.6, bank.shape[1] + 1)
        _, whole = fn._reduced_polynomial(th.reduced, bank, 1, 2, 1.0, bank.shape[1] + 1)
        assert np.all(size >= np.abs(full_psum(rho, np.arange(rho.shape[1]), np.array([0.6]))[:, 0]))
        assert np.all(size <= whole) and np.all(size >= 1.0)


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
    # recorded from multidim.lemma21_margins before Lem21 joined the table
    "Lem21": (1, 3, [0.3, 0.6], MODS, None,
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[2.7337499999999994e-05, 0.003499199999999999], [2.1869999999999996e-05, 0.0027993599999999994]],
        ],
        [[0.00016414466145820298, 0.022022690655209447], [0.0002101051666664998, 0.02818904403866809]]),
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
CUT_BANK = np.abs(schur.sample_bank([7 ^ i for i in range(40)], 5, 299))
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


@st.composite
def count_table(draw):
    """A (terms, radii) table of column counts, as floats: rows that ascend
    with ties and with jumps across several power-of-two groups, rows that
    do not ascend, and rows under the first one, so that the largest count
    can ascend where a term's own counts do not."""
    size = draw(st.integers(0, 24))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("ascending", "any", "under")[:3 if rows else 2]))
        ints = st.lists(st.integers(0, 40 if kind == "any" else 5), min_size=size, max_size=size)
        if kind == "ascending":
            steps = st.sampled_from([0, 0, 1, 2, 3, 9, 40, 700])
            row = draw(st.integers(0, 3)) + np.cumsum(
                draw(st.lists(steps, min_size=size, max_size=size)), dtype=int)
        elif kind == "any":
            row = np.array(draw(ints), dtype=int)
        else:
            row = np.maximum(rows[0] - draw(ints), 0)
        rows.append(np.asarray(row, dtype=float))
    return np.array(rows).reshape(len(rows), size)


@st.composite
def cut_grids(draw):
    """Radius grids for the column counts: a 0-d radius, no radius, or radii
    with 0, -0.0 and repeats, in any order."""
    kind = draw(st.sampled_from(["0-d", "empty", "grid"]))
    radius = st.floats(0.0, 0.999) | st.sampled_from([0.0, -0.0])
    if kind == "0-d":
        return np.array(draw(radius))
    if kind == "empty":
        return np.empty(0)
    r = draw(st.lists(radius, min_size=1, max_size=40))
    r += draw(st.lists(st.sampled_from(r), max_size=5))
    return np.array(draw(st.permutations(r)))


class TestLatticeCut:
    @pytest.mark.parametrize("name", sorted(PSUM_CASES))
    def test_psum_matches_full_contraction(self, name):
        w, exps, radii, bound = PSUM_CASES[name]
        # one unweighted term of the engine's power sums: its lattice at
        # the shape (e0, d) is the columns of w with exponents e0 + d k
        e0, d = (int(exps[0]), int(exps[1] - exps[0])) if exps.size > 1 else (0, 1)
        term = fn._Term(fn._ALL, 1, (1, 0, 1))
        # planned outside the cache, which holds only catalog cores
        plan = fn._plan.__wrapped__(fn._Theorem((term,)), e0, d, w.shape[1], None, bound)
        v = fn._vars(w, radii, e0, d)
        got = fn._products((term,), plan, fn._cut_counts(plan.lattices, radii), w, v, None)
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

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(fn._THEOREMS)), st.integers(1, 8), st.data(),
           st.integers(1, 200), st.sampled_from([1.0, 1.5]),
           st.lists(st.floats(0.0, 0.99), max_size=40),
           st.sampled_from(["as_drawn", "ascending", "from_zero"]))
    def test_cut_counts_are_each_terms_cut(self, tid, p, data, length, bound, radii, order):
        # terms on one lattice share a row of counts; each term still takes
        # its own cut, capped at its columns (a count that is not a number,
        # or a lattice of at most one column, takes all of them)
        m = data.draw(st.integers(0, p))
        r = np.array(radii)
        if order != "as_drawn":
            r = np.sort(np.append(r, 0.0) if order == "from_zero" else r)
        terms = fn._THEOREMS[tid].terms
        plan = fn._plan(fn._THEOREMS[tid], m, p, length, 2.0, bound).lattices
        counts = fn._cut_counts(plan, r)
        for (e0, d, n, b), count in zip(plan, counts, strict=True):
            want = np.fmin(fn._cut_length(e0, d, r, b), n) if n > 1 else np.full(r.size, n)
            assert np.array_equal(count, want), (m, p, e0, d, n, b)
        if all(term.power != "s" for term in terms):
            assert fn._buckets(counts)[0][1] == bucket_oracle(counts, r)[0][1]

    @settings(max_examples=400, deadline=None)
    @given(st.data(), cut_grids())
    def test_stacked_counts_match_per_lattice_oracle(self, data, r):
        # every core's planned lattices, and synthetic ones up to n = inf
        if data.draw(st.booleans()):
            p = data.draw(st.integers(1, 8))
            lattices = fn._plan(fn._THEOREMS[data.draw(st.sampled_from(fn.THEOREM_IDS))],
                                data.draw(st.integers(0, p)), p, data.draw(st.integers(1, 200)),
                                2.0, data.draw(st.sampled_from([1.0, 1.5]))).lattices
        else:
            lattice = st.tuples(st.integers(0, 40), st.integers(1, 16),
                                st.sampled_from([0, 1, 2, 3, 7, 50, math.inf]),
                                st.sampled_from([1.0, 1.5, 2.25, 1e-3]))
            lattices = data.draw(st.lists(lattice, min_size=1, max_size=4))
        got = fn._cut_counts(lattices, r)
        assert got.shape == (len(lattices), *r.shape)
        assert np.array_equal(got, per_lattice_cut_counts(lattices, r))

    @settings(max_examples=400, deadline=None)
    @given(count_table())
    @example(np.zeros((2, 0)))  # no radius
    @example(np.array([[7.0]]))  # one radius
    @example(np.array([[0.0, 0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]]))
    @example(np.array([[1.0, 2.0, 3.0, 5.0, 9.0, 17.0, 300.0, 301.0, 5000.0]]))
    @example(np.array([[2.0, 1.0, 4.0], [1.0, 1.0, 1.0]]))  # not ascending
    @example(np.array([[3.0, 5.0, 9.0, 9.0], [1.0, 4.0, 2.0, 0.0]]))  # one term not ascending
    # one bucket: the second term's largest count is not its count at the top
    @example(np.array([[5.0, 6.0, 7.0, 8.0], [1.0, 4.0, 2.0, 0.0]]))
    def test_buckets_match_frexp_groups(self, counts):
        # one searchsorted over the group boundaries 2^j + 1 and the bucket
        # maxima give the buckets of the frexp rule, as Python ints
        edges, takes = fn._buckets(counts)
        assert (edges, takes) == bucket_oracle(counts, np.empty(counts.shape[1]))
        assert all(type(x) is int for x in [*edges, *itertools.chain(*takes)])

    def test_lacunary_length_for_recorded_values(self):
        got = {case: fn.lacunary_length_for(*case) for case in LENGTH_CASES}
        assert got == LENGTH_CASES


# Depth-5 banks that certify r = 0.95, at each shape an id is stated for;
# the vanishing-start id gets a zero lattice start prepended.
ROUTE_SHAPES = ((0, 1), (1, 1), (0, 2), (1, 3), (3, 3))
ROUTE_S = 1.5
ROUTE_GRIDS = {
    "with_zero": np.linspace(0.0, 0.95, 240),
    "to_095": np.linspace(0.5, 0.95, 200),
    "unsorted": np.random.default_rng(9).permutation(np.linspace(0.0, 0.95, 240)),
    "single_radius": np.array([0.83]),
}


@functools.lru_cache(maxsize=None)
def route_bank(m, p):
    length = fn.lacunary_length_for(m, p, 0.95) + 1
    return np.abs(schur.sample_bank([11 ^ i for i in range(30)], 5, length - 1))


def route_cases(tid):
    """(bank, m, p) for every shape in ROUTE_SHAPES the id is stated for."""
    th = fn._THEOREMS[tid]
    for m, p in ROUTE_SHAPES:
        if (th.shape not in (None, (m, p)) or (th.odd_gap and p % 2 == 0)
                or (th.positive_m and m < 1)):
            continue
        bank = route_bank(m, p)
        if th.vanishing_start:
            bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
        yield bank, m, p


def in_window(tid, grid):
    """The grid's radii inside the id's window, or its midpoint if none are."""
    window = fn._THEOREMS[tid].window
    if window is None:
        return grid
    lo, hi = window[0], min(window[1], 0.95)
    inside = grid[(grid >= lo) & (grid <= hi)]
    return inside if inside.size else np.array([(lo + hi) / 2])


class TestStackedRoute:
    """The margin core against each left side as written, term by term."""

    @pytest.mark.parametrize("tid", fn.THEOREM_IDS)
    def test_matches_written_terms(self, tid):
        for bank, m, p in route_cases(tid):
            for name, grid in ROUTE_GRIDS.items():
                grid = in_window(tid, grid)
                lhs, _ = fn.theorem_margins(tid, bank, m, p, grid, extras={"s": ROUTE_S})
                want, reorder = written_lhs(tid, bank, m, p, grid, s=ROUTE_S)
                assert lhs.shape == want.shape
                assert np.all(np.abs(lhs - want) <= 1e-15 + reorder), (m, p, name)

    @pytest.mark.parametrize("tid", fn.THEOREM_IDS)
    def test_one_radius_matches_grid(self, tid):
        # one radius takes the per-term route and a grid the stacked one;
        # the first, middle and last radii fall in the first, a middle and
        # the last bucket of the grid's counts
        for bank, m, p in route_cases(tid):
            grid = in_window(tid, np.linspace(0.001, 0.95, 600))
            lhs, _ = fn.theorem_margins(tid, bank, m, p, grid, extras={"s": ROUTE_S})
            for i in (0, grid.size // 2, grid.size - 1):
                alone, _ = fn.theorem_margins(tid, bank, m, p, grid[i:i + 1],
                                              extras={"s": ROUTE_S})
                _, reorder = written_lhs(tid, bank, m, p, grid[i:i + 1], s=ROUTE_S)
                assert np.all(np.abs(alone - lhs[:, i:i + 1]) <= 1e-15 + reorder), (m, p, i)

    @pytest.mark.parametrize("tid", fn.THEOREM_IDS)
    def test_equals_full_width_build(self, tid):
        # each term's columns are built only as far as a bucket reads them;
        # the products read the same bits as from every column built
        grids = dict(ROUTE_GRIDS, head=HEAD_GRID)
        builds = []
        for bank, m, p in route_cases(tid):
            for name, grid in grids.items():
                grid = in_window(tid, grid)
                if grid.size < 2:  # one radius sums each term in place
                    continue
                got = fn.theorem_margins(tid, bank, m, p, grid, extras={"s": ROUTE_S})
                want = full_width_margins(tid, bank, m, p, grid, builds, extras={"s": ROUTE_S})
                assert np.array_equal(got[0], want[0]), (m, p, name)
                assert np.array_equal(got[1], want[1]), (m, p, name)
        # the oracle built columns the engine would not have (it is not
        # vacuous); an envelope's grids inside its window read every column
        if fn._THEOREMS[tid].window is None:
            assert any(n < built for n, built in builds), builds

    @pytest.mark.parametrize("tid", [t for t in fn.THEOREM_IDS if fn._THEOREMS[t].window is None])
    def test_head_call_builds_only_read_columns(self, tid, monkeypatch):
        # a campaign row's first bucket on a 500 x 163 bank reads 1-3
        # columns of each term
        built, columns = [], fn._columns

        def counted(*args, **kwargs):
            w = columns(*args, **kwargs)
            built.append(w.size)
            return w

        monkeypatch.setattr(fn, "_columns", counted)
        th = fn._THEOREMS[tid]
        m, p = th.shape or (1, 3)
        bank = BUDGET_SHIFTED if th.vanishing_start else BUDGET_BANK
        fn.theorem_margins(tid, bank, m, p, HEAD_GRID, extras={"s": ROUTE_S})
        plan = fn._plan(th, m, p, bank.shape[1], ROUTE_S, 1.0).lattices
        read = [count.max() for count in fn._cut_counts(plan, HEAD_GRID)]
        # one build per lattice slice and power, read by every term that shares it
        shared = {(t.cols.start, t.cols.stop, t.cols.step, t.power) for t in th.terms}
        assert len(built) == len(shared)
        assert sum(built) <= bank.shape[0] * sum(read) < bank.size


# The radii of a fine_grid row's first bucket, where each lattice sum
# needs 1-3 columns.
HEAD_GRID = 0.001 + 0.0005 * np.arange(49)

# The campaign's margin-core call: 500 depth-5 samples of order 162, the
# lattice length that certifies r = 0.95 at shape (1, 3), on a 0.0005 step.
BUDGET_BANK = np.abs(schur.sample_bank([3 ^ i for i in range(500)], 5, 162))
BUDGET_SHIFTED = np.hstack([np.zeros((500, 1)), BUDGET_BANK])  # a vanishing start
BUDGET_GRID = 0.001 + 0.0005 * np.arange(1899)
BUDGET_CALLS = {  # core: (call, (S, R) arrays it returns)
    "LemDOdd": (lambda: fn.theorem_margins("LemDOdd", BUDGET_BANK, 1, 3, BUDGET_GRID), 1),
    "LemDEven": (lambda: fn.theorem_margins("LemDEven", BUDGET_BANK, 1, 3, BUDGET_GRID), 2),
    "ThmC": (lambda: fn.theorem_margins("ThmC", BUDGET_BANK, 1, 3, BUDGET_GRID), 1),
    "Thm34": (lambda: fn.theorem_margins("Thm34", BUDGET_BANK, 1, 3, BUDGET_GRID), 1),
    "Thm32": (lambda: fn.theorem_margins("Thm32", BUDGET_SHIFTED, 1, 3, BUDGET_GRID), 1),
    "Cor43": (lambda: fn.theorem_margins("Cor43", BUDGET_BANK, 1, 3, BUDGET_GRID), 1),
    "Lem21": (lambda: md.lemma21_margins(BUDGET_BANK, 1, 3, BUDGET_GRID), 2),
}


# core: (bank, exact); each writes its left side into a given ``out``
BUDGET_OUT_CALLS = {
    "LemDOdd": (BUDGET_BANK, False),
    "LemDEven": (BUDGET_BANK, False),
    "ThmC": (BUDGET_BANK, False),
    "Thm34": (BUDGET_BANK, False),
    "Thm32": (BUDGET_SHIFTED, False),
    "Cor43": (BUDGET_BANK, False),
    "Lem21": (BUDGET_BANK, True),
}


def traced_peak(call):
    """Bytes a call holds at its peak beyond what was held before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


class TestAllocationBudget:
    CELLS = BUDGET_BANK.shape[0] * BUDGET_GRID.size

    @pytest.mark.parametrize("core", sorted(BUDGET_CALLS))
    def test_peak_within_returned_arrays(self, core):
        # numpy reports its buffers to tracemalloc, so this counts bytes, not
        # time: a core may hold its returned (S, R) arrays plus 0.6 of one
        call, returned = BUDGET_CALLS[core]
        out, peak = traced_peak(call)
        assert out[0].shape == (500, 1899)
        assert peak <= (returned + 0.6) * self.CELLS * 8, peak / (self.CELLS * 8)

    @pytest.mark.parametrize("tid", fn.THEOREM_IDS)
    def test_right_sides_of_r_alone_have_stride_zero(self, tid):
        # a bound of r alone (or the bound 1) is one row read along the
        # samples with stride 0; ThmB, LemDEven and Lem21 depend on mu_0 too
        for bank, m, p in route_cases(tid):
            for grid in (in_window(tid, ROUTE_GRIDS["to_095"]), np.array([0.83])):
                grid = in_window(tid, grid)
                _, rhs = fn.theorem_margins(tid, bank, m, p, grid, extras={"s": ROUTE_S})
                assert rhs.shape == (bank.shape[0], grid.size)
                assert not rhs.flags.writeable
                assert (rhs.strides[0] == 0) == (tid not in ("ThmB", "LemDEven", "Lem21"))

    @pytest.mark.parametrize("core", sorted(BUDGET_OUT_CALLS))
    def test_peak_beyond_out(self, core):
        # the left side goes into the caller's buffer, a column slice of a
        # wider workspace as a campaign passes it; only a right side that
        # depends on the sample (LemDEven, Lem21) is a second (S, R) array
        bank, exact = BUDGET_OUT_CALLS[core]
        work = np.full((500, BUDGET_GRID.size + 37), -1.0)
        out = work[:, :BUDGET_GRID.size]
        (lhs, rhs), peak = traced_peak(lambda: fn.theorem_margins(
            core, bank, 1, 3, BUDGET_GRID, out=out, exact=exact))
        assert lhs is out and np.all(work[:, BUDGET_GRID.size:] == -1.0)
        sample_rhs = core in ("LemDEven", "Lem21")
        assert (rhs.strides[0] != 0) == sample_rhs
        assert peak <= (sample_rhs + 0.6) * self.CELLS * 8, peak / (self.CELLS * 8)
        want, _ = fn.theorem_margins(core, bank, 1, 3, BUDGET_GRID, exact=exact)
        assert np.array_equal(lhs, want)


# A sharpness scan's margin-core call: the extremal family's moduli on the
# 2048-step scan grid, at one radius; Thm32 takes them with a vanishing start.
SCAN_TABLE = schur.family_moduli(md.default_scan_grid(2048), 170)
SCAN_TABLES = {"ThmC": SCAN_TABLE, "Thm34": SCAN_TABLE, "Cor43": SCAN_TABLE,
               "Thm32": np.hstack([np.zeros((SCAN_TABLE.shape[0], 1)), SCAN_TABLE])}


class TestOneRadius:
    """One radius reads each term's lattice slice of the table in place."""

    @pytest.mark.parametrize("core", sorted(SCAN_TABLES))
    def test_allocates_no_table(self, core):
        # at r = 0.9 and shape (1, 3) the terms keep 70-144 of the 170 columns
        table = SCAN_TABLES[core]
        (lhs, _), peak = traced_peak(lambda: fn.theorem_margins(core, table, 1, 3, [0.9]))
        assert lhs.shape == (table.shape[0], 1)
        assert peak <= 0.05 * SCAN_TABLE.nbytes, peak / SCAN_TABLE.nbytes

    @pytest.mark.parametrize("core", sorted(SCAN_TABLES))
    def test_matches_written_terms(self, core):
        table = SCAN_TABLES[core]
        work = np.full((table.shape[0], 3), -1.0)
        for r in (0.3, 0.7, 0.9):
            lhs, _ = fn.theorem_margins(core, table, 1, 3, [r], out=work[:, 1:2])
            want, reorder = written_lhs(core, table, 1, 3, [r])
            assert lhs.base is work and np.all(work[:, ::2] == -1.0)
            assert np.all(np.abs(lhs - want) <= 1e-15 + reorder), r


class TestOut:
    BANK = BUDGET_BANK[:4]
    GRID = np.array([0.1, 0.2, 0.3])

    @pytest.mark.parametrize("out", [
        np.empty((4, 2)), np.empty((3, 3)), np.empty((4, 3, 1)), np.empty((4, 3), np.float32),
        np.empty((4, 3), complex), np.zeros((4, 3)).tolist(),
        np.broadcast_to(np.empty(3), (4, 3)),  # read-only
    ])
    def test_bad_out_raises(self, out):
        with pytest.raises(ParameterOutOfRange, match="^out must be a writable float64"):
            fn.theorem_margins("ThmC", self.BANK, 1, 3, self.GRID, out=out)

    @pytest.mark.parametrize("r", [[0.3], [0.1, 0.2, 0.3]])
    def test_both_routes_fill_out(self, r):
        # one radius sums term by term, a grid in one product; both fill out
        out = np.empty((4, len(r)))
        lhs, _ = fn.theorem_margins("Cor43", self.BANK, 1, 3, r, out=out)
        want, _ = fn.theorem_margins("Cor43", self.BANK, 1, 3, r)
        assert lhs is out and np.array_equal(out, want)


class TestModsShape:
    @pytest.mark.parametrize("shape", [(2, 3, 40), (2, 40, 3), (1, 2, 1, 40)])
    def test_more_than_two_axes_raise(self, shape):
        # not read as samples of the last axes' moduli, nor left to unpacking
        with pytest.raises(ParameterOutOfRange, match="^mods must be") as err:
            fn.theorem_margins("ThmC", np.full(shape, 0.01), 1, 3, [0.1, 0.2])
        assert str(shape) in str(err.value)


# (argument, value): a coefficient bound or truncation tolerance under
# which no certificate holds; a bound of 0 cuts every column
VOID_LIMITS = [("coeff_bound", 0.0), ("coeff_bound", -1.0), ("coeff_bound", math.nan),
               ("coeff_bound", math.inf), ("trunc_tol", 0.0), ("trunc_tol", -1e-10),
               ("trunc_tol", math.nan), ("trunc_tol", math.inf)]


class TestCertificateLimits:
    @pytest.mark.parametrize("name, value", VOID_LIMITS)
    def test_margins_refuse_a_void_limit(self, name, value):
        with pytest.raises(ParameterOutOfRange, match=f"^{name} must be a positive finite"):
            fn.theorem_margins("LemDOdd", np.full((1, 200), 0.5), 0, 1, [0.5], **{name: value})

    @pytest.mark.parametrize("name, value", VOID_LIMITS)
    def test_length_refuses_a_void_limit(self, name, value):
        with pytest.raises(ParameterOutOfRange, match=f"^{name} must be a positive finite"):
            fn.lacunary_length_for(1, 3, 0.5, **{name: value})

    @pytest.mark.parametrize("m, p", [(0, 1), (1, 3)])
    def test_length_refuses_a_radius_that_is_not_a_number(self, m, p):
        # NaN fails both r <= 0 and r >= 1; it must not take the r = 0 length
        with pytest.raises(RadiusOutOfRange):
            fn.lacunary_length_for(m, p, math.nan)
        assert fn.lacunary_length_for(m, p, 0.0) == 1


def admitted_shapes(tid, p_max=5):
    """Every shape (m, p) with p <= p_max that the id is stated for."""
    th = fn._THEOREMS[tid]
    return [(m, p) for p in range(1, p_max + 1) for m in range(p + 1)
            if th.shape in (None, (m, p)) and not (th.odd_gap and p % 2 == 0)
            and not (th.positive_m and m < 1)]


class TestPlanCache:
    """Each core is planned once per shape, bank length, s and coefficient
    bound; the plan holds only constants of those."""

    @pytest.mark.parametrize("tid", fn.THEOREM_IDS)
    def test_cold_call_equals_warm_call(self, tid):
        th = fn._THEOREMS[tid]
        top = min(0.9, th.window[1]) if th.window else 0.9
        for m, p in admitted_shapes(tid):
            length = fn.lacunary_length_for(m, p, top, coeff_bound=1.5)
            bank = np.abs(schur.sample_bank([5 ^ i for i in range(6)], 5, length - 1))
            if th.vanishing_start:
                bank = np.hstack([np.zeros((bank.shape[0], 1)), bank])
            grids = [in_window(tid, np.linspace(0.0, top, 40)), np.array([top])]
            calls = [(grid, bound, s) for grid in grids for bound in (1.0, 1.5) for s in (0.5, 2.0)]
            cold = []
            for grid, bound, s in calls:
                fn._plan.cache_clear()
                cold.append(fn.theorem_margins(tid, bank, m, p, grid, extras={"s": s},
                                               coeff_bound=bound))
            # warm: every call's plan, and its neighbours', already cached
            for (grid, bound, s), (lhs, rhs) in reversed(list(zip(calls, cold))):
                warm = fn.theorem_margins(tid, bank, m, p, grid, extras={"s": s},
                                          coeff_bound=bound)
                assert np.array_equal(warm[0], lhs) and np.array_equal(warm[1], rhs), (m, p)

    def test_cached_vectors_are_read_only(self):
        for tid in ("ThmC", "Thm31"):
            plan = fn._plan(fn._THEOREMS[tid], 0, 1, 40, 1.5, 1.0)
            arrays = [a for a in (*plan.exps, *plan.signs) if a is not None]
            assert len(arrays) >= 3
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 2.0

    def test_repeated_calls_reuse_one_plan(self):
        # bohr_sums' two sums are module constants, so a repeat finds them
        fn._plan.cache_clear()
        prof = mobius_profile(0.5, 1, 3)
        for _ in range(200):
            fn.bohr_sums(prof, 0.4)
            fn.evaluate_theorem("ThmC", prof, 0.4)
        info = fn._plan.cache_info()
        assert info.currsize == info.misses == 3, info  # B, A and ThmC at (1, 3)

    def test_stays_bounded(self):
        fn._plan.cache_clear()
        maxsize = fn._plan.cache_info().maxsize
        assert maxsize is not None
        for length in range(1, 501):  # 1000 calls, 1500 keys
            prof = fn.LacunaryProfile(0, 1, np.full(length, 0.5), exact=True)
            fn.bohr_sums(prof, 0.5)
            fn.evaluate_theorem("ThmB", prof, 0.5)
        assert fn._plan.cache_info().currsize == maxsize < 1000
