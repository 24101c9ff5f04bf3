import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrcert import functionals as fn
from bohrcert import multidim as md
from bohrcert import radius as rad
from bohrcert import schur
from bohrcert.series import TruncatedSeries
from bohrcert.errors import (
    DegenerateDirection,
    OddGapRequired,
    ParameterOutOfRange,
    RadiusOutOfRange,
    ShapeMismatch,
    UnknownTheorem,
)

from support import (
    fft_coefficients,
    monomial_lift,
    named_mapping,
    per_seed_directions,
    written_lhs,
)

E1 = md.Direction(np.array([1.0, 0.0, 0.0]), 2.0)


class TestLtNorm:
    def test_euclidean(self):
        assert md.lt_norm([3.0, 4.0], 2.0) == pytest.approx(5.0)

    def test_sup(self):
        assert md.lt_norm([1.0, 1.0], math.inf) == pytest.approx(1.0)

    def test_l1(self):
        assert md.lt_norm([0.5, 0.5], 1.0) == pytest.approx(1.0)

    def test_t_below_one(self):
        with pytest.raises(ParameterOutOfRange):
            md.lt_norm([1.0], 0.5)

    @pytest.mark.parametrize("t", [math.nan, -math.inf])
    def test_t_nan_or_minus_inf(self, t):
        with pytest.raises(ParameterOutOfRange):
            md.lt_norm([1.0], t)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=6),
           st.floats(min_value=1.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=30.0))
    def test_nonincreasing_in_t(self, v, t1, dt):
        assert md.lt_norm(v, t1 + dt) <= md.lt_norm(v, t1) + 1e-9

    def test_t64_close_to_sup(self):
        # near-ties of the max keep the 64-norm measurably above the sup
        # norm, so draw with a modulus gap
        rng = np.random.default_rng(0)
        for _ in range(50):
            mods = np.concatenate([[1.0], rng.uniform(0.05, 0.9, 4)])
            v = mods * np.exp(2j * np.pi * rng.uniform(size=5))
            assert abs(md.lt_norm(v, 64.0) - md.lt_norm(v, math.inf)) < 1e-2


class TestDirection:
    def test_normalization_invariant(self):
        with pytest.raises(ParameterOutOfRange):
            md.Direction(np.array([1.0, 1.0]), 2.0)
        d = md.Direction.normalized([1.0, 1.0], 2.0)
        assert md.lt_norm(d.z0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_random_deterministic(self):
        a = md.random_direction(3, 4, 2.0)
        b = md.random_direction(3, 4, 2.0)
        assert np.array_equal(a.z0, b.z0)

    def test_nan_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            md.Direction(np.array([1.0, 0.0]), math.nan)
        with pytest.raises(ParameterOutOfRange):
            md.Direction(np.array([math.nan, 0.0]), 2.0)
        with pytest.raises(ParameterOutOfRange):
            md.random_direction(1, 4, math.nan)

    def test_sup_norm_inf_direction(self):
        d = md.random_direction(5, 4, math.inf)
        assert d.sup_norm == pytest.approx(1.0, abs=1e-12)



class _ZeroNormals:
    """A generator whose normal draws are all zero."""

    def standard_normal(self, out):
        out[...] = 0.0
        return out


class TestRandomDirections:
    """The batched draw of library callers: one (S, n) array of directions.

    A campaign draws none: its vector rows run at the worst direction e_1."""

    @pytest.mark.parametrize("t", [1.0, 2.0, math.inf])
    def test_campaign_sup_norms_match_direction(self, t):
        seeds = [0x5EED ^ i for i in range(300)]
        # the sup norms c = max_j |z0_j| by which a direction scales a slice's norms
        sup = np.abs(md.random_directions(seeds, 4, t)).max(axis=1)
        for seed, got in zip(seeds, sup):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert got == md.Direction.normalized(v, t).sup_norm  # bit for bit

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.5, math.inf])
    def test_rows_are_unit_and_match_one_draw(self, t):
        seeds = [17 ^ i for i in range(40)]
        rows = md.random_directions(seeds, 5, t)
        assert rows.shape == (40, 5)
        for seed, row in zip(seeds, rows):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            assert md.lt_norm(row, t) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(row - md.Direction.normalized(v, t).z0).max() <= 1e-15

    def test_rejects_what_lt_norm_rejects(self):
        for t in (0.5, math.nan, -math.inf):
            with pytest.raises(ParameterOutOfRange):
                md.random_directions([1, 2], 4, t)
        with pytest.raises(ParameterOutOfRange):
            md.random_directions([1, 2], 0, 2.0)

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.5, math.inf])
    @pytest.mark.parametrize("n", [1, 4])
    def test_rows_equal_per_seed_draws(self, n, t):
        seeds = [0, 2**64, 2**128 - 1] + [0xD1A5 ^ i for i in range(64)]
        assert np.array_equal(md.random_directions(seeds, n, t),
                              per_seed_directions(seeds, n, t))

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, 2.0, None])
    def test_seed_domain(self, seed):
        for call in (lambda: md.random_directions([3, seed], 4, 2.0),
                     lambda: md.random_direction(seed, 4, 2.0)):
            with pytest.raises(ParameterOutOfRange, match=r"^seed must be an integer"):
                call()

    def test_zero_vector_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _ZeroNormals())
        with pytest.raises(DegenerateDirection):
            md.random_directions([1, 2, 3], 4, 2.0)
        with pytest.raises(DegenerateDirection):
            md.random_direction(1, 4, 2.0)

class TestSliceFromDirection:
    def test_monomial_slice(self):
        s = md.slice_from_direction("SharpThm41", E1, 8, m=1, p=1)
        h1 = s.components[0]
        assert h1.coeffs[2] == pytest.approx(1.0)
        assert np.abs(np.delete(h1.coeffs, 2)).max() == 0.0
        for h in s.components[1:]:
            assert np.abs(h.coeffs).max() == 0.0

    def test_mobius_slice_coefficients(self):
        s = md.slice_from_direction("SharpThm34", E1, 64, a=0.5, m=1, p=1)
        h1 = s.components[0]
        assert np.allclose(h1.coeffs.real[1:4], [0.5, -0.75, -0.375], atol=1e-13)

    def test_rotated_direction_moduli(self):
        # first coordinate on a ray: coefficient moduli match the e1 slice
        z0 = md.Direction.normalized([1j, 0.0], 2.0)
        s = md.slice_from_direction("SharpThm34", z0, 64, a=0.5, m=1, p=2)
        nu = md.frechet_norms(s, 1.0)
        assert nu[0] == pytest.approx(0.5)
        assert nu[1] == pytest.approx(0.75)
        assert nu[2] == pytest.approx(0.375)

    def test_general_zg_constant(self):
        c = 0.3 + 0.4j
        z0 = md.Direction.normalized([1.0, 1j], 2.0)
        s = md.slice_from_direction("GeneralZG", z0, 6, m=1, p=1,
                                    g=TruncatedSeries([c, 0, 0, 0, 0], abs(c)))
        for j, h in enumerate(s.components):
            assert h.coeffs[1] == pytest.approx(c * z0.z0[j])

    @pytest.mark.parametrize("t", [2.0, math.inf])
    @pytest.mark.parametrize("kind, a, m, p", [
        ("SharpThm34", 0.6, 1, 1),
        ("SharpThm34", 0.8, 2, 3),
        ("SharpThm41", None, 1, 2),
        ("SharpThm41", None, 3, 3),
        ("SharpCor42", 0.6, None, None),
    ])
    def test_matches_pointwise_mapping(self, kind, a, m, p, t):
        # w = (z0)_1 off the real axis: each component is the mapping at
        # lambda z0, inverted by FFT on |lambda| = 0.9
        z0 = md.Direction.normalized([0.6 + 0.5j, -0.3 + 0.2j, 0.1 - 0.4j], t)
        order = 48
        s = md.slice_from_direction(kind, z0, order, a=a, m=m, p=p)
        mm, pp = (1, 1) if kind == "SharpCor42" else (m, p)
        want = fft_coefficients(
            lambda lam: named_mapping(kind, lam[:, None] * z0.z0[None, :], a, mm, pp),
            order, rho=0.9)
        got = np.array([h.coeffs for h in s.components])
        assert got.shape == want.shape == (3, order + 1)
        assert np.abs(got - want).max() <= 1e-12

    def test_degenerate_direction(self):
        z0 = md.Direction(np.array([0.0, 1.0]), 2.0)
        with pytest.raises(DegenerateDirection):
            md.slice_from_direction("SharpThm34", z0, 16, a=0.5, m=1, p=1)

    def test_zg_shape_validation(self):
        z0 = md.Direction.normalized([1.0, 1.0], 2.0)
        bad_g = TruncatedSeries([0.5, 0.5, 0.0, 0.0], 1.0)  # not (1,2)-compatible
        with pytest.raises(ShapeMismatch):
            md.slice_from_direction("GeneralZG", z0, 4, m=2, p=2, g=bad_g)


class TestFrechetNorms:
    def test_monomial_norms(self):
        s = md.slice_from_direction("SharpThm41", E1, 8, m=1, p=1)
        nu = md.frechet_norms(s, 0.5)
        assert nu[1] == pytest.approx(0.25)
        assert np.abs(np.delete(nu, 1)).max() == 0.0

    def test_zero_mapping(self):
        z = TruncatedSeries(np.zeros(7), 0.0)
        s = md.SliceMapping((z, z), 1, 2, 2.0)
        assert np.abs(md.frechet_norms(s, 0.7)).max() == 0.0

    def test_single_component_equals_moduli(self):
        phi = schur.sample_schur(3, 4, 32)
        g = monomial_lift(phi, 0, 2)  # lambda^(m-1) phi(lambda^p), m=1, p=2
        one_dir = md.Direction(np.array([1.0]), 2.0)
        s = md.slice_from_direction("GeneralZG", one_dir, g.order + 1, m=1, p=2, g=g)
        nu = md.frechet_norms(s, 1.0)
        assert np.allclose(nu, np.abs(phi.coeffs), atol=1e-15)


class TestVectorCheck:
    def test_thm34_at_root(self):
        s = md.slice_from_direction("SharpThm34", E1, 512, a=0.5, m=1, p=1)
        chk = md.vector_check("Thm34", s, 1.0 / math.sqrt(2.0))
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)

    def test_thm41_violated_above_radius(self):
        s = md.slice_from_direction("SharpThm41", E1, 8, m=1, p=1)
        chk = md.vector_check("Thm41", s, 0.8)
        assert chk.lhs == pytest.approx(0.64 / 0.36, abs=1e-12)
        assert not chk.satisfied

    def test_cor42_value(self):
        # slice of z * (a - z1)/(1 - a z1) along e1 at a = 0.5, r = 0.2;
        # hand-derived closed form: a r + (1-a^2) r^2/(1-a r)
        #   + (1/(r(1+a)) + 1/(1-r)) (1-a^2)^2 r^4 / (1-a^2 r^2) = 11/80
        s = md.slice_from_direction("SharpCor42", E1, 400, a=0.5)
        chk = md.vector_check("Cor42", s, 0.2)
        assert chk.lhs == pytest.approx(0.1375, abs=1e-12)
        assert chk.satisfied

    def test_zg_ids_reject_m0(self):
        phi = schur.sample_schur(5, 4, 64)
        one_dir = md.Direction(np.array([1.0]), 2.0)
        s = md.SliceMapping((monomial_lift(phi, 0, 1),), 0, 1, 2.0)
        for tid in ("Thm34", "Thm41", "Cor43", "Lem21"):
            with pytest.raises(ShapeMismatch):
                md.vector_check(tid, s, 0.4)

    def test_unknown_id(self):
        s = md.slice_from_direction("SharpThm41", E1, 8, m=1, p=1)
        with pytest.raises(UnknownTheorem):
            md.vector_check("ThmB", s, 0.3)

    def test_n1_matches_scalar(self):
        # single-component slices reproduce the scalar evaluation exactly
        one_dir = md.Direction(np.array([1.0]), 2.0)
        for seed, (m, p) in enumerate([(1, 1), (1, 3), (2, 3)]):
            phi = schur.sample_schur(seed + 60, 5, 512)
            g = monomial_lift(phi, m - 1, p)
            s = md.slice_from_direction("GeneralZG", one_dir, g.order + 1,
                                        m=m, p=p, g=g)
            prof = fn.LacunaryProfile(m, p, np.abs(phi.coeffs))
            for tid in ("Thm34", "Thm41", "Cor43"):
                for r in (0.3, 0.6):
                    a = md.vector_check(tid, s, r)
                    b = fn.evaluate_theorem(tid, prof, r)
                    assert abs(a.lhs - b.lhs) < 1e-14
                    assert a.rhs == b.rhs

    def test_lemma21_bound_holds(self):
        # 60 seeded z*g slices across three norms, grid to 0.95
        grid = np.arange(0.05, 0.951, 0.05)
        count = 0
        for t in (1.0, 2.0, math.inf):
            for seed in range(20):
                m, p = [(1, 1), (1, 3), (2, 3)][seed % 3]
                phi = schur.sample_schur(seed + 100, 5, 512)
                z0 = md.random_direction(seed, 4, t)
                g = monomial_lift(phi, m - 1, p)
                s = md.slice_from_direction("GeneralZG", z0, g.order + 1,
                                            m=m, p=p, g=g)
                nu = md.frechet_norms(s, 1.0)
                lhs, rhs = md.lemma21_margins(nu, m, p, grid)
                assert (rhs - lhs).min() >= -1e-9
                count += 1
        assert count == 60

    @pytest.mark.parametrize("m, p", [(m, p) for p in (1, 2, 3) for m in range(1, p + 1)])
    def test_lemma21_rhs_matches_written_form(self, m, p):
        nu0 = np.linspace(0.0, 1.0, 21)
        nu = np.hstack([nu0[:, None], np.full((nu0.size, 6), 0.1)])
        grid = np.linspace(0.0, 0.95, 96)
        _, rhs = md.lemma21_margins(nu, m, p, grid)
        want = (grid ** (2 * p - m) / (1.0 - grid ** (2 * p))) * (
            grid ** (2 * m) - (nu0[:, None] * grid ** m) ** 2)
        # a few roundings of the nu_0 = 0 value, the largest either form takes
        scale = grid ** (2 * p + m) / (1.0 - grid ** (2 * p))
        assert np.all(np.abs(rhs - want) <= 8 * np.finfo(float).eps * scale)

    def test_lemma21_rejects_nan_radius(self):
        with pytest.raises(RadiusOutOfRange):
            md.lemma21_margins(np.full((2, 8), 0.5), 1, 3, [0.3, np.nan])


class TestSharpnessScan:
    def test_thm32_anchor_grid(self):
        grid = md.default_scan_grid(400)
        assert md.sharpness_scan("Thm32", 1, 0, 0.6, grid) == pytest.approx(
            1.0, abs=1e-12
        )
        assert md.sharpness_scan("Thm32", 1, 0, 0.65, grid) == pytest.approx(
            1.2946, abs=1e-3
        )
        assert md.sharpness_scan("Thm32", 1, 0, 0.55, grid) == pytest.approx(
            0.7847, abs=1e-3
        )

    def test_thm32_bracketing(self):
        from bohrcert import radius as rd

        grid = md.default_scan_grid(400)
        for (p, m) in [(1, 0), (2, 1), (3, 3)]:
            rstar = rd.solve_radius(rd.RadiusSpec("Thm32", p, m))
            assert md.sharpness_scan("Thm32", p, m, rstar - 0.02, grid) <= 1.0
            assert md.sharpness_scan("Thm32", p, m, rstar + 0.02, grid) > 1.0

    def test_family_scans_flat_value(self):
        # the lifted automorphism family gives r^(p+m)/(1-r^2p) regardless
        # of the parameter, so scans cross 1 exactly at the sharp radius
        grid = np.linspace(0.0, 0.95, 40)
        for (p, m, r) in [(1, 0, 0.45), (1, 1, 0.62), (3, 2, 0.8)]:
            got = md.sharpness_scan("Thm34", p, m, r, grid)
            want = r ** (p + m) / (1.0 - r ** (2 * p))
            assert got == pytest.approx(want, abs=1e-11)

    def test_thm34_scan_is_its_closed_form(self):
        # LemDOdd is an equality on the lifted automorphism family, so the
        # Thm34 family's left side is r^(p+m)/(1 - r^2p) at every parameter:
        # at every radius-table shape (p <= 8, 0 <= m <= p), 0.01 on either
        # side of the radius, the scan equals that closed form within the
        # bound on reordering its whole family table, cut at 2^-64
        grid = md.default_scan_grid(2048)
        for p in range(1, 9):
            for m in range(p + 1):
                r = rad.solve_radius(rad.RadiusSpec("ThmC34", p, m))
                for at in (r - 0.01, r + 0.01):
                    table = schur.family_moduli(grid, int(fn._cut_length(m, p, at, 1.0)))
                    _, reorder = written_lhs("Thm34", table, m, p, [at])
                    got = md.sharpness_scan("Thm34", p, m, at, grid)
                    want = at ** (p + m) / (1.0 - at ** (2 * p))
                    assert abs(got - want) <= 1e-15 + reorder.max(), (p, m, at)

    def test_family_table_rows(self):
        a = np.array([0.0, 1.0 / 3.0, 0.9, 0.999])
        want = [[x] + [(1.0 - x * x) * x ** (k - 1) for k in range(1, 40)] for x in a]
        np.testing.assert_allclose(schur.family_moduli(a, 40), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("length", [0, -1])
    def test_family_table_needs_a_column(self, length):
        with pytest.raises(ParameterOutOfRange, match=f"length >= 1, got {length}"):
            schur.family_moduli(np.array([0.5]), length)

    @pytest.mark.parametrize("scan_id, p, m", [("Thm34", 1, 0), ("Thm41", 3, 2), ("Cor43", 5, 0)])
    def test_scan_rows_are_the_family(self, scan_id, p, m, monkeypatch):
        # the table a scan evaluates is, row by row, the lattice moduli of
        # extremal_family("LacunaryD", a, m, p), bit for bit
        tables = []

        def record(theorem_id, mods, *args, **kwargs):
            tables.append(mods)
            return fn.theorem_margins(theorem_id, mods, *args, **kwargs)

        monkeypatch.setattr(md, "theorem_margins", record)
        grid = md.default_scan_grid(64)
        md.sharpness_scan(scan_id, p, m, 0.6, grid)
        (mods,) = tables
        assert mods.shape[0] == grid.size
        order = m + (mods.shape[1] - 1) * p
        for a, row in zip(grid, mods):
            family = schur.extremal_family("LacunaryD", a, m, p, order).coeffs
            assert np.array_equal(row, np.abs(family[m::p]))

    def test_scan_grid_step_count(self):
        assert md.default_scan_grid(0).size == 6  # the fixed extra points only
        with pytest.raises(ParameterOutOfRange, match="step count >= 0, got -1"):
            md.default_scan_grid(-1)

    @pytest.mark.parametrize("scan_id, p, m", [
        ("Thm34", 0, 0), ("Thm32", 0, 0), ("Thm32", 1, 2), ("Thm41", 3, -1),
        ("Thm31", 0, 0),
    ])
    def test_scan_rejects_bad_shape(self, scan_id, p, m):
        with pytest.raises(ParameterOutOfRange, match="1 <= p and 0 <= m <= p"):
            md.sharpness_scan(scan_id, p, m, 0.5, [0.5], s=1.0)

    @pytest.mark.parametrize("scan_id", ["Thm31", "Thm32", "Thm34"])
    def test_scan_rejects_nan_parameter(self, scan_id):
        with pytest.raises(ParameterOutOfRange, match=r"lie in \[0, 1\)"):
            md.sharpness_scan(scan_id, 1, 0, 0.5, [0.2, math.nan, 0.4], s=1.0)

    def test_thm31_requires_s(self):
        # the core's own s rule, as theorem_margins applies it
        for s in (None, 0.0, -1.0, math.nan):
            with pytest.raises(ParameterOutOfRange, match="^Thm31 needs a positive exponent s$"):
                md.sharpness_scan("Thm31", 1, 0, 0.3, [0.5], s=s)
            with pytest.raises(ParameterOutOfRange, match="^Thm31 needs a positive exponent s$"):
                fn.theorem_margins("Thm31", [0.5, 0.1], 0, 1, 0.3, extras={"s": s}, exact=True)

    def test_unknown(self):
        with pytest.raises(UnknownTheorem):
            md.sharpness_scan("LemD", 1, 0, 0.3, [0.5])

    @pytest.mark.parametrize("p", [1, 3, 5])
    @pytest.mark.parametrize("equation, scan_id", [
        ("ThmC34", "Thm34"), ("ThmC34", "Thm41"), ("Cor43", "Cor43"),
    ])
    def test_matches_full_family_table(self, equation, scan_id, p):
        # against the whole order-512 family table, every column of each
        # term summed as written, within the bound on any reordering
        grid = md.default_scan_grid(256)
        for m in range(p + 1):
            table = schur.family_moduli(grid, (512 - m) // p + 1)
            r = rad.solve_radius(rad.RadiusSpec(equation, p, m))
            for at in (r - 0.01, r + 0.01):
                want, reorder = written_lhs(scan_id, table, m, p, [at])
                got = md.sharpness_scan(scan_id, p, m, at, grid)
                assert abs(got - want.max()) <= 1e-15 + reorder.max()

    # the scans of the radius table, p <= 8, that a table of order 512
    # could not certify at radius + 0.01
    @pytest.mark.parametrize("scan_id, p, m", [
        ("Thm34", 6, 6),
        *[(scan_id, 7, m) for m in (4, 5, 6, 7) for scan_id in ("Thm34", "Thm41")],
        *[("Thm34", 8, m) for m in range(1, 9)],
    ])
    def test_table_reaches_the_certified_radius(self, scan_id, p, m):
        # the scan straddles 1, and above the radius it matches the whole
        # family table to the lattice cut, each term summed as written,
        # within the bound on any reordering
        grid = md.default_scan_grid(256)
        r = rad.solve_radius(rad.RadiusSpec("ThmC34", p, m))
        assert md.sharpness_scan(scan_id, p, m, r - 0.01, grid) <= 1.0
        got = md.sharpness_scan(scan_id, p, m, r + 0.01, grid)
        assert got > 1.0
        table = schur.family_moduli(grid, int(fn._cut_length(m, p, r + 0.01, 1.0)))
        want, reorder = written_lhs(scan_id, table, m, p, [r + 0.01])
        assert abs(got - want.max()) <= 1e-15 + reorder.max()

    def test_table_cap_refuses_before_allocating(self, monkeypatch):
        # 65 542 x 29 920 cells at r = 0.999; the stub fails the test
        # rather than allocate them
        def no_table(a, length):
            pytest.fail(f"a {a.size} x {length} family table was built")

        monkeypatch.setattr(md, "family_moduli", no_table)
        grid = md.default_scan_grid(md.MAX_SCAN_STEPS)
        with pytest.raises(ParameterOutOfRange, match=f"cap {md.MAX_SCAN_CELLS} cells"):
            md.sharpness_scan("Thm34", 1, 0, 0.999, grid)
        # the largest order-512 table, which every scan read before, fits
        assert grid.size * (md.MIN_SCAN_ORDER + 1) <= md.MAX_SCAN_CELLS

    def test_table_cap_counts_the_table_cells(self, monkeypatch):
        grid = md.default_scan_grid(64)
        cells = []

        def record(a, length):
            cells.append(a.size * length)
            return schur.family_moduli(a, length)

        monkeypatch.setattr(md, "family_moduli", record)
        want = md.sharpness_scan("Thm41", 3, 1, 0.9, grid)
        monkeypatch.setattr(md, "MAX_SCAN_CELLS", cells[0])
        assert md.sharpness_scan("Thm41", 3, 1, 0.9, grid) == want
        monkeypatch.setattr(md, "MAX_SCAN_CELLS", cells[0] - 1)
        with pytest.raises(ParameterOutOfRange, match=f"cap {cells[0] - 1} cells"):
            md.sharpness_scan("Thm41", 3, 1, 0.9, grid)
        assert len(cells) == 2

    @pytest.mark.parametrize("scan_id, p, m", [("Thm41", 2, 0), ("Cor43", 4, 1)])
    def test_odd_gap_refused_before_the_table(self, scan_id, p, m, monkeypatch):
        def no_table(a, length):
            pytest.fail(f"a {a.size} x {length} family table was built")

        monkeypatch.setattr(md, "family_moduli", no_table)
        with pytest.raises(OddGapRequired):
            md.sharpness_scan(scan_id, p, m, 0.5, md.default_scan_grid(64))

    @pytest.mark.parametrize("p, m", [(3, 2), (1, 1), (2, 0)])
    def test_thm31_scan_keeps_its_shape(self, p, m):
        with pytest.raises(ShapeMismatch, match=r"stated for shape \(m, p\) = \(0, 1\)"):
            md.sharpness_scan("Thm31", p, m, 0.5, [0.5], s=1.0)
