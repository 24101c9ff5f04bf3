import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrcert import schur
from bohrcert.errors import ParameterOutOfRange
from bohrcert.harness import MAX_DEPTH

from support import (
    division_family,
    fourier_coefficients,
    one_function_route_taylor,
    per_seed_gammas,
    pointwise_recursion,
    sample_parameters,
    series_route_taylor,
)


def disk_points(count, radius=0.999):
    theta = 2.0 * np.pi * np.arange(count) / count
    return radius * np.exp(1j * theta)


class TestSchurToTaylor:
    def test_single_parameter_is_constant(self):
        f = schur.schur_to_taylor([0.3 - 0.4j], 5)
        assert f.coeffs[0] == pytest.approx(0.3 - 0.4j)
        assert np.abs(f.coeffs[1:]).max() == 0.0

    def test_zero_then_gamma_is_linear(self):
        g1 = 0.25 + 0.5j
        f = schur.schur_to_taylor([0.0, g1], 5)
        assert f.coeffs[1] == pytest.approx(g1)
        assert abs(f.coeffs[0]) == 0.0
        assert np.abs(f.coeffs[2:]).max() < 1e-15

    def test_first_order_expansion(self):
        # c_1 = (1 - |gamma_0|^2) gamma_1
        f = schur.schur_to_taylor([0.5, 0.5], 8)
        assert f.coeffs[0] == pytest.approx(0.5)
        assert f.coeffs[1] == pytest.approx(0.375)

    def test_modulus_validation(self):
        with pytest.raises(ParameterOutOfRange):
            schur.schur_to_taylor([1.0, 0.5], 4)  # interior on the boundary
        with pytest.raises(ParameterOutOfRange):
            schur.schur_to_taylor([0.5, 1.5], 4)
        schur.schur_to_taylor([0.5, 1.0], 4)  # boundary final entry is fine

    @pytest.mark.parametrize("gammas", [
        [0.5, np.nan, 0.3],
        [0.5, 0.3, np.nan],
        [np.nan, 0.3],
        [0.2, complex(0.0, np.inf)],
        [complex(np.inf, 1.0), 0.3],
    ])
    def test_non_finite_rejected(self, gammas):
        with pytest.raises(ParameterOutOfRange):
            schur.schur_to_taylor(gammas, 4)

    @pytest.mark.parametrize("order", [0, 1, 16, 161, 512, 2560])
    def test_series_route_oracle(self, order):
        for depth in range(1, 10):
            gammas = sample_parameters(1000 + depth, depth).gammas
            got = schur.schur_to_taylor(gammas, order).coeffs
            assert got.size == order + 1
            assert np.abs(got - series_route_taylor(gammas, order)).max() < 1e-12

    def test_series_route_oracle_boundary_and_short(self):
        # final parameter on the circle: a finite Blaschke product
        blaschke = (0.6 - 0.3j, -0.4j, 0.7, np.exp(0.9j))
        # orders below the depth of 9
        deep = sample_parameters(5, 9).gammas
        for gammas, order in [(blaschke, 0), (blaschke, 3), (blaschke, 512),
                              (deep, 0), (deep, 2), (deep, 8)]:
            got = schur.schur_to_taylor(gammas, order).coeffs
            assert np.abs(got - series_route_taylor(gammas, order)).max() < 1e-12

    def test_fourier_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            depth = int(rng.integers(1, 7))
            gammas = 0.9 * rng.uniform(0.1, 1, depth) * np.exp(
                2j * np.pi * rng.uniform(size=depth)
            )
            f = schur.schur_to_taylor(gammas, 16)
            want = fourier_coefficients(gammas, 16)
            assert np.abs(f.coeffs - want).max() < 1e-8

    def test_wiener_and_cauchy(self):
        for seed in range(25):
            f = schur.sample_schur(seed, 6, 128)
            mods = np.abs(f.coeffs)
            assert mods.max() <= 1 + 1e-12
            assert mods[1:].max() <= 1 - mods[0] ** 2 + 1e-12


class TestSampleSchur:
    def test_depth_one_constant(self):
        f = schur.sample_schur(7, 1, 4)
        gamma = sample_parameters(7, 1).gammas[0]
        assert f.coeffs[0] == pytest.approx(gamma)
        assert np.abs(f.coeffs[1:]).max() == 0.0

    def test_deterministic(self):
        a = schur.sample_schur(7, 5, 64)
        b = schur.sample_schur(7, 5, 64)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_different_seeds_differ(self):
        a = schur.sample_schur(7, 5, 64)
        b = schur.sample_schur(8, 5, 64)
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_disk_bounded_dense_oracle(self):
        # pointwise recursion values near the boundary stay inside the disk
        params = sample_parameters(7, 5)
        vals = pointwise_recursion(params.gammas, disk_points(4096))
        assert np.abs(vals).max() <= 1 + 1e-9

    def test_truncation_consistency(self):
        short = schur.sample_schur(11, 4, 16)
        long = schur.sample_schur(11, 4, 64)
        assert np.allclose(short.coeffs, long.coeffs[:17], atol=1e-15)



class TestBatchedBank:
    """The whole-bank route: one recurrence over k for every row at once."""

    @pytest.mark.parametrize("order", [0, 1, 16, 161])
    def test_bank_rows_match_series_route(self, order):
        for depth in range(1, 10):
            seeds = [(3000 + depth) ^ i for i in range(4)]
            gammas = schur.sample_gammas(seeds, depth)
            bank = schur.sample_bank(seeds, depth, order)
            assert bank.shape == (4, order + 1)
            for row, g in zip(bank, gammas):
                assert np.abs(row - series_route_taylor(g, order)).max() < 1e-12

    def test_bank_order_below_depth(self):
        seeds = [41 ^ i for i in range(5)]
        gammas = schur.sample_gammas(seeds, 9)
        for order in (0, 3, 8):
            bank = schur.taylor_rows(gammas, order)
            for row, g in zip(bank, gammas):
                assert np.abs(row - series_route_taylor(g, order)).max() < 1e-12

    @pytest.mark.parametrize("order", [0, 3, 161])
    def test_rows_equal_one_function_division(self, order):
        # lags summed in lfilter's order, products formed as lfilter forms
        # them: each row is bit for bit the function expanded on its own
        for depth in range(1, 10):
            seeds = [(5000 + depth) ^ i for i in range(6)]
            gammas = schur.sample_gammas(seeds, depth)
            bank = schur.sample_bank(seeds, depth, order)
            for row, g in zip(bank, gammas):
                assert np.array_equal(row, one_function_route_taylor(g, order))

    def test_split_bank_reproduces_serial(self):
        seeds = [20240802 ^ i for i in range(500)]
        whole = schur.sample_bank(seeds, 5, 161)
        assert np.array_equal(whole[:7], schur.sample_bank(seeds[:7], 5, 161))
        assert np.array_equal(whole[250:], schur.sample_bank(seeds[250:], 5, 161))
        for i in (0, 6, 499):
            assert np.array_equal(whole[i], schur.sample_schur(seeds[i], 5, 161).coeffs)

    def test_gammas_match_parameters(self):
        seeds = [9 ^ i for i in range(6)]
        gammas = schur.sample_gammas(seeds, 4)
        for seed, g in zip(seeds, gammas):
            assert tuple(g) == sample_parameters(seed, 4).gammas

    @pytest.mark.parametrize("where, value", [
        ((3, 1), np.nan),  # not finite
        ((2, 0), 1.0),  # interior on the circle
        ((4, 2), 0.6 + 0.9j),  # interior outside the disk
        ((1, 3), 1.0 + 1e-9),  # final outside the disk
    ])
    def test_batched_rejects_bad_parameters(self, where, value):
        gammas = schur.sample_gammas(range(6), 4)
        gammas[where] = value
        with pytest.raises(ParameterOutOfRange, match=f"row {where[0]}: "):
            schur.taylor_rows(gammas, 8)

    def test_batched_accepts_final_on_circle(self):
        gammas = schur.sample_gammas(range(3), 4)
        gammas[:, -1] = np.exp(1j * np.array([0.1, 2.0, -1.0]))
        bank = schur.taylor_rows(gammas, 64)
        for row, g in zip(bank, gammas):
            assert np.abs(row - series_route_taylor(g, 64)).max() < 1e-12

    def test_batched_shape_and_order_checks(self):
        with pytest.raises(ParameterOutOfRange):
            schur.taylor_rows(np.zeros(3), 4)  # one row must still be 2-D
        with pytest.raises(ParameterOutOfRange):
            schur.taylor_rows(np.zeros((2, 0)), 4)
        with pytest.raises(ParameterOutOfRange):
            schur.taylor_rows(np.zeros((2, 3)), -1)
        with pytest.raises(ParameterOutOfRange):
            schur.sample_gammas([1, 2], 0)
        assert schur.sample_bank([], 3, 5).shape == (0, 6)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**100 + 7, 2**128 - 1]
CAMPAIGN_SEEDS = [0x5EED1234 ^ i for i in range(64)]  # bank_seed ^ i
PCG_EDGE_SEEDS = [0, 2**32 - 1, 2**32 + 1, 2**64 - 1, 2**64 + 1, 2**127, 2**128 - 1]


class TestStreams:
    """The batched seeding against numpy's own, state by state and draw by draw.

    These fail, rather than let the samples drift, if numpy ever changes
    how default_rng seeds PCG64.
    """

    @pytest.mark.parametrize("seeds", [EDGE_SEEDS, CAMPAIGN_SEEDS])
    def test_states_equal_numpy_seeding(self, seeds):
        got = [rng.bit_generator.state for rng in schur._streams(seeds)]
        assert len(got) == len(seeds)
        for seed, state in zip(seeds, got):
            assert state == np.random.PCG64(seed).state, seed

    @pytest.mark.parametrize("depth", [1, 9])
    @pytest.mark.parametrize("seeds", [EDGE_SEEDS, CAMPAIGN_SEEDS])
    def test_gammas_and_banks_equal_per_seed_draws(self, seeds, depth):
        want = per_seed_gammas(seeds, depth)
        assert np.array_equal(schur.sample_gammas(seeds, depth), want)
        assert np.array_equal(schur.sample_bank(seeds, depth, 40), schur.taylor_rows(want, 40))

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a uint64 scalar that wraps
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0, 1, 500]).flatmap(lambda size: st.lists(
               st.integers(0, 2**128 - 1) | st.sampled_from(PCG_EDGE_SEEDS),
               min_size=size, max_size=size)),
           st.sampled_from([1, MAX_DEPTH]))
    def test_batched_draws_equal_per_seed_draws(self, seeds, depth):
        # every PCG64 step of every seed is taken at once, in uint64 halves
        got = schur.sample_gammas(seeds, depth)
        assert got.shape == (len(seeds), depth)
        assert np.array_equal(got, per_seed_gammas(seeds, depth))

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, 2.0, None])
    def test_seed_domain(self, seed):
        calls = [
            lambda: schur.sample_gammas([3, seed], 4),
            lambda: schur.sample_bank([seed], 4, 8),
            lambda: schur.sample_schur(seed, 4, 8),
            lambda: sample_parameters(seed, 4),
        ]
        for call in calls:
            with pytest.raises(ParameterOutOfRange, match=r"^seed must be an integer in \[0, 2\*\*128\), got "):
                call()

    def test_integer_like_seeds_are_their_value(self):
        want = schur.sample_gammas([5, 2**128 - 1], 3)
        assert np.array_equal(schur.sample_gammas([np.uint64(5), 2**128 - 1], 3), want)
        assert np.array_equal(schur.sample_gammas([np.int8(5), 2**128 - 1], 3), want)


class TestExtremalFamily:
    def test_lacunary_moduli_law(self):
        f = schur.extremal_family("LacunaryD", 0.5, 0, 1, 6)
        assert np.allclose(np.abs(f.coeffs[:4]), [0.5, 0.75, 0.375, 0.1875])

    def test_lacunary_general_shape(self):
        a, m, p = 0.6, 1, 3
        f = schur.extremal_family("LacunaryD", a, m, p, 40)
        mods = np.abs(f.coeffs)
        assert mods[m] == pytest.approx(a)
        for k in range(1, 12):
            assert mods[k * p + m] == pytest.approx((1 - a * a) * a ** (k - 1))
        lattice = set(range(m, 41, p))
        off = [mods[i] for i in range(41) if i not in lattice]
        assert max(off) == 0.0

    def test_monomial(self):
        f = schur.extremal_family("Monomial", 0.0, 1, 2, 5)
        want = np.zeros(6)
        want[3] = 1.0
        assert np.allclose(f.coeffs, want)

    def test_l2_a_zero(self):
        f = schur.extremal_family("L2", 0.0, 0, 1, 4)
        assert np.allclose(f.coeffs, [0, 0, -1, 0, 0])

    def test_l1_matches_mobius(self):
        f = schur.extremal_family("L1", 0.5, 0, 1, 4)
        assert np.allclose(f.coeffs.real, [0.5, -0.75, -0.375, -0.1875, -0.09375])

    def test_parameter_validation(self):
        bad = [
            ("LacunaryD", 1.0, 0, 1, 8),
            ("L1", -0.1, 0, 1, 8),
            ("L2", 0.5, 3, 2, 8),  # m > p
            ("Blaschke5", 0.5, 0, 1, 8),
            # every kind checks the shape, or a negative m would index
            # from the end of the coefficient vector
            ("Monomial", 0.0, -2, 1, 5),
            ("Monomial", 0.0, -9, 1, 5),
            ("Monomial", 0.0, 2, 1, 5),  # m > p
            ("Monomial", 0.0, 0, 0, 5),  # p = 0
            ("L1", 0.5, 2, 1, 8),
            ("L1", 0.5, 0, 0, 8),
        ]
        for args in bad:
            with pytest.raises(ParameterOutOfRange):
                schur.extremal_family(*args)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.99),
           st.integers(0, 3), st.integers(1, 3))
    def test_families_satisfy_wiener(self, a, m, p):
        if m > p:
            m = p
        for kind in ("L1", "LacunaryD", "L2"):
            f = schur.extremal_family(kind, a, m, p, 64)
            mods = np.abs(f.coeffs)
            assert mods.max() <= 1 + 1e-12
            assert mods[1:].max() <= 1 - mods[0] ** 2 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(("L1", "LacunaryD", "L2")),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.integers(1, 5), st.integers(0, 5), st.integers(1, 512))
    def test_matches_division_route(self, kind, a, p, m, order):
        m = min(m, p)
        got = schur.extremal_family(kind, a, m, p, order).coeffs
        want = division_family(kind, a, m, p, order)
        assert got.shape == want.shape == (order + 1,)
        # The same zero pattern once subnormals are flushed to zero: powers
        # and repeated products underflow to 0 at neighbouring indices.
        tiny = np.finfo(float).tiny
        assert np.array_equal(np.abs(got) < tiny, np.abs(want) < tiny)
        assert np.abs(got - want).max() <= 1e-15

