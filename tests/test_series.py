import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrcert import series as ps
from bohrcert.errors import ParameterOutOfRange, ZeroConstantTerm

from support import brute_cauchy_product, identity, mobius_map, monomial_lift


def coeff_lists(min_size=1, max_size=12, max_mag=2.0):
    member = st.complex_numbers(max_magnitude=max_mag, allow_nan=False, allow_infinity=False)
    return st.lists(member, min_size=min_size, max_size=max_size)


class TestMul:
    def test_telescoping(self):
        a = ps.TruncatedSeries([1, 1, 0])
        b = ps.TruncatedSeries([1, -1, 0])
        assert np.allclose(ps.mul(a, b).coeffs, [1, 0, -1])

    def test_identity_element(self):
        f = ps.TruncatedSeries([0.3 + 0.1j, -0.2, 0.05, 0.7j])
        one = ps.TruncatedSeries([1, 0, 0, 0], 1.0)
        assert np.array_equal(ps.mul(f, one).coeffs, f.coeffs)

    def test_mobius_product_frozen(self):
        # (a - z) * 1/(1 - a z) at a = 0.5: c_0 = a, c_k = -(1 - a^2) a^(k-1)
        num = ps.TruncatedSeries([0.5, -1, 0, 0, 0])
        den = ps.TruncatedSeries([1, -0.5, 0, 0, 0])
        got = ps.mul(num, ps.reciprocal(den)).coeffs.real
        assert np.allclose(got, [0.5, -0.75, -0.375, -0.1875, -0.09375], atol=1e-14)

    def test_order_is_min(self):
        a = ps.TruncatedSeries(np.arange(6.0))
        b = ps.TruncatedSeries(np.arange(3.0))
        assert ps.mul(a, b).order == 2

    def test_sup_bound_multiplies(self):
        a = ps.TruncatedSeries([0.5, 0.1], 0.7)
        b = ps.TruncatedSeries([0.5, 0.2], 0.5)
        assert ps.mul(a, b).sup_bound == pytest.approx(0.35)
        assert ps.mul(a, ps.TruncatedSeries([1.0, 0.0])).sup_bound is None

    @settings(max_examples=60, deadline=None)
    @given(coeff_lists(), coeff_lists())
    def test_matches_brute_force(self, xs, ys):
        n = min(len(xs), len(ys)) - 1
        got = ps.mul(ps.TruncatedSeries(xs), ps.TruncatedSeries(ys)).coeffs
        want = brute_cauchy_product(xs, ys, n)
        assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(coeff_lists(min_size=2), coeff_lists(min_size=2))
    def test_commutative(self, xs, ys):
        a, b = ps.TruncatedSeries(xs), ps.TruncatedSeries(ys)
        assert np.allclose(ps.mul(a, b).coeffs, ps.mul(b, a).coeffs, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(coeff_lists(min_size=2, max_size=8, max_mag=1.0),
           coeff_lists(min_size=2, max_size=8, max_mag=1.0),
           coeff_lists(min_size=2, max_size=8, max_mag=1.0))
    def test_associative(self, xs, ys, zs):
        a, b, c = map(ps.TruncatedSeries, (xs, ys, zs))
        left = ps.mul(ps.mul(a, b), c).coeffs
        right = ps.mul(a, ps.mul(b, c)).coeffs
        n = min(len(left), len(right))
        assert np.allclose(left[:n], right[:n], atol=1e-14)


class TestReciprocal:
    def test_geometric(self):
        f = ps.TruncatedSeries([1, -1, 0, 0, 0])
        assert np.allclose(ps.reciprocal(f).coeffs, np.ones(5))

    def test_geometric_ratio_half(self):
        f = ps.TruncatedSeries([1, -0.5, 0, 0, 0])
        assert np.allclose(ps.reciprocal(f).coeffs, 0.5 ** np.arange(5))

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            ps.reciprocal(ps.TruncatedSeries([0, 1, 0]))

    @settings(max_examples=80, deadline=None)
    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                              allow_nan=False, allow_infinity=False),
           coeff_lists(min_size=1, max_size=15, max_mag=1.0))
    def test_mul_recovers_one(self, c0, tail):
        # Conditioning constraint: the reciprocal's coefficients stay tame
        # when the tail is dominated by the constant term.  (Without it the
        # identity still holds analytically, but 1/f's coefficients grow
        # geometrically and double precision cannot reach 1e-12.)
        tail = np.asarray(tail)
        total = np.abs(tail).sum()
        if total > 1e-9 * abs(c0):
            tail = tail * (0.5 * abs(c0) / total)
        else:
            tail = np.zeros_like(tail)
        f = ps.TruncatedSeries(np.concatenate([[c0], tail]))
        prod = ps.mul(f, ps.reciprocal(f)).coeffs
        want = np.zeros_like(prod)
        want[0] = 1.0
        assert np.allclose(prod, want, atol=1e-12)


class TestMobiusMap:
    """The division route's Moebius map, the oracle of the closed-form
    families (``support.division_family``), against hand values and its
    own algebra."""

    def test_identity_input_frozen(self):
        got = mobius_map(0.5, identity(5)).coeffs.real
        assert np.allclose(got, [0.5, -0.75, -0.375, -0.1875, -0.09375, -0.046875],
                           atol=1e-14)

    def test_a_zero_negates(self):
        got = mobius_map(0.0, identity(4))
        assert np.allclose(got.coeffs, [0, -1, 0, 0, 0])

    def test_constant_input(self):
        got = mobius_map(0.5, ps.TruncatedSeries(np.zeros(4), 0.0))
        assert np.allclose(got.coeffs, [0.5, 0, 0, 0])

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.95),
           st.lists(st.complex_numbers(max_magnitude=0.4, allow_nan=False,
                                       allow_infinity=False),
                    min_size=2, max_size=10))
    def test_involution(self, a, xs):
        s = ps.TruncatedSeries(np.asarray(xs) * 0.5, 1.0)  # keep well inside the disk
        back = mobius_map(a, mobius_map(a, s))
        assert np.allclose(back.coeffs, s.coeffs, atol=1e-10)

    def test_result_is_schur_bounded(self):
        out = mobius_map(0.7, identity(64))
        assert out.sup_bound == 1.0
        assert np.abs(out.coeffs).max() <= 1 + 1e-12


class TestMonomialLift:
    """The oracle's lattice placement, ``support.monomial_lift``."""

    def test_index_bookkeeping(self):
        lift = monomial_lift(ps.TruncatedSeries([2.0, 3.0]), 1, 2)
        assert np.allclose(lift.coeffs, [0, 2, 0, 3])

    def test_m0_p1_identity(self):
        s = mobius_map(0.5, identity(6))
        assert np.array_equal(monomial_lift(s, 0, 1).coeffs, s.coeffs)

    def test_combined_with_mobius(self):
        s = mobius_map(0.5, identity(3))
        lift = monomial_lift(s, 2, 3)
        assert lift.coeffs[2] == pytest.approx(0.5)
        assert lift.coeffs[5] == pytest.approx(-0.75)
        assert lift.coeffs[8] == pytest.approx(-0.375)
        off = np.delete(lift.coeffs, [2, 5, 8, 11])
        assert np.abs(off).max() == 0.0

    @settings(max_examples=60, deadline=None)
    @given(coeff_lists(max_size=8), st.integers(0, 4), st.integers(1, 5))
    def test_roundtrip_bit_identical(self, xs, m, p):
        s = ps.TruncatedSeries(xs)
        lifted = monomial_lift(s, m, p)
        assert np.array_equal(lifted.coeffs[m :: p], s.coeffs)


class TestHelpers:
    def test_truncate_refuses_extension(self):
        with pytest.raises(ParameterOutOfRange):
            ps.truncate(ps.TruncatedSeries([1.0]), 3)

    def test_immutable_coeffs(self):
        s = ps.TruncatedSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0
