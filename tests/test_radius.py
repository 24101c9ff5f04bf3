import math

import numpy as np
import pytest

from bohrcert import radius as rd
from bohrcert.errors import (
    NoSignChange,
    ParameterOutOfRange,
    RadiusOutOfRange,
    ToleranceTooSmall,
    UnknownTheorem,
)

from support import classical_bohr_radius, mobius_equality_radius, thmc_product_form


class TestEquationValue:
    def test_thmc34_examples(self):
        spec = rd.RadiusSpec("ThmC34", 1, 1)
        assert rd.equation_value(spec, 0.5) == pytest.approx(-0.5)
        assert rd.equation_value(spec, 1.0) == pytest.approx(1.0)

    def test_thm32_at_root(self):
        spec = rd.RadiusSpec("Thm32", 1, 0)
        assert rd.equation_value(spec, 0.6) == pytest.approx(0.0, abs=1e-15)

    def test_thm32_endpoints(self):
        # value at 0 is -4, or -3 when m = 0 (the r^m term is then 1)
        for p in (1, 2, 3):
            assert rd.equation_value(rd.RadiusSpec("Thm32", p, 0), 0.0) == -3.0
            for m in range(1, p + 1):
                assert rd.equation_value(rd.RadiusSpec("Thm32", p, m), 0.0) == -4.0
            assert rd.equation_value(rd.RadiusSpec("Thm32", p, 0), 1.0) == 4.0

    def test_thm31_affine(self):
        spec = rd.RadiusSpec("Thm31", extras={"a0": 0.5, "s": 1.0})
        root = rd.solve_radius(spec)
        assert rd.equation_value(spec, root) == pytest.approx(0.0, abs=1e-14)

    def test_range_validation(self):
        with pytest.raises(RadiusOutOfRange):
            rd.equation_value(rd.RadiusSpec("ClassicBohr"), 1.5)

    def test_spec_validation(self):
        with pytest.raises(UnknownTheorem):
            rd.RadiusSpec("Nope")
        with pytest.raises(ParameterOutOfRange):
            rd.RadiusSpec("ThmC34", 2, 3)
        with pytest.raises(ParameterOutOfRange):
            rd.RadiusSpec("Thm31", extras={"a0": 1.2, "s": 1.0})
        with pytest.raises(ParameterOutOfRange):
            rd.RadiusSpec("Thm31", extras={"a0": 0.2})


class TestSolveRadius:
    def test_classic(self):
        assert rd.solve_radius(rd.RadiusSpec("ClassicBohr")) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_alternating(self):
        assert rd.solve_radius(rd.RadiusSpec("Alternating")) == pytest.approx(
            1.0 / math.sqrt(3.0), abs=1e-12
        )

    def test_thmc34_diagonal(self):
        assert rd.solve_radius(rd.RadiusSpec("ThmC34", 1, 1)) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_thm32_known_root(self):
        assert rd.solve_radius(rd.RadiusSpec("Thm32", 1, 0)) == pytest.approx(0.6)

    def test_thm31_closed_forms(self):
        for a0 in (0.0, 0.3, 0.9):
            assert rd.solve_radius(
                rd.RadiusSpec("Thm31", extras={"a0": a0, "s": 1.0})
            ) == pytest.approx(1.0 / (2.0 + a0), abs=1e-14)
            assert rd.solve_radius(
                rd.RadiusSpec("Thm31", extras={"a0": a0, "s": 2.0})
            ) == pytest.approx(0.5, abs=1e-14)

    def test_closed_forms_match_bisection(self):
        for p in (1, 2, 3, 5):
            for m in range(0, p + 1):
                for tid in ("ThmC34", "Thm32", "Cor43"):
                    spec = rd.RadiusSpec(tid, p, m)
                    bise = rd.solve_radius(spec, tol=1e-13, use_closed_form=False)
                    closed = rd.closed_form_radius(spec)
                    if closed is not None:
                        assert bise == pytest.approx(closed, abs=1e-12)

    def test_monotone_equations(self):
        # 100 ordered pairs per equation: strictly increasing on (0, 1)
        rng = np.random.default_rng(5)
        for tid in ("ThmC34", "Cor43"):
            spec = rd.RadiusSpec(tid, 2, 1)
            for _ in range(100):
                r1, r2 = np.sort(rng.uniform(0.01, 0.99, 2))
                if r1 == r2:
                    continue
                assert rd.equation_value(spec, r1) < rd.equation_value(spec, r2)
        spec31 = rd.RadiusSpec("Thm31", extras={"a0": 0.4, "s": 1.5})
        for _ in range(100):
            r1, r2 = np.sort(rng.uniform(0.01, 0.99, 2))
            if r1 == r2:
                continue
            assert rd.equation_value(spec31, r1) < rd.equation_value(spec31, r2)

    def test_product_and_expanded_forms_share_root(self):
        for p in (1, 2, 3, 5):
            for m in range(0, p + 1):
                spec = rd.RadiusSpec("ThmC34", p, m)
                root_expanded = rd.solve_radius(spec, tol=1e-14, use_closed_form=False)
                root_product = rd.bisect_root(
                    lambda r: thmc_product_form(p, m, r), 1e-6, 1.0, 1e-14
                )
                assert abs(root_expanded - root_product) < 1e-13
                r = 0.37
                assert thmc_product_form(p, m, r) == pytest.approx(
                    rd.equation_value(spec, r), abs=1e-14
                )

    def test_tolerance_validation(self):
        with pytest.raises(ToleranceTooSmall):
            rd.solve_radius(rd.RadiusSpec("ThmC34", 1, 0), tol=0.0)

    def test_tolerance_below_float_spacing(self):
        # bisection reaches adjacent floats, with no exact zero between
        # them, before a half-width of 1e-18
        with pytest.raises(ToleranceTooSmall, match="below float spacing"):
            rd.solve_radius(rd.RadiusSpec("Cor43", 1, 1), tol=1e-18)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            rd.bisect_root(lambda r: 1.0 + r, 0.0, 1.0, 1e-9)

    @pytest.mark.parametrize("fn, lo, hi", [
        # the first midpoint would be NaN, and every comparison with it false
        (lambda r: r, -math.inf, math.inf),
        # halving toward inf could only stop at float spacing there
        (lambda r: r - 0.3, 0.0, math.inf),
        (lambda r: r - 0.3, math.nan, 1.0),
    ])
    def test_infinite_bracket_refused_before_any_call(self, fn, lo, hi):
        calls = []
        with pytest.raises(ParameterOutOfRange, match="finite bracket"):
            rd.bisect_root(lambda r: calls.append(r) or fn(r), lo, hi, 1e-9)
        assert calls == []


class TestClassicalBohrRadius:
    def test_grid_infimum(self):
        assert classical_bohr_radius(1e-6) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_equality_radius_examples(self):
        assert mobius_equality_radius(0.0) == pytest.approx(1.0)
        assert mobius_equality_radius(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_equality_radius_closed_form(self):
        for a in (0.1, 0.25, 0.6, 0.85, 0.99):
            assert mobius_equality_radius(a) == pytest.approx(
                1.0 / (1.0 + 2.0 * a), abs=1e-11
            )

    @pytest.mark.parametrize("use_closed_form", [True, False])
    def test_table_entry_matches_oracle(self, use_closed_form):
        got = rd.solve_radius(rd.RadiusSpec("ClassicBohr"), use_closed_form=use_closed_form)
        assert got == pytest.approx(classical_bohr_radius(1e-9), abs=1e-9)
