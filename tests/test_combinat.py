import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner.combinat import (ERF_INV_HALF, Params, binom, binom_frac, decompose,
                              mms, shadow_bound, shadow_cmp, shadow_root)


class TestDecompose:
    def test_examples(self):
        p = decompose(36, 15)
        assert (p.c, p.r) == (2, 6)
        assert decompose(26, 3).c == 8 and decompose(26, 3).r == 2
        for n in (1, 5, 17):
            p = decompose(n, 1)
            assert (p.c, p.r) == (n, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            decompose(3, 4)
        with pytest.raises(ValueError):
            decompose(5, 0)
        with pytest.raises(ValueError, match="inconsistent decomposition"):
            Params(36, 15, 2, 5)
        with pytest.raises(ValueError, match="need n >= k >= 1, got n=3, k=4"):
            Params(3, 4, 0, 3)

    @given(st.integers(1, 500), st.integers(1, 500))
    def test_unique_decomposition(self, a, b):
        n, k = max(a, b), min(a, b)
        p = decompose(n, k)
        assert p.n == p.c * p.k + p.r
        assert 0 <= p.r < p.k


class TestBinom:
    def test_examples(self):
        assert binom(5, 1) == 5
        assert binom(1000, 2) == 1000 * 999 // 2
        # multiplicative formula oracle
        val = 1
        for i in range(5):
            val = val * (13 - i) // (i + 1)
        assert binom(13, 5) == val == 1287

    def test_out_of_range(self):
        assert binom(5, -1) == 0
        assert binom(5, 6) == 0
        with pytest.raises(ValueError):
            binom(-1, 0)

    def test_pascal_rule_exhaustive(self):
        for x in range(1, 61):
            for y in range(0, x + 1):
                assert binom(x, y) == binom(x - 1, y - 1) + binom(x - 1, y)


class TestBinomReal:
    """The real binomial (1/t!) prod_{i<t} (q - i), exactly at rational q."""

    def test_integer_agreement(self):
        assert binom_frac(Fraction(7), 2) == 21
        for q in range(3, 12):
            for t in range(0, q + 1):
                assert binom_frac(Fraction(q), t) == binom(q, t)

    def test_empty_product(self):
        for q in (Fraction(0), Fraction(3, 2), Fraction(7)):
            assert binom_frac(q, 0) == 1

    def test_quadratic_root(self):
        # the float root of the real binomial binom(q, 2) = 27
        q = shadow_root(2, 27)
        assert abs(q - (1 + math.sqrt(217)) / 2) < 1e-12
        assert abs(q - 7.8654) < 1e-3

    @given(st.integers(1, 8), st.fractions(0, 50), st.fractions(0, 10))
    def test_strictly_increasing(self, t, base, step):
        q1 = t - 1 + base
        q2 = q1 + step + Fraction(1, 10 ** 6)
        assert binom_frac(q2, t) > binom_frac(q1, t)

    def test_fraction_agreement(self):
        assert binom_frac(Fraction(7), 2) == 21
        assert binom_frac(Fraction(9, 2), 2) == Fraction(9, 2) * Fraction(7, 2) / 2


class TestMms:
    def test_uniform_case(self):
        assert mms(decompose(6, 3)) == 5 == binom(5, 1)

    def test_exact_rationals(self):
        assert mms(decompose(36, 15)) == Fraction(595, 9)
        # direct formula evaluation
        p = decompose(10, 3)
        assert (p.c, p.r) == (3, 1)
        expect = Fraction(binom(10, 3)) / (2 + Fraction(1 * 4, 7))
        assert mms(p) == expect == Fraction(140, 3)

    def test_r_zero_matches_resolution_count(self):
        for k in range(1, 21):
            for c in range(1, 11):
                n = c * k
                if n < k:
                    continue
                p = decompose(n, k)
                if p.r == 0 and p.n > p.c:
                    assert mms(p) == binom(n - 1, p.c - 1)

    def test_rejects_n_le_c(self):
        with pytest.raises(ValueError):
            mms(decompose(1, 1))


class TestShadow:
    def test_root_examples(self):
        assert abs(shadow_root(2, 27) - (1 + math.sqrt(217)) / 2) < 1e-9
        assert shadow_root(2, 1) == pytest.approx(2.0, abs=1e-9)
        assert abs(shadow_root(2, 9) - (1 + math.sqrt(73)) / 2) < 1e-9
        assert math.ceil(shadow_bound(2, 9)) == 5

    def test_bound_is_root_for_c2(self):
        for x in (0, 1, 5, 27, 100):
            assert shadow_bound(2, x) == pytest.approx(shadow_root(2, x), abs=1e-9)

    @given(st.integers(2, 6), st.floats(0.0, 1e5, allow_nan=False))
    @settings(max_examples=200)
    def test_root_round_trip(self, c, x):
        q = shadow_root(c, x)
        prod = 1.0
        for i in range(c):
            prod *= (q - i) / (i + 1)
        assert prod == pytest.approx(x, rel=1e-9, abs=1e-7)

    def test_exact_comparison_integral_points(self):
        # binom(5, 2) = 10 pairs have shadow bound exactly 5
        assert shadow_cmp(2, 10, 5)
        assert not shadow_cmp(2, 10, 4)
        assert shadow_cmp(3, binom(9, 3), binom(9, 2))
        assert not shadow_cmp(3, binom(9, 3), binom(9, 2) - 1)

    def test_exact_comparison_matches_float(self):
        for c in (2, 3, 4):
            for x in range(0, 60):
                fb = shadow_bound(c, x)
                for y in range(0, 40):
                    if abs(fb - y) > 1e-6:
                        assert shadow_cmp(c, x, y) == (fb <= y)


def _shadow_root_int_oracle(c, x):
    """Integer q with binom(q, c) == x on the branch q >= c-1, if any."""
    if x == 0:
        return c - 1
    lo, hi = c, c + x + 2
    while lo < hi:
        mid = (lo + hi) // 2
        if binom(mid, c) < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if binom(lo, c) == x else None


def _shadow_cmp_oracle(c, x, y):
    """The former comparator: integer square test for c = 2, exact integral
    roots, else rational bisection around the root until y is separated."""
    if c == 2:
        y = Fraction(y)
        if y < 1:
            return False
        t = 2 * y - 1
        return 1 + 8 * x <= t * t
    qi = _shadow_root_int_oracle(c, x)
    if qi is not None:
        return binom(qi, c - 1) <= y
    y = Fraction(y)
    lo = Fraction(c)
    hi = Fraction(c + x + 2)
    for _ in range(300):
        if binom_frac(hi, c - 1) <= y:
            return True
        if binom_frac(lo, c - 1) > y:
            return False
        mid = (lo + hi) / 2
        if binom_frac(mid, c) < x:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"bisection did not resolve (c={c}, x={x}, y={y})")


def _differential_cases(count, seed=20201021):
    rng = random.Random(seed)
    for i in range(count):
        c = rng.randint(2, 8)
        kind = i % 5
        if kind == 0:
            # integral root: x = binom(q, c), y one off the exact bound
            q = rng.randint(c - 1, c + 40)
            yield c, binom(q, c), binom(q, c - 1) + rng.choice((-1, 0, 1))
            continue
        x = 0 if kind == 1 and rng.random() < 0.5 else rng.randint(1, 10 ** rng.randint(1, 6))
        near = shadow_bound(c, x)
        if kind == 1:
            y = rng.randint(-3, 3) if x == 0 else -rng.randint(0, 5)
        elif kind == 2:
            d = rng.randint(2, 9)
            y = Fraction(int(near * d) + rng.randint(-2, 2), d)
        else:
            y = max(int(near) + rng.randint(-2, 2), 1)
        yield c, x, y


class TestShadowOracle:
    def test_closed_form_matches_bisection(self):
        cases = list(_differential_cases(3000))
        assert any(isinstance(y, Fraction) and y.denominator > 1 for _, _, y in cases)
        assert any(y <= 0 for _, _, y in cases) and any(x == 0 for _, x, _ in cases)
        answers = []
        for c, x, y in cases:
            answers.append(shadow_cmp(c, x, y))
            assert answers[-1] == _shadow_cmp_oracle(c, x, y), (c, x, y)
        assert 0.2 < sum(answers) / len(answers) < 0.8


class TestErf:
    def test_inverse_half(self):
        assert abs(ERF_INV_HALF - 0.47694) < 1e-5

    def test_round_trip(self):
        assert abs(math.erf(ERF_INV_HALF) - 0.5) < 1e-15
