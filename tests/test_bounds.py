from fractions import Fraction

import pytest

from sperner import bounds
from sperner.bounds import (ExactRow, best_grouped_lower, bounds_report, refined_upper,
                            scan_exact, scan_small_r, small_r_ceiling,
                            small_r_upper, two_value_range)
from sperner.combinat import binom, decompose, mms
from sperner.construction import best_split_b, grouped_factor, grouped_split, split_table


def _in_domain_params(n_end):
    """Every (n, k) with n < n_end in the refined bound's domain."""
    for n in range(10, n_end):
        for k in range(4, n // 2):
            params = decompose(n, k)
            if bounds._in_domain(params):
                yield params


def _refined_upper_oracle(params):
    """The refined bound by a search that assumes no bracket: double the
    upper end from max(floor(mms) + 2, 4) while the predicate holds, then
    bisect."""
    n, c, r = params.n, params.c, params.r
    lo, hi = 0, max(int(mms(params)) + 2, 4)
    while bounds._bound_satisfied(n, c, r, hi):
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bounds._bound_satisfied(n, c, r, mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestRefinedUpper:
    @pytest.mark.parametrize("n,k,expect", [(36, 15, 54), (44, 18, 72),
                                            (56, 22, 117), (128, 54, 210),
                                            (88, 33, 264)])
    def test_known_values(self, n, k, expect):
        assert refined_upper(decompose(n, k)) == expect

    def test_out_of_domain(self):
        assert refined_upper(decompose(10, 3)) is None     # k < 4
        assert refined_upper(decompose(9, 4)) is None      # n < 2k + 2

    def test_le_mms(self):
        for n, k in [(36, 15), (44, 18), (100, 41), (61, 25)]:
            params = decompose(n, k)
            upper = refined_upper(params)
            assert upper is not None
            assert upper <= mms(params)
        # the bracket that refined_upper's docstring proves: the predicate
        # fails at floor(mms) + 2 on every in-domain (n, k) with n < 400
        pairs = 0
        for params in _in_domain_params(400):
            s = int(mms(params)) + 2
            assert not bounds._bound_satisfied(params.n, params.c, params.r, s), params
            pairs += 1
        assert pairs == 37090

    def test_bisection_matches_the_doubling_search(self, monkeypatch):
        # the same answer as the search that doubled its upper end while the
        # predicate held, with the one test of the proved end saved
        calls = []
        satisfied = bounds._bound_satisfied
        monkeypatch.setattr(bounds, "_bound_satisfied",
                            lambda *args: calls.append(args) or satisfied(*args))
        pairs = 0
        for params in [*_in_domain_params(200), decompose(301, 4), decompose(401, 7)]:
            calls.clear()
            want = _refined_upper_oracle(params)
            oracle_calls = len(calls)
            calls.clear()
            assert refined_upper(params) == want, params
            assert len(calls) == oracle_calls - 1, params
            pairs += 1
        assert pairs == 8692

    def test_higher_c_path(self):
        # exercises the rational-interval comparison (c = 3)
        params = decompose(50, 15)
        upper = refined_upper(params)
        assert upper is not None
        assert 0 < upper <= mms(params)

    def test_predicate_holds_exactly_up_to_the_bound(self):
        # the bisection reads the predicate at about log2(mms) points; this
        # reads it at every s of its bracket [0, floor(mms) + 2]
        instances = tests = 0
        for params in _in_domain_params(61):
            if params.c > 3:
                continue
            upper = refined_upper(params)
            for s in range(int(mms(params)) + 3):
                ok = bounds._bound_satisfied(params.n, params.c, params.r, s)
                assert ok == (s <= upper), (params, s, upper)
            instances += 1
            tests += int(mms(params)) + 3
        assert (instances, tests) == (383, 350585)


class TestSmallR:
    def test_threshold_ceilings(self):
        assert small_r_ceiling(3) == 5
        assert small_r_ceiling(4) == 6
        assert small_r_ceiling(5) == 6   # exact root: 15 pairs, root 6
        assert small_r_ceiling(7) == 7   # exact root: 21 pairs, root 7
        assert small_r_ceiling(9) == 8
        # the least t with t(t-1)/2 >= 3r
        t = 1
        for r in range(1, 3001):
            while t * (t - 1) // 2 < 3 * r:
                t += 1
            assert small_r_ceiling(r) == t, r

    def test_bounds(self):
        assert small_r_upper(100, 3) == 2 * 100 + 6
        assert small_r_upper(100, 4) == 2 * 100 + 9
        assert small_r_upper(500, 10) == 2 * 500 + 30

    def test_hypothesis_guard(self):
        with pytest.raises(ValueError):
            small_r_upper(10, 3)   # 9 r^2 > 2k
        for k, r in ((3, 1), (100, 0)):
            with pytest.raises(ValueError, match=f"need k >= 4 and r >= 1, got k={k}, r={r}"):
                small_r_upper(k, r)

    def test_consistency_with_refined(self):
        # the closed form is implied by the refined bound at and beyond
        # its guarantee threshold
        for r in range(3, 11):
            k_cap = (9 * r * r + 1) // 2
            for k in range(k_cap, k_cap + 51, 10):
                upper = refined_upper(decompose(2 * k + r, k))
                assert upper is not None
                assert upper <= small_r_upper(k, r)


class TestTwoValueRange:
    def test_examples(self):
        assert two_value_range(4) == (10, 11)
        assert two_value_range(6) == (28, 29)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            two_value_range(3)

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_upper_is_top_of_range(self, k):
        n = 3 * k - 2
        lo, hi = two_value_range(k)
        assert refined_upper(decompose(n, k)) == hi == lo + 1

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_lower_realized_by_plan(self, k):
        from sperner.construction import plan_grouped
        n = 3 * k - 2
        plan = plan_grouped(n, k, 2, n // 2, "b")
        assert plan.size == binom(n // 2, 2) == two_value_range(k)[0]


class TestScans:
    def test_scan_exact_100(self):
        rows = [(r.n, r.k, r.m, r.h, r.sp) for r in scan_exact(100)]
        assert rows == [(36, 15, 4, 9, 54), (44, 18, 4, 11, 72),
                        (56, 22, 4, 14, 117), (88, 33, 4, 22, 264)]

    def test_scan_exact_35_empty(self):
        assert scan_exact(35) == []

    def test_scan_exact_rejects_tiny(self):
        with pytest.raises(ValueError):
            scan_exact(3)

    def test_scan_small_r_matches_full_sweep(self):
        assert scan_small_r() == _small_r_oracle(3, 10)

    def test_scan_small_r_table(self):
        rows = [(r.r, r.k_threshold, r.bound) for r in scan_small_r()]
        assert rows == [(3, 17, "2k+6"), (4, 35, "2k+9"), (5, 32, "2k+13"),
                        (6, 97, "2k+16"), (7, 71, "2k+20"), (8, 189, "2k+23"),
                        (9, 253, "2k+27"), (10, 311, "2k+30")]

    def test_scan_small_r_one_predicate_test_per_k(self, monkeypatch):
        # 715 certified k and one stop per r, with no bisection
        evals = []
        satisfied = bounds._bound_satisfied
        monkeypatch.setattr(bounds, "_bound_satisfied",
                            lambda *args: evals.append(args) or satisfied(*args))

        def no_bisection(params):
            raise AssertionError("refined_upper called")
        monkeypatch.setattr(bounds, "refined_upper", no_bisection)
        rows = [(r.r, r.k_threshold) for r in scan_small_r()]
        assert rows == [(3, 17), (4, 35), (5, 32), (6, 97), (7, 71), (8, 189),
                        (9, 253), (10, 311)]
        assert len(evals) == 723

    def test_no_higher_c_rows_up_to_200(self):
        rows = scan_exact(200, c_max=64)
        assert rows and all(row.n // row.k == 2 for row in rows)

    def test_c_max_stops_at_n_over_5(self, monkeypatch):
        # no k >= 4 has n // k = c > n // 5, so a huge c_max visits no more c
        calls = []
        table = bounds.split_table
        monkeypatch.setattr(bounds, "split_table",
                            lambda n, c: calls.append((n, c)) or table(n, c))
        assert scan_exact(40, c_max=10 ** 4) == scan_exact(40)
        assert len(calls) <= 200

    def test_rejects_c_max_below_2(self):
        for c_max in (1, 0, -1):
            with pytest.raises(ValueError, match="c_max"):
                scan_exact(100, c_max=c_max)

    def test_lower_above_upper_raises(self, monkeypatch):
        # a grouped size above the refined bound is an inconsistency, not a
        # row to skip: double every best size and the scan must stop
        def doubled(*args):
            best, witness = best_split_b(*args)
            return 2 * best, witness
        monkeypatch.setattr(bounds, "best_split_b", doubled)
        with pytest.raises(AssertionError, match="exceeds the refined upper bound"):
            scan_exact(36)

    def test_exact_rows_constructed_and_verified(self):
        # every exact-value row with n <= 60, built and brute-force checked
        from sperner.construction import construct_grouped, plan_grouped
        from sperner.verify import (check_almost_uniform, check_certificate,
                                    check_partition_system, check_sperner)
        for (n, k, m, h, sp) in [(36, 15, 4, 9, 54), (44, 18, 4, 11, 72),
                                 (56, 22, 4, 14, 117)]:
            plan = plan_grouped(n, k, m, h, "b")
            system = construct_grouped(plan, seed=0)
            assert system.size == sp
            assert check_partition_system(system).ok
            assert check_almost_uniform(system, decompose(n, k)).ok
            assert check_certificate(system).ok
            assert check_sperner(system).ok


class TestBoundsReport:
    def test_exact_row(self):
        rep = bounds_report(36, 15)
        assert rep.mms_value == Fraction(595, 9)
        assert rep.refined == 54
        assert rep.best_lower == 54
        assert "m=4, h=9" in rep.witness

    def test_uniform(self):
        rep = bounds_report(6, 3)
        assert rep.best_lower == 5 and rep.witness == "uniform resolution"
        assert rep.refined is None

    def test_range_case(self):
        rep = bounds_report(10, 4)
        assert rep.range_3k2 == (10, 11)
        assert rep.best_lower == 10

    def test_lower_not_above_upper(self):
        for n in range(20, 70):
            for k in range(4, n // 2):
                rep = bounds_report(n, k)
                if rep.refined is not None:
                    assert rep.best_lower <= rep.refined

    def test_best_grouped_lower_witness(self):
        size, wit = best_grouped_lower(36, 15)
        assert size == 54 and wit[:2] == (4, 9)


def _scan_oracle(n_max: int, c_max: int):
    """The scan without a split table: every k, every m in range(c, n, c)
    with m | n, and the full binary search of refined_upper.  Returns the
    rows and the best case-(b) size of every (n, k) it visits."""
    rows, best_sizes = [], {}
    for n in range(4, n_max + 1):
        for k in range(4, (n - 2) // 2 + 1):
            c, r = divmod(n, k)
            if c < 2 or c > c_max or r < 1:
                continue
            best, witness = 0, None
            for m in range(c, n, c):
                if n % m:
                    continue
                factors = grouped_factor(c, k, r, grouped_split(c, m, n // m), "b")
                if not isinstance(factors, str) and factors[2] * binom(m - 1, c - 1) > best:
                    best, witness = factors[2] * binom(m - 1, c - 1), (m, n // m)
            best_sizes[(n, k)] = best
            if best and refined_upper(decompose(n, k)) == best:
                rows.append(ExactRow(n, k, *witness, best))
    return rows, best_sizes


def _small_r_oracle(r_lo: int, r_hi: int):
    """scan_small_r without the early stop: refined_upper at every k in
    4..ceil(9r^2/2), the k the early stop skips included."""
    rows = []
    for r in range(r_lo, r_hi + 1):
        add = 4 * r - small_r_ceiling(r) - 1
        k_cap = -(-9 * r * r // 2)
        ok = {}
        for k in range(4, k_cap + 1):
            upper = refined_upper(decompose(2 * k + r, k))
            ok[k] = upper is not None and upper <= 2 * k + add
        threshold = None
        for k in range(k_cap, 3, -1):
            if not ok[k]:
                break
            threshold = k
        rows.append(bounds.SmallRRow(r, threshold, f"2k+{add}"))
    return rows


@pytest.fixture(scope="module")
def oracle():
    return _scan_oracle(300, 6)


class TestScanAgainstOracle:
    @pytest.mark.parametrize("c_max", [2, 3, 6])
    def test_rows_and_witnesses(self, c_max, oracle, monkeypatch):
        evals = []
        satisfied = bounds._bound_satisfied
        monkeypatch.setattr(bounds, "_bound_satisfied",
                            lambda n, c, r, s: evals.append(s) or satisfied(n, c, r, s))
        rows, best_sizes = oracle
        want = [row for row in rows if row.n // row.k <= c_max]
        assert scan_exact(300, c_max=c_max) == want
        # one predicate test per k with a grouped size, a second only per row
        candidates = sum(1 for (n, k), best in best_sizes.items()
                         if best and n // k <= c_max)
        assert len(evals) == candidates + len(want)

    def test_best_size_is_best_grouped_lower(self, oracle):
        rows, best_sizes = oracle
        for (n, k), best in best_sizes.items():
            assert best_grouped_lower(n, k)[0] >= best, (n, k)
        for row in rows:
            assert best_grouped_lower(row.n, row.k) == (
                row.sp, (row.m, row.h, "b"))


def test_best_split_b_is_first_strict_maximum():
    # the scan's one-k loop against grouped_factor split by split, over the
    # k the scan visits for every n <= 300 and c <= 6; each split also on
    # its own, so that every rejection, not only the best split's, counts
    for n in range(4, 301):
        for c in range(2, 7):
            splits = split_table(n, c)
            for k in range(max(4, n // (c + 1) + 1), n // c):
                r = n - c * k
                best, witness = 0, None
                for split in splits:
                    factors = grouped_factor(c, k, r, split, "b")
                    size = 0 if isinstance(factors, str) else factors[2] * split[2]
                    assert best_split_b(c, k, r, [split]) == (
                        (size, split) if size else (0, None)), (n, c, k, split[:2])
                    if size > best:
                        best, witness = size, split
                assert best_split_b(c, k, r, splits) == (best, witness), (n, c, k)
