import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from sperner import ip, simplex
from sperner.simplex import LinearProgram, Unbounded


def brute_force_optimum(rows, b, c):
    """Independent oracle: enumerate all basic points of {Ax <= b, x >= 0}.

    Every vertex of the polytope solves n of the constraints (including
    nonnegativity) with equality, so trying all n-subsets and keeping the
    feasible solutions finds the optimum of a bounded LP.
    """
    n = len(c)
    cons = []
    for row, bi in zip(rows, b):
        cons.append(([Fraction(row.get(j, 0)) for j in range(n)], Fraction(bi)))
    for j in range(n):
        cons.append(([Fraction(-(i == j)) for i in range(n)], Fraction(0)))
    best = None
    for subset in itertools.combinations(range(len(cons)), n):
        mat = [cons[i][0][:] + [cons[i][1]] for i in subset]
        # Gaussian elimination over the rationals
        x = _solve_square(mat, n)
        if x is None:
            continue
        ok = all(sum(a * v for a, v in zip(row, x)) <= bi for row, bi in cons)
        if not ok:
            continue
        val = sum(ci * xi for ci, xi in zip(c, x))
        if best is None or val > best:
            best = val
    return best


def _solve_square(mat, n):
    mat = [row[:] for row in mat]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = Fraction(1) / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]


BEALE_ROWS = [{0: 25, 1: -6000, 2: -4, 3: 900}, {0: 50, 1: -9000, 2: -2, 3: 300}, {2: 1}]
BEALE_B = [0, 0, 1]
BEALE_C = [75, -15000, 2, -600]


class TestSimplexKnown:
    def test_basic(self):
        lp = LinearProgram(2)
        lp.set_objective([3, 2])
        lp.add_constraint({0: 1, 1: 1}, 4)
        lp.add_constraint({0: 1, 1: 3}, 6)
        assert lp.solve() == (12, [4, 0])

    def test_interior_vertex(self):
        lp = LinearProgram(2)
        lp.set_objective([2, 3])
        lp.add_constraint({0: 2, 1: 1}, 10)
        lp.add_constraint({0: 1, 1: 3}, 15)
        assert lp.solve() == (18, [3, 4])

    def test_fractional_optimum(self):
        lp = LinearProgram(2)
        lp.set_objective([1, 1])
        lp.add_constraint({0: 2, 1: 1}, 3)
        lp.add_constraint({0: 1, 1: 2}, 3)
        value, x = lp.solve()
        assert value == 2 and x == [1, 1]
        lp = LinearProgram(1)
        lp.set_objective([2])
        lp.add_constraint({0: 3}, 2)
        assert lp.solve() == (Fraction(4, 3), [Fraction(2, 3)])

    def test_unbounded(self):
        lp = LinearProgram(2)
        lp.set_objective([1, 0])
        lp.add_constraint({1: 1}, 1)
        with pytest.raises(Unbounded):
            lp.solve()
        lp = LinearProgram(1)
        lp.set_objective([1])
        with pytest.raises(Unbounded, match="no constraints"):
            lp.solve()

    def test_input_must_be_integer_with_x0_feasible(self):
        lp = LinearProgram(1)
        with pytest.raises(ValueError, match="x = 0 must be feasible"):
            lp.add_constraint({0: -1}, -1)
        with pytest.raises(TypeError):
            lp.add_constraint({0: Fraction(1, 2)}, 1)
        with pytest.raises(TypeError):
            lp.add_constraint({0: 1}, Fraction(1, 2))
        with pytest.raises(TypeError):
            lp.set_objective([Fraction(1, 2)])
        with pytest.raises(ValueError, match="objective length mismatch"):
            lp.set_objective([1, 1])
        assert lp.rows == [] and lp.b == []

    @pytest.mark.parametrize("col", (-1, 2))
    def test_column_out_of_range_is_rejected(self, col):
        # -1 would alias x1 and 2 would fail only inside solve()
        lp = LinearProgram(2)
        lp.set_objective([1, 1])
        with pytest.raises(ValueError, match=f"column {col} is outside range\\(2\\)"):
            lp.add_constraint({col: 1, 0: 1}, 3)
        assert lp.rows == [] and lp.b == []
        lp.add_constraint({1: 1, 0: 1}, 3)
        assert lp.solve() == (3, [3, 0])

    def test_degenerate_cycling_guard(self):
        # Beale's classical cycling example, its first two rows and the
        # objective scaled by 100 to integers; Bland's rule must terminate
        lp = LinearProgram(4)
        lp.set_objective(BEALE_C)
        for row, bi in zip(BEALE_ROWS, BEALE_B):
            lp.add_constraint(row, bi)
        value, _ = lp.solve()
        assert value == 5

    def test_no_constraints(self):
        lp = LinearProgram(2)
        lp.set_objective([0, -1])
        assert lp.solve() == (0, [0, 0])


class TestSimplexAgainstEnumeration:
    def test_random_small_lps(self):
        rng = random.Random(20240817)
        for trial in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            rows = []
            b = []
            for _ in range(m):
                rows.append({j: rng.randint(0, 4) for j in range(n)})
                b.append(rng.randint(0, 9))
            c = [rng.randint(0, 5) for _ in range(n)]
            # ensure boundedness: cap every variable
            for j in range(n):
                rows.append({j: 1})
                b.append(rng.randint(1, 8))
            lp = LinearProgram(n)
            lp.set_objective(c)
            for row, bi in zip(rows, b):
                lp.add_constraint(row, bi)
            value, x = lp.solve()
            expect = brute_force_optimum(rows, b, c)
            assert value == expect, (trial, rows, b, c)
            assert all(xi >= 0 for xi in x)
            for row, bi in zip(rows, b):
                assert sum(row.get(j, 0) * x[j] for j in range(n)) <= bi


# --------------------------------------------------------------------------
# Differential oracle: the revised simplex on Fractions that the
# fraction-free solver replaced, recording its (entering, leaving) pivots.
# --------------------------------------------------------------------------

class Infeasible(Exception):
    """The oracle's verdict on an empty feasible region."""


def _oracle_simplex(cols, cost, basis, b_inv, x_b, artificial_from, pivots):
    m = len(x_b)
    ncols = len(cols)
    in_basis = [False] * ncols
    for j in basis:
        in_basis[j] = True
    while True:
        y = [Fraction(0)] * m
        for krow in range(m):
            cb = cost[basis[krow]]
            if cb:
                row = b_inv[krow]
                for i in range(m):
                    if row[i]:
                        y[i] += cb * row[i]
        enter = -1
        for j in range(min(ncols, artificial_from)):
            if in_basis[j]:
                continue
            red = cost[j]
            for i, v in cols[j].items():
                if y[i]:
                    red -= y[i] * v
            if red > 0:
                enter = j
                break
        if enter < 0:
            return
        w = [Fraction(0)] * m
        for i, v in cols[enter].items():
            for krow in range(m):
                if b_inv[krow][i]:
                    w[krow] += b_inv[krow][i] * v
        leave = -1
        best = None
        for krow in range(m):
            ok = w[krow] > 0
            if not ok and basis[krow] >= artificial_from and x_b[krow] == 0 and w[krow] != 0:
                ok = True  # degenerate pivot that evicts an artificial
            if not ok:
                continue
            ratio = x_b[krow] / w[krow] if w[krow] > 0 else Fraction(0)
            if best is None or ratio < best or (ratio == best and basis[krow] < basis[leave]):
                best = ratio
                leave = krow
        if leave < 0:
            raise Unbounded("objective is unbounded above")
        piv = w[leave]
        inv_piv = Fraction(1) / piv
        row_l = b_inv[leave]
        for i in range(m):
            row_l[i] *= inv_piv
        x_b[leave] *= inv_piv
        for krow in range(m):
            if krow == leave or not w[krow]:
                continue
            f = w[krow]
            rk = b_inv[krow]
            for i in range(m):
                if row_l[i]:
                    rk[i] -= f * row_l[i]
            x_b[krow] -= f * x_b[leave]
        pivots.append((enter, basis[leave]))
        in_basis[basis[leave]] = False
        in_basis[enter] = True
        basis[leave] = enter


def oracle_solve(rows, b, c, pivots):
    """The rational two-phase method; appends every pivot to `pivots`."""
    rows = [{j: Fraction(v) for j, v in row.items() if v} for row in rows]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    m = len(rows)
    n = len(c)
    if m == 0:
        if any(v > 0 for v in c):
            raise Unbounded("no constraints bound a profitable variable")
        return Fraction(0), [Fraction(0)] * n
    work_rows = []
    work_b = []
    art_rows = []
    for i, (row, bi) in enumerate(zip(rows, b)):
        if bi < 0:
            work_rows.append({j: -v for j, v in row.items()})
            work_b.append(-bi)
            art_rows.append(i)
        else:
            work_rows.append(dict(row))
            work_b.append(bi)
    n_slack = m
    n_art = len(art_rows)
    cols = [dict() for _ in range(n)]
    for i, row in enumerate(work_rows):
        for j, v in row.items():
            cols[j][i] = v
    for i in range(m):
        cols.append({i: Fraction(-1) if i in art_rows else Fraction(1)})
    art_at = {}
    for idx, i in enumerate(art_rows):
        art_at[i] = n + n_slack + idx
        cols.append({i: Fraction(1)})
    basis = [art_at.get(i, n + i) for i in range(m)]
    b_inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    x_b = list(work_b)
    if n_art:
        phase1 = [Fraction(0)] * (n + n_slack) + [Fraction(-1)] * n_art
        _oracle_simplex(cols, phase1, basis, b_inv, x_b, n + n_slack, pivots)
        if sum((x_b[k] for k in range(m) if basis[k] >= n + n_slack), Fraction(0)):
            raise Infeasible("no feasible point")
    cost = c + [Fraction(0)] * (n_slack + n_art)
    _oracle_simplex(cols, cost, basis, b_inv, x_b, n + n_slack, pivots)
    x = [Fraction(0)] * n
    for krow in range(m):
        if basis[krow] < n:
            x[basis[krow]] = x_b[krow]
    value = sum((c[j] * x[j] for j in range(n) if x[j]), Fraction(0))
    return value, x


def _outcome(solve):
    try:
        return solve()
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def assert_matches_oracle(lp: LinearProgram):
    """Same value, vertex and pivot sequence as the rational method, or the
    same exception after the same pivots; returns (outcome, pivots)."""
    want: list = []
    expect = (_outcome(lambda: oracle_solve(lp.rows, lp.b, lp.c, want)), want)
    got = (_outcome(lp.solve), lp.pivots)
    assert got == expect
    if isinstance(got[0], tuple):
        assert type(got[0][0]) is Fraction
        assert all(type(v) is Fraction for v in got[0][1])
    return got


def _lp(rows, b, c) -> LinearProgram:
    lp = LinearProgram(len(c))
    lp.set_objective(c)
    for row, bi in zip(rows, b):
        lp.add_constraint(row, bi)
    return lp


def _random_lps(seed):
    """300 small LPs with mixed signs, both outcomes and zero right sides."""
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [{j: rng.randint(-3, 5) for j in range(n) if rng.random() < 0.7}
                for _ in range(m)]
        b = [rng.randint(0, 9) for _ in range(m)]
        c = [rng.randint(-2, 5) for _ in range(n)]
        yield rows, b, c


class TestAgainstRationalOracle:
    def test_seeded_random_lps(self):
        outcomes = Counter()
        for rows, b, c in _random_lps(7):
            result, pivots = assert_matches_oracle(_lp(rows, b, c))
            outcomes[result if isinstance(result, type) else "optimal"] += 1
            outcomes["zero right side"] += 0 in b
            outcomes["pivots"] += len(pivots)
        # the sample reaches both outcomes, degenerate starts and many pivots
        assert outcomes["optimal"] >= 50 and outcomes[Unbounded] >= 20
        assert outcomes["zero right side"] >= 50 and outcomes["pivots"] >= 300

    def test_beale_cycling_example(self):
        (value, _), pivots = assert_matches_oracle(_lp(BEALE_ROWS, BEALE_B, BEALE_C))
        assert value == 5
        assert pivots == [(0, 4), (1, 5), (2, 0), (3, 1), (0, 6), (4, 3)]

    def test_unbounded(self):
        lp = _lp([{1: 1}], [1], [1, 0])
        assert assert_matches_oracle(lp)[0] is Unbounded
        lp = _lp([{0: -1, 1: 1}], [1], [0, 1])     # unbounded after a pivot
        result, pivots = assert_matches_oracle(lp)
        assert result is Unbounded and pivots

    @pytest.mark.parametrize("k", (3, 5))
    @pytest.mark.parametrize("variant", ip.VARIANTS)
    def test_root_lps_of_ip_instances(self, k, variant):
        rem = (k + 1) % (2 * k) if variant == "secA" else (k - 1) % (2 * k)
        solved = 0
        for n in range(2 * k + 1, 401):
            if n % (2 * k) != rem:
                continue
            inst = ip.build_instance(n, k, variant)
            if inst.trivial:
                continue
            lp = ip._build_lp(inst)
            assert_matches_oracle(lp)
            solved += 1
        assert solved >= 36


# --------------------------------------------------------------------------
# Differential oracle: the dense integer engine that the sparse rows
# replaced, kept verbatim.  Row k of the basis inverse is a full list of m
# integers, and every pivot rewrites all m entries of each row it touches.
# --------------------------------------------------------------------------

def _dense_current(r_num, x_num, r_den, k, den):
    """Bring row k to the denominator den; the division is exact."""
    dk = r_den[k]
    if dk != den:
        r_num[k] = [a * den // dk for a in r_num[k]]
        x_num[k] = x_num[k] * den // dk
        r_den[k] = den


def _dense_simplex(cols, cost, basis, x_num, pivots):
    """Run Bland-rule iterations in place from the slack basis, whose basic
    values are x_num; returns r_den.  Row k of B^-1 is r_num[k] / r_den[k]
    and x_k is x_num[k] / r_den[k]; den is D = |det B|."""
    m = len(x_num)
    ncols = len(cols)
    r_num = [[0] * m for _ in range(m)]
    for i in range(m):
        r_num[i][i] = 1
    r_den = [1] * m
    den = 1
    in_basis = [False] * ncols
    for j in basis:
        in_basis[j] = True
    # y = Y / D = c_B B^-1, updated by each pivot; slacks cost nothing
    y = [0] * m
    while True:
        enter = -1
        for j in range(ncols):
            if in_basis[j]:
                continue
            red = cost[j] * den
            for i, v in cols[j].items():
                red -= y[i] * v
            if red > 0:
                enter = j
                break
        if enter < 0:
            return r_den
        # w = W / D = B^-1 A_enter
        w = [0] * m
        for i, v in cols[enter].items():
            w = [a + row[i] * v for a, row in zip(w, r_num)]
        w = [a if dk == den else a * den // dk for a, dk in zip(w, r_den)]
        leave = -1
        best_num, best_den = 0, 1      # the best ratio x_k / w_k so far
        for krow in range(m):
            wk = w[krow]
            if wk <= 0:
                continue
            num = x_num[krow] * den // r_den[krow]
            if leave < 0:
                better = True
            else:
                lhs, rhs = num * best_den, best_num * wk
                better = lhs < rhs or (lhs == rhs and basis[krow] < basis[leave])
            if better:
                best_num, best_den, leave = num, wk, krow
        if leave < 0:
            raise Unbounded("objective is unbounded above")
        piv = w[leave]
        new_den, sign = abs(piv), (1 if piv > 0 else -1)
        _dense_current(r_num, x_num, r_den, leave, den)
        row_l = r_num[leave]
        x_l = x_num[leave]
        for krow in range(m):
            f = w[krow] * sign
            if f and krow != leave:
                _dense_current(r_num, x_num, r_den, krow, den)
                r_num[krow] = [(a * new_den - f * b) // den
                               for a, b in zip(r_num[krow], row_l)]
                x_num[krow] = (x_num[krow] * new_den - f * x_l) // den
                r_den[krow] = new_den
        if sign < 0:
            row_l = r_num[leave] = [-a for a in row_l]
            x_num[leave] = -x_l
        r_den[leave] = new_den
        y = [(a * new_den + red * b) // den for a, b in zip(y, row_l)]
        den = new_den
        pivots.append((enter, basis[leave]))
        in_basis[basis[leave]] = False
        in_basis[enter] = True
        basis[leave] = enter


def _run_engine(engine, lp: LinearProgram):
    """Run `engine` on lp from the slack basis: ((basis, basic values,
    value, x), pivots), or (Unbounded, pivots)."""
    m, n = len(lp.rows), lp.n
    cols = simplex._columns(lp.rows, n) + [{i: 1} for i in range(m)]
    basis = list(range(n, n + m))
    x_num = list(lp.b)
    pivots: list = []
    try:
        r_den = engine(cols, lp.c + [0] * m, basis, x_num, pivots)
    except Unbounded:
        return Unbounded, pivots
    x_b = [Fraction(a, d) for a, d in zip(x_num, r_den)]
    x = [Fraction(0)] * n
    for j, v in zip(basis, x_b):
        if j < n:
            x[j] = v
    value = sum((cj * xj for cj, xj in zip(lp.c, x)), Fraction(0))
    return (basis, x_b, value, x), pivots


def assert_matches_dense(lp: LinearProgram):
    """The sparse engine makes the dense engine's pivots and ends at its
    basis, basic values, value and vertex, or raises the same exception
    after the same pivots; so does lp.solve().  Returns the outcome."""
    got = _run_engine(simplex._simplex, lp)
    assert got == _run_engine(_dense_simplex, lp)
    result, pivots = got
    solved = _outcome(lp.solve)
    assert lp.pivots == pivots
    assert solved == (result if result is Unbounded else tuple(result[2:]))
    return result


class TestAgainstDenseEngine:
    def test_seeded_random_lps(self):
        outcomes = Counter()
        for rows, b, c in _random_lps(11):
            result = assert_matches_dense(_lp(rows, b, c))
            outcomes["optimal" if isinstance(result, tuple) else result] += 1
            outcomes["zero right side"] += 0 in b
        assert outcomes["optimal"] >= 50 and outcomes[Unbounded] >= 20
        assert outcomes["zero right side"] >= 50

    def test_beale_cycling_example(self):
        assert assert_matches_dense(_lp(BEALE_ROWS, BEALE_B, BEALE_C))[2] == 5

    @pytest.mark.parametrize("k", (3, 5, 7))
    @pytest.mark.parametrize("variant", ip.VARIANTS)
    def test_root_lps_of_ip_instances(self, k, variant):
        rem = (k + 1) % (2 * k) if variant == "secA" else (k - 1) % (2 * k)
        solved = 0
        for n in range(2 * k + 1, 601):
            if n % (2 * k) == rem and not (inst := ip.build_instance(n, k, variant)).trivial:
                assert_matches_dense(ip._build_lp(inst))
                solved += 1
        assert solved >= 40

    @pytest.mark.parametrize("n,variant", (
        (400, "secA"), (502, "secA"), (904, "secA"),
        (1310, "secB"), (1802, "secB"), (1808, "secB")))
    def test_large_lps(self, n, variant):
        lp = ip._build_lp(ip.build_instance(n, 3, variant))
        assert isinstance(assert_matches_dense(lp), tuple)
        assert len(lp.pivots) >= 79
