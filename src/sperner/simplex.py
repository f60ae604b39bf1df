"""Exact linear programming via a fraction-free revised simplex method.

Solves max c.x subject to A x <= b, x >= 0 exactly, for integer A, b and
c with b >= 0.  Then x = 0 is a vertex, so the method has one phase and
starts from the slack basis.  Entering columns follow Bland's rule, which
rules out cycling.

The arithmetic is integer throughout (integer-preserving pivoting,
Edmonds 1967; Bareiss 1968).  Row k of the basis inverse is an integer
vector R_k over a positive denominator D_k, and the basic value x_k is
X_k / D_k.  With D = |det B|, D * B^-1 is the adjugate of B up to sign,
an integer matrix, so bringing a row to D (R_k * D / D_k) is an exact
division.  A pivot on w_l = P / D brings row l and every row k with
W_k != 0 to D and sets

    R_k <- (R_k * P - W_k * R_l) / D,    X_k <- (X_k * P - W_k * X_l) / D,

with both divisions exact; row l keeps R_l and X_l.  Every row it wrote
is then over the new D = |P|, negated if P < 0.  A row with W_k = 0 keeps
its part of B^-1 and is left as it is, over its old D_k, until a later
pivot reads it.  The duals y = c_B B^-1 are kept as Y / D, and each pivot
sets Y <- (Y * |P| + r * R_l) / D, exactly, where R_l is the new row l
and r is D times the entering column's reduced cost.  No gcd is ever
taken.

Every pivot decision is the one the rational method makes.  D > 0, so the
reduced cost c_j - y.A_j has the sign of c_j * D - Y.A_j, and the ratios
x_k / w_k are compared by cross-multiplying X_k and W_k, both over D, with
the same tie-break, the lower basic column.  Fractions appear only in the
results.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index


class SimplexError(Exception):
    pass


class Unbounded(SimplexError):
    pass


class LinearProgram:
    """max c.x  s.t.  A x <= b, x >= 0, with sparse integer rows {col: coef}
    and b >= 0.

    After solve(), `pivots` lists the (entering, leaving) columns of every
    pivot of that solve.
    """

    def __init__(self, n_vars: int):
        self.n = n_vars
        self.rows: list[dict] = []
        self.b: list = []
        self.c: list = [0] * n_vars
        self.pivots: list[tuple[int, int]] = []

    def set_objective(self, coefs) -> None:
        if len(coefs) != self.n:
            raise ValueError("objective length mismatch")
        self.c = [index(v) for v in coefs]

    def add_constraint(self, row: dict, bound) -> None:
        bound = index(bound)
        if bound < 0:
            raise ValueError("x = 0 must be feasible: negative right side")
        self.rows.append({j: index(v) for j, v in row.items() if v})
        self.b.append(bound)

    def solve(self):
        """(Fraction value, [Fraction x]) at an optimal vertex."""
        self.pivots = []
        return _solve(self.rows, self.b, self.c, self.pivots)


def _columns(rows, n):
    cols = [dict() for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _current(r_num, x_num, r_den, k, den):
    """Bring row k to the denominator den; the division is exact."""
    dk = r_den[k]
    if dk != den:
        r_num[k] = [a * den // dk for a in r_num[k]]
        x_num[k] = x_num[k] * den // dk
        r_den[k] = den


def _simplex(cols, cost, basis, x_num, pivots):
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
        _current(r_num, x_num, r_den, leave, den)
        row_l = r_num[leave]
        x_l = x_num[leave]
        for krow in range(m):
            f = w[krow] * sign
            if f and krow != leave:
                _current(r_num, x_num, r_den, krow, den)
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


def _solve(rows, b, c, pivots):
    m = len(rows)
    n = len(c)
    if m == 0:
        if any(v > 0 for v in c):
            raise Unbounded("no constraints bound a profitable variable")
        return Fraction(0), [Fraction(0)] * n
    # equality form row . x + s_i = b_i; the slacks are the first basis
    cols = _columns(rows, n)
    cols.extend({i: 1} for i in range(m))
    basis = list(range(n, n + m))
    x_num = list(b)
    r_den = _simplex(cols, c + [0] * m, basis, x_num, pivots)
    x = [Fraction(0)] * n
    for krow in range(m):
        if basis[krow] < n:
            x[basis[krow]] = Fraction(x_num[krow], r_den[krow])
    value = sum((c[j] * x[j] for j in range(n) if x[j]), Fraction(0))
    return value, x
