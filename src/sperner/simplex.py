"""Exact linear programming via a fraction-free revised simplex method.

Solves max c.x subject to A x <= b, x >= 0 exactly, for integer A, b and
c with b >= 0.  Then x = 0 is a vertex, so the method has one phase and
starts from the slack basis.  Entering columns follow Bland's rule, which
rules out cycling.

The arithmetic is integer throughout (integer-preserving pivoting,
Edmonds 1967; Bareiss 1968).  Row k of the basis inverse is a sparse
integer vector R_k, a dict of its nonzero entries, over a positive
denominator D_k, and the basic value x_k is X_k / D_k.  With D = det B,
D * B^-1 is the adjugate of B, an integer matrix, so bringing a row to D
(R_k * D / D_k) is an exact division.  D stays positive: the slack basis
has det 1, and a pivot on w_l = P / D multiplies det B by w_l, which the
ratio test takes only where W_l = P > 0.  The pivot brings row l and
every row k with W_k != 0 to D and, with f = W_k,

    R_k <- (R_k * P - f * R_l) / D,    X_k <- (X_k * P - f * X_l) / D.

The new R_k is an integer vector, so each entry divides exactly.  When a
pivot keeps D (P = D), R_k[i] -= f * R_l[i] / D, an integer, at R_l's
support only.  Otherwise the other entries become R_k[i] * P / D.  Row l
keeps R_l and X_l, and the rows written are over the new D = P.  A row
with W_k = 0 keeps its part of B^-1 over its old D_k until a later pivot
reads it.  The duals y = c_B B^-1 are kept as Y / D, and each pivot sets
Y <- (Y * P + r * R_l) / D the same way, where R_l is row l and r is D
times the entering reduced cost.  A column index holds, for each i, the
rows with R_k[i] != 0: W = D B^-1 A_enter sums over only those at
A_enter's support, and the ratio test and the updates visit only the rows
with W_k != 0.  No gcd is taken.

Every pivot decision is the one the rational method makes.  D > 0, so the
reduced cost c_j - y.A_j has the sign of c_j * D - Y.A_j, and the ratios
x_k / w_k are compared by cross-multiplying X_k and W_k, both over D, with
the same tie-break, the lower basic column.  Basic columns are distinct,
so the order of the rows cannot change the leaving row.  Fractions appear
only in the results.
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
        for j in row:
            if not 0 <= index(j) < self.n:
                raise ValueError(f"column {j} is outside range({self.n})")
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
        r_num[k] = {i: a * den // dk for i, a in r_num[k].items()}
        x_num[k] = x_num[k] * den // dk
        r_den[k] = den


def _simplex(cols, cost, basis, x_num, pivots):
    """Run Bland-rule iterations in place from the slack basis, whose basic
    values are x_num; returns r_den.  Row k of B^-1 is r_num[k] / r_den[k],
    a dict of its nonzero entries, and x_k is x_num[k] / r_den[k]; den is D."""
    m = len(x_num)
    ncols = len(cols)
    r_num = [{i: 1} for i in range(m)]
    held = [{i} for i in range(m)]      # held[i]: the rows k with R_k[i] != 0
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
        # w = W / D = B^-1 A_enter, over the rows that meet A_enter's support
        w = {}
        for i, v in cols[enter].items():
            for krow in held[i]:
                w[krow] = w.get(krow, 0) + r_num[krow][i] * v
        w = {krow: a if r_den[krow] == den else a * den // r_den[krow]
             for krow, a in w.items() if a}
        leave = -1
        best_num, best_den = 0, 1      # the best ratio x_k / w_k so far
        for krow, wk in w.items():
            if wk <= 0:
                continue
            num = x_num[krow] * den // r_den[krow]
            lhs, rhs = num * best_den, best_num * wk
            if leave < 0 or lhs < rhs or (lhs == rhs and basis[krow] < basis[leave]):
                best_num, best_den, leave = num, wk, krow
        if leave < 0:
            raise Unbounded("objective is unbounded above")
        new_den = w.pop(leave)     # P = W_l > 0, by the ratio test
        keep = new_den == den
        _current(r_num, x_num, r_den, leave, den)
        row_l = r_num[leave]
        x_l = x_num[leave]
        for krow, f in w.items():
            _current(r_num, x_num, r_den, krow, den)
            row = r_num[krow]
            if not keep:    # entries outside R_l's support scale by P / D
                row = r_num[krow] = {i: a if i in row_l else a * new_den // den
                                     for i, a in row.items()}
            for i, b in row_l.items():
                a = row.get(i, 0)
                a = a - f * b // den if keep else (a * new_den - f * b) // den
                if a:
                    row[i] = a
                    held[i].add(krow)
                elif row.pop(i, 0):
                    held[i].discard(krow)
            x_num[krow] = (x_num[krow] * new_den - f * x_l) // den
            r_den[krow] = new_den
        r_den[leave] = new_den
        if not keep:
            y = [a if i in row_l else a * new_den // den for i, a in enumerate(y)]
        for i, b in row_l.items():
            y[i] = (y[i] * new_den + red * b) // den
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
