"""Structured integer programs whose optima size Sperner partition systems.

Two congruence classes of (n, k) with k odd get an integer program over
variables x_{i,j} on a banded index set Phi.  Variant "secA" covers
n = (2d+1)k + 1 and variant "secB" covers n = (2d+1)k - 1, so c = n // k
is 2d + 1 or 2d; both live on a ground set split into two halves, with
part families E_l (c-sets l levels off the balanced split of the halves)
and E*_l ((c+1)-sets likewise), by one rule for both.  The caps are a
diagonal budget D, off-diagonal band budgets O_l and row budgets R_l; the
objective is 2 * sum x and its optimum is bounded by the even integer Q.

Solvers: a batched version of the slack-consuming greedy (variant secA),
the sparse closed-form candidate (variant secB), the exact LP relaxation
and two proofs from one loop.  `exact_solve` and `lp_value` take the first
primal, checked exactly in O(|supp x| + u), that meets a bound read off
the caps: `upper_bound` (the band dual or the parity cut, O(d)) for the
integer optimum, the band dual (O(u)) for the LP value.  Only where none
does is the root LP solved, by the one-phase integer simplex of
`simplex.py`: its constraints are built in one pass over Phi with integer
coefficients and nonnegative caps, so x = 0 is its first vertex.  No
solver has a size limit.  An instance's header, u and Q among it, comes
from the family sizes within u + 2 levels of the middle and one binomial
of n, binom(n, c), by Vandermonde's identity, in O(u) big-integer steps;
its row caps are read on demand; the variants differ only in the u-search
and in their caps.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .baranyai import partition_ground
from .combinat import ERF_INV_HALF, Params, binom, decompose, mms
from .construction import PartitionSystem
from .simplex import LinearProgram
from .verify import SystemCertificate

VARIANTS = ("secA", "secB")


class _Levels(Mapping):
    """levels(s)_l = binom(h, s//2 - l) binom(h, s - s//2 + l), the s-sets
    l levels off the balanced split of the two halves, for l = lo, ...,
    s // 2, from the first of them.  Level l + 1 is level l times
    (a - l)(h - b - l) / ((h - a + l + 1)(b + l + 1)), a = s // 2 and
    b = s - a, by binom(h, m - 1) = binom(h, m) m / (h - m + 1) and
    binom(h, m + 1) = binom(h, m) (h - m) / (m + 1): one multiply and one
    exact divide by small integers.  A level is computed when first read,
    with those before it, and kept; iterating yields l and reads none."""

    def __init__(self, h: int, s: int, lo: int, first: int):
        self.h, self.s, self.lo, self.ells = h, s, lo, range(lo, s // 2 + 1)
        self.read = [first]             # read[t] = levels(s)_{lo + t}

    def __getitem__(self, ell: int) -> int:
        read, t = self.read, ell - self.lo
        if not 0 <= t < len(read):
            if ell not in self.ells:
                raise KeyError(ell)
            h, a = self.h, self.s // 2
            b, out = self.s - a, read[-1]
            for j in range(self.lo + len(read) - 1, ell):
                out = out * ((a - j) * (h - b - j)) // ((h - a + j + 1) * (b + j + 1))
                read.append(out)
        return read[t]

    def __len__(self) -> int:
        return len(self.ells)

    def __iter__(self):
        return iter(self.ells)


@dataclass(frozen=True)
class IpInstance:
    """The program's header and caps.  A built instance reads its row caps
    R_l on demand (`_Levels`) and keeps binom(n, c) for `mms_value`.
    Explicit caps, with cap_row a dict, are checked once here: rows
    u + 1, ..., d in order, as a built instance lists them, and every cap
    >= 0, so a row no primal meets needs no feasibility test."""
    variant: str
    params: Params
    d: int
    u: int
    q: int
    e0: int
    estar0: int
    cap_diag: int
    cap_off: dict = field(hash=False)
    cap_row: Mapping = field(hash=False)
    choose: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        rows = () if isinstance(self.cap_row, _Levels) else self.cap_row
        if rows and list(rows) != list(range(self.u + 1, self.d + 1)):
            raise ValueError(f"cap_row must hold rows {self.u + 1}..{self.d} in order")
        if min([self.cap_diag, *self.cap_off.values(), *(rows and rows.values())]) < 0:
            raise ValueError("every cap of an IP instance must be >= 0")

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def trivial(self) -> bool:
        """Whether Phi is empty: u < d holds, so only u = -1 leaves no index.
        The secA u-search starts at 0, so only a secB instance is trivial."""
        return self.u < 0

    @functools.cached_property
    def phi(self) -> tuple:
        """The index set: (i, j) with u < i <= j <= d and j - i <= u, by rows."""
        return _phi(self.u, self.d)

    @functools.cached_property
    def mms_value(self) -> Fraction:
        return mms(self.params, self.choose)

    def __contains__(self, key) -> bool:
        """Whether `key` is in Phi: u < i <= j <= d and j - i <= u."""
        return (type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int
                and self.u < key[0] <= key[1] <= min(self.d, key[0] + self.u))

    def to_text(self, solution: "IpSolution | None" = None) -> str:
        lines = [f"IP {self.variant} {self.n} {self.k} {self.d} {self.u} {self.q}"]
        lines.append(f"cap D {self.cap_diag}")
        for ell in sorted(self.cap_off):
            lines.append(f"cap O {ell} {self.cap_off[ell]}")
        for ell in sorted(self.cap_row):
            lines.append(f"cap R {ell} {self.cap_row[ell]}")
        if solution is not None:
            lines += [f"x {i} {j} {v}" for (i, j), v in sorted(solution.x.items()) if v]
        return "\n".join(lines) + "\n"


def _phi(u: int, d: int) -> tuple:
    return tuple([(i, j) for i in range(u + 1, d + 1)
                  for j in range(i, min(i + u, d) + 1)])


def phi_size(u: int, d: int) -> int:
    """len(_phi(u, d)) without building it: rows d, d - 1, ..., u + 1 hold
    1, 2, ..., u + 1 indices and then u + 1 each, over t = d - u rows."""
    t = d - u
    if t <= u + 1:
        return t * (t + 1) // 2
    return (u + 1) * (u + 2) // 2 + (t - u - 1) * (u + 1)


def _families(h: int, c: int) -> tuple:
    """(levels(c), levels(c + 1)) from l = 0: with d = c // 2, each
    levels(s)_0 = binom(h, s//2) binom(h, s - s//2) is a product of
    binom(h, d) and binom(h, d + 1), for s = 2d, 2d + 1 or 2d + 2."""
    d = c // 2
    below = math.comb(h, d)
    above = below * (h - d) // (d + 1)
    if c == 2 * d:
        return _Levels(h, c, 0, below * below), _Levels(h, c + 1, 0, below * above)
    return _Levels(h, c, 0, below * above), _Levels(h, c + 1, 0, above * above)


def build_instance(n: int, k: int, variant: str) -> IpInstance:
    """The instance's header d, u, Q, e_0, e*_0, D and O_l, from the levels
    within u + 2 of the middle, in O(u) big-integer steps; the rows R_l
    are read on demand.

    With h = n/2, c = n // k and C(n, m) the binomial, E_l = levels(c)_l and
    E*_l = levels(c + 1)_l (`_Levels`).  Vandermonde's convolution
    C(n, m) = sum_j C(h, j) C(h, m - j) pairs the term of j with that of
    m - j, and for m = s in {c, c + 1} each pair is one level: j = s//2 - l
    is E_l or E*_l counted twice, once as j and once as m - j, except the
    middle term j = m - j of an even m, counted once.  So with d = c // 2:

    - secB, c = 2d:     C(n, c) = e_0 + 2 (e_1 + ... + e_d), and
                        C(n, c + 1) = 2 (e*_0 + ... + e*_d);
    - secA, c = 2d + 1: C(n, c) = 2 (e_0 + ... + e_d), and
                        C(n, c + 1) = e*_0 + 2 (e*_1 + ... + e*_{d+1}).

    The u-search's falling sums are then C(n, c) or C(n, c + 1) less a
    prefix, so it reads e_l and e*_l only for l <= u + 1.  secB's
    C(n, c + 1) is (k - 1) C(n, c), so the one C(n, c) serves both
    variants, and `mms_value` reads it too.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if k < 3 or k % 2 == 0:
        raise ValueError(f"need odd k >= 3, got {k}")
    if n <= 2 * k:
        raise ValueError(f"need n > 2k, got n={n}, k={k}")
    params = decompose(n, k)
    if n % (2 * k) != (k + 1 if variant == "secA" else k - 1):
        sign = "+" if variant == "secA" else "-"
        raise ValueError(f"variant {variant} needs n = k{sign}1 (mod 2k), got n={n}, k={k}")
    # c = 2d + 1 (secA) or 2d (secB); E_l and E*_l are the c-sets and
    # (c+1)-sets l levels off the balanced split of the two halves
    c = params.c
    d = c // 2
    e, estar = _families(n // 2, c)
    choose = math.comb(n, c)
    if variant == "secA":
        # a(x) = 2 (e_{x+1} + ... + e_d) falls and b(x) = estar_0 + ... +
        # estar_x grows; u is the first x with a(x) <= (k-1) b(x), at most
        # d - 1: h = n/2 >= 3d + 2 gives 3 e_d <= binom(2d+1, d+1) e_d =
        # binom(h, d+1) binom(h-d-1, d) <= estar_0, so a(d-1) = 2 e_d < b(d-1).
        a = choose - 2 * e[0]
        b = estar[0]
        u = 0
        while a > (k - 1) * b:
            u += 1
            a -= 2 * e[u]
            b += estar[u]
        q = 2 * (a // (2 * (k - 1)))
        # spend q/2 on the diagonal, then band by band, each up to its
        # (c+1)-family size: all of it, as the stop test makes
        # q/2 <= b(u) // 2 <= estar_0 // 2 + estar_1 + ... + estar_u
        rest = q // 2
        cap_diag = min(rest, estar[0] // 2)
        rest -= cap_diag
        cap_off = {}
        for ell in range(1, u + 1):
            cap_off[ell] = min(rest, estar[ell])
            rest -= cap_off[ell]
        cap_row = _Levels(n // 2, c, u + 1, e[u + 1])
    else:
        # a(x) = e_0 + 2 (e_1 + ... + e_x) grows and b(x) = 2 (estar_{x+1} +
        # ... + estar_d) falls; u is the last x < d with (k-1) a(x) <= b(x),
        # or -1, where a(-1) = 0; x < d needs no test, as b(d) = 0 < a(d).
        # n - c = (c+1)(k-1) makes (k-1) C(n, c) = C(n, c+1) and mms =
        # C(n, c) / 2 identities, so neither is checked.
        u, au = -1, 0
        a, b = e[0], (k - 1) * choose - 2 * estar[0]
        while (k - 1) * a <= b:
            u, au = u + 1, a
            a += 2 * e[u + 1]
            b -= 2 * estar[u + 1]
        q = au - (au & 1)
        cap_diag = e[0] // 2
        cap_off = {ell: e[ell] for ell in range(1, u + 1)}
        cap_row = _Levels(n // 2, c + 1, u + 1, estar[u + 1])
    inst = IpInstance(variant, params, d, u, q, e[0], estar[0], cap_diag, cap_off, cap_row,
                      choose)
    assert q <= inst.mms_value
    return inst


# --------------------------------------------------------------------------
# Solutions
# --------------------------------------------------------------------------

@dataclass
class IpSolution:
    instance: IpInstance
    x: dict

    @property
    def objective(self) -> int:
        return 2 * sum(self.x.values())

    def sparse_slacks(self) -> tuple:
        """The slacks in one pass over x: (band, row), band[0] for D and
        band[l] for O_l, and row[l] for R_l, l > u, held for the rows x
        meets and read from the caps for any other row when first read
        (`_RowSlacks`).  This is the one model that every primal, the
        greedy, `_build_lp` and the realization read, each row by its
        index over u + 1, ..., d: index (i, j) meets band j - i and rows i
        and j, and a key outside Phi only those that exist."""
        inst = self.instance
        u, d = inst.u, inst.d
        band = [inst.cap_diag] + [inst.cap_off[ell] for ell in range(1, u + 1)]
        row = _RowSlacks(inst.cap_row)
        for (i, j), v in self.x.items():
            if i == j or 0 < j - i <= u:
                band[j - i] -= v
            if u < i <= d:
                row[i] -= v
            if u < j <= d:
                row[j] -= v
        return band, row

    def feasible(self) -> bool:
        """Exact, in O(|supp x| + u): keys in Phi, values >= 0, and the
        slacks of the u + 1 bands and of the rows x meets >= 0.  A row x
        does not meet keeps its cap as its slack, and every cap is >= 0: a
        product of binomials in a built instance, checked once when an
        instance is given explicit caps.  So those rows need no test."""
        if not all(v >= 0 and key in self.instance for key, v in self.x.items()):
            return False
        band, row = self.sparse_slacks()
        return min(band) >= 0 and min(row.values(), default=0) >= 0


class _RowSlacks(dict):
    """Row slacks by row, each row at its cap when first read."""

    def __init__(self, caps: Mapping):
        super().__init__()
        self.caps = caps

    def __missing__(self, ell: int) -> int:
        self[ell] = slack = self.caps[ell]
        return slack


def zero_solution(inst: IpInstance) -> IpSolution:
    return IpSolution(inst, {})


# --------------------------------------------------------------------------
# Greedy (variant secA)
# --------------------------------------------------------------------------

def greedy_gap_bound(inst: IpInstance) -> Fraction:
    """The guaranteed gap 2*binom(u,2) + 2(d-u+1)/(k-1) below q."""
    return (2 * binom(inst.u, 2)
            + Fraction(2 * (inst.d - inst.u + 1), inst.k - 1))


def greedy_solve(inst: IpInstance) -> IpSolution:
    """Slack-consuming greedy for variant secA, with batched steps.

    Each step picks the deepest off-diagonal budget y still worth y, the
    furthest row z with enough slack, and increments an anti-diagonal run
    of y variables; with y = 0 it grows the diagonal instead.  Steps are
    applied in the largest batch that leaves every intermediate unit step
    valid, so the trace matches the unit process exactly.  The band-desc
    fill of `_FILL_ORDERS` spends what the steps leave.

    A step lowers only band y and rows, so no band deeper than y is worth
    its depth again, and y walks the bands once, from u down to 0.  The
    slack a step needs of row z, 1 off the diagonal and 2 on it, only
    rises as y falls, so z, read from d down, only falls too.
    """
    if inst.variant != "secA":
        raise ValueError("greedy_solve applies to variant secA")
    u, d, k = inst.u, inst.d, inst.k
    x: dict = defaultdict(int)
    band, row = zero_solution(inst).sparse_slacks()
    diag_floor = -(-(d - u + 1) // (k - 1))     # D >= diag_floor iff D (k-1) >= d-u+1
    z = d
    for y in range(u, -1, -1):
        need = 1 if y else 2
        while band[y] >= (y or diag_floor):
            while z > u and row[z] < need:
                z -= 1
            if z == u:
                raise AssertionError("no row with enough slack; greedy invariant broken")
            if z < u + 2 * y:
                raise AssertionError(f"z = {z} < u + 2y = {u + 2 * y}; greedy invariant broken")
            if y:
                window = range(z - 2 * y + 1, z + 1)
                if any(row[ell] < 1 for ell in window):
                    raise AssertionError("slack run below 1; greedy invariant broken")
                step = min(band[y] // y, min(row[ell] for ell in window))
                for i in range(y):
                    x[(z - y - i, z - i)] += step
                band[y] -= step * y
                for ell in window:
                    row[ell] -= step
            else:
                step = min(band[0] - diag_floor + 1, row[z] // 2)
                x[(z, z)] += step
                band[0] -= step
                row[z] -= 2 * step
    # The termination threshold above is what makes the existence of z
    # provable, not what exhausts the budgets; the band-desc fill then
    # grows every index while it stays feasible.
    sol = _floor_improve(inst, x, _FILL_ORDERS["band desc, i desc"](u, d))
    assert sol.objective <= inst.q
    assert Fraction(sol.objective) >= inst.q - greedy_gap_bound(inst)
    return sol


# --------------------------------------------------------------------------
# Closed form (variant secB)
# --------------------------------------------------------------------------

@dataclass
class ClosedFormResult:
    solution: IpSolution | None
    violations: list

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def closed_form_solve(inst: IpInstance) -> ClosedFormResult:
    """The sparse candidate that saturates every cap on one index each:
    O_l on (i, i + l) with i = u + 1 + (u - l) // 2, the bands l = u, u - 2,
    ... first and then l = u - 1, u - 3, ..., and D on the loop at
    3u // 2 + 1.  Each lies in Phi, as j <= 2u + 1 <= d: with h = n/2,
    2(h - d) = (2d+1)(k-1) gives estar_l / e_l = (h-d-l)/(d+1+l) < k - 1,
    so the stop test (k-1) a(u) <= b(u) puts a(u), the 2u + 1 largest of
    the 2d + 1 terms e_|l| (binomials are log-concave), below half their
    sum.  Each band gets its cap, so only rows can break: the candidate
    has objective q, and is feasible unless it breaks rows, whose names
    R_l it reports.
    """
    if inst.variant != "secB":
        raise ValueError("closed_form_solve applies to variant secB")
    if inst.trivial:
        return ClosedFormResult(zero_solution(inst), [])
    u = inst.u
    assigns = []
    for ell in [*range(u, 0, -2), *range(u - 1, 0, -2)]:
        i = u + 1 + (u - ell) // 2
        assigns.append(((i, i + ell), inst.cap_off[ell]))
    loop = 3 * u // 2 + 1
    assigns.append(((loop, loop), inst.cap_diag))
    sol = IpSolution(inst, dict(assigns))   # one index per band, so no key repeats
    violations = [f"R_{ell}" for ell, s in sorted(sol.sparse_slacks()[1].items()) if s < 0]
    if violations:
        return ClosedFormResult(None, violations)
    assert sol.objective == inst.q
    return ClosedFormResult(sol, [])


# --------------------------------------------------------------------------
# LP relaxation, exact solver
# --------------------------------------------------------------------------

def _build_lp(inst: IpInstance) -> LinearProgram:
    """The LP relaxation, column c for Phi[c]: integer rows with the
    nonnegative caps of `sparse_slacks` at x = 0, so x = 0 is feasible.
    The rows are O_1..O_u, then D, then R_l for l = u + 1, ..., d, each
    read by its index; over an empty Phi no R_l has a column, and none
    is added."""
    band_cap, row_cap = zero_solution(inst).sparse_slacks()
    lp = LinearProgram(len(inst.phi))
    lp.set_objective([2] * len(inst.phi))
    # one pass over Phi puts each column in its band and its two rows
    bands = [{} for _ in band_cap]
    rows = {ell: {} for ell in range(inst.u + 1, inst.d + 1)}
    for col, (i, j) in enumerate(inst.phi):
        bands[j - i][col] = 1
        for ell in (i, j):
            rows[ell][col] = rows[ell].get(col, 0) + 1
    for ell in [*range(1, len(bands)), 0]:
        lp.add_constraint(bands[ell], band_cap[ell])
    for ell, coeffs in rows.items():
        if coeffs:
            lp.add_constraint(coeffs, row_cap[ell])
    return lp


def lp_relax(inst: IpInstance):
    """Exact rational optimum of the LP relaxation; (value, solution dict).
    Over an empty Phi the LP is the one row {} <= D, solved at x = 0."""
    value, xs = _build_lp(inst).solve()
    assert value <= inst.q
    return value, {v: x for v, x in zip(inst.phi, xs) if x}


def _floor_improve(inst: IpInstance, base: dict, runs) -> IpSolution:
    """Floor a fractional solution, then greedily grow the indices (i, i + l)
    of each run (l, starts), i in starts.  A run ends once band l's budget
    is spent: none of its indices can grow then.  Row caps are read as the
    runs walk, so the rows no run reaches are never read."""
    x = {v: int(val) for v, val in base.items() if int(val)}
    band, row = IpSolution(inst, x).sparse_slacks()
    for ell, starts in runs:
        for i in starts:
            if not band[ell]:
                break
            j = i + ell
            inc = min(band[ell], row[i] // 2) if not ell else min(band[ell], row[i], row[j])
            if inc > 0:
                x[(i, j)] = x.get((i, j), 0) + inc
                band[ell] -= inc
                row[i] -= inc
                row[j] -= inc
    # the slacks the walk kept: the floor's and every row it read stay >= 0
    assert min(band) >= 0 and min(row.values(), default=0) >= 0
    return IpSolution(inst, x)


def band_dual(inst: IpInstance) -> int:
    """2 (D + sum O_l): weight 2 on each band constraint is dual feasible,
    so this bounds the LP relaxation."""
    return 2 * (inst.cap_diag + sum(inst.cap_off.values()))


def upper_bound(inst: IpInstance) -> tuple:
    """A bound on the optimum from the caps alone, in O(d); (bound, reason).

    Every index (i, j) lies in exactly one band, the diagonal or O_{j-i},
    so weight 2 on the band constraints is a dual solution: the band dual
    2 (D + sum O_l), which the caps make equal to Q, bounds the objective.
    An objective equal to it saturates every band, and if sum R_l equals
    it too, every row, since each index meets the rows twice.  An index of
    odd length has one end on an even row; loops and even lengths put even
    amounts there.  So a saturated solution has sum_{even l} R_l congruent
    to sum_{odd l} O_l (mod 2); when it is not, the parity cut, a
    {0, 1/2}-Chvatal-Gomory cut, lowers the even bound by 2.
    """
    if inst.trivial:
        return 0, "empty index set"
    band = band_dual(inst)
    even_rows = sum(cap for ell, cap in inst.cap_row.items() if ell % 2 == 0)
    odd_bands = sum(cap for ell, cap in inst.cap_off.items() if ell % 2)
    if sum(inst.cap_row.values()) == band and (even_rows - odd_bands) % 2:
        return band - 2, "parity cut"
    return band, "band dual"


# Runs in which `_floor_improve` fills x from zero: the widest band j - i
# first, each band by i up or by i down.  Each closes instances the other
# misses; Phi's own order and its reverse close none they miss.
_FILL_ORDERS = {
    "band desc, i asc": lambda u, d: ((ell, range(u + 1, d - ell + 1))
                                      for ell in range(u, -1, -1)),
    "band desc, i desc": lambda u, d: ((ell, range(d - ell, u, -1))
                                       for ell in range(u, -1, -1)),
}


def _half_loops(sol: IpSolution) -> IpSolution | None:
    """One unit of diagonal slack spent as 1/2 on the loops of two rows
    with slack at least 1: a fractional primal 2 above `sol`, or None
    when `sol` leaves no such unit.  `lp_value` takes it on the fill
    "band desc, i desc", the last integral primal, so it proves the LP
    value wherever that fill stops 2 below the band dual: on the
    parity-cut instances, which no integral primal can close, and on
    band-dual ones that none does."""
    inst = sol.instance
    band, row = sol.sparse_slacks()
    rows = list(itertools.islice((ell for ell in range(inst.u + 1, inst.d + 1)
                                  if row[ell] >= 1), 2))
    if band[0] < 1 or len(rows) < 2:
        return None
    x = dict(sol.x)
    for ell in rows:
        x[(ell, ell)] = x.get((ell, ell), 0) + Fraction(1, 2)
    return IpSolution(inst, x)


def _integral_primals(inst: IpInstance, greedy: IpSolution | None = None):
    """(proof, integral primal or None), cheapest first: the greedy (secA)
    or the closed form (secB), then the fills of `_FILL_ORDERS`."""
    if inst.variant == "secA":
        yield "greedy", greedy or greedy_solve(inst)
    else:
        yield "closed form", closed_form_solve(inst).solution
    for name, order in _FILL_ORDERS.items():
        yield f"fill {name}", _floor_improve(inst, {}, order(inst.u, inst.d))


def _first_proved(primals, bound: int) -> tuple:
    """The first (proof, primal) whose primal is feasible, checked exactly,
    with objective `bound`; else (None, the first feasible primal of the
    largest objective, or None).  No feasible primal exceeds the bound."""
    best, top = None, -1
    for proof, sol in primals:
        if sol is not None and sol.objective > top and sol.feasible():
            if sol.objective == bound:
                return proof, sol
            best, top = sol, sol.objective
    return None, best


def exact_solve(inst: IpInstance):
    """An integer optimum proved by `upper_bound`; (solution, proof).

    The first of `_integral_primals` that meets the bound, or else the
    better of the best of them and the root LP floored and grown by the
    fill "band desc, i asc", the LP on a tie.  The proof is the name
    `upper_bound` gives its bound when the result meets it, else None.
    Over k <= 11, both variants and n <= 3000 only (1310, 1802, 1808; 3;
    secB) need the LP, whose vertex there is integral at Q."""
    bound, proof = upper_bound(inst)
    found, sol = _first_proved(_integral_primals(inst), bound)
    if not found:
        lp = _floor_improve(inst, lp_relax(inst)[1],
                            _FILL_ORDERS["band desc, i asc"](inst.u, inst.d))
        sol = lp if sol is None or lp.objective >= sol.objective else sol
    return sol, proof if sol.objective == bound else None


def _lp_primals(inst: IpInstance, greedy: IpSolution | None = None):
    """`_integral_primals`, then `_half_loops` on the last of them."""
    for proof, sol in _integral_primals(inst, greedy):
        yield proof, sol
    yield "half loops", _half_loops(sol)


def lp_value(inst: IpInstance, greedy: IpSolution | None = None) -> tuple:
    """The exact optimum of the LP relaxation; (value, proof).

    The band dual bounds the LP, so a feasible primal that meets it proves
    the LP value: those of `exact_solve` (pass `greedy` to reuse one),
    then the half loops on the last of them, the fill "band desc, i desc",
    in both variants.  The proof names the first, or "simplex" when none
    meets the bound; over k = 3 to n <= 8000 and k in {5, 7} to n <= 6000,
    both variants, only (1310, 1802, 1808; 3; secB) need the simplex.  A
    value reads O(u) caps and the rows its primals meet and walk: at
    (32000, 3, secB), d = 5,333 and u = 27, the header and the proof take
    a few hundredths of a second.
    """
    if inst.trivial:
        return Fraction(0), "empty index set"
    bound = band_dual(inst)
    proof = _first_proved(_lp_primals(inst, greedy), bound)[0]
    return (Fraction(bound), proof) if proof else (lp_relax(inst)[0], "simplex")


# --------------------------------------------------------------------------
# Realization into partition systems
# --------------------------------------------------------------------------

def _pad_windows(slack, width: int, runs) -> list:
    """Per run of classes, its padding windows as (levels, count) pairs in
    class order.

    The padding sequence lists level l as often as its slack s, for each
    (l, s) of `slack` in turn; each class takes the next `width` levels and
    run r has runs[r] classes.  A window inside one level's stretch is that
    level `width` times, so a run's windows in one stretch are one pair;
    only a window across the end of a stretch, at most one per end, is
    assembled level by level.
    """
    if not width:
        return [[((), m)] if m else [] for m in runs]
    ends = itertools.accumulate(s for _, s in slack)
    stretches = [(ell, end) for (ell, s), end in zip(slack, ends) if s > 0]
    out, pos, at = [], 0, 0
    for m in runs:
        windows, end = [], pos + m * width
        while pos < end:
            while stretches[at][1] <= pos:
                at += 1
            ell, stop = stretches[at]
            inside = (min(stop, end) - pos) // width
            if inside:
                windows.append(((ell,) * width, inside))
                pos += inside * width
                continue
            window, q = [], at
            while len(window) < width:
                ell, stop = stretches[q]
                window += [ell] * min(stop - pos - len(window), width - len(window))
                q += 1
            windows.append((tuple(window), 1))
            pos += width
        out.append(windows)
    return out


def _class_profiles(inst: IpInstance, sol: IpSolution) -> list:
    """The solution's classes as (profile, count) runs in class order, in
    O(|supp x| + d).

    Each index (i, j) gives a forward and a mirror run of x_{i,j} classes,
    in index order: a pair of (2d+1)-sets and one set of the other size,
    padded by (k-3)/2 untouched (2d+1)-set pairs.  The pads are laid out
    level by level, levels u+1, ..., d in turn, level l as often as row l
    has slack, and cut into consecutive windows, one per class
    (`_pad_windows`); a run is split where its window changes.  A part is
    (name, size, (t, size - t)), t points on the first side; the
    certificate checker reads its name, ("EA" or "EB", t), only in
    messages.

    Any pad order is valid.  The pair at level l has signatures
    (d - l, d + 1 + l) and (d + 1 + l, d - l), which sum to (2d+1, 2d+1)
    at every l, so a class's degrees do not depend on its pads.  Level l
    is used at most as often as row l has slack, and the index parts are
    already charged to that row, so no family exceeds its capacity.  A
    pad and a part of the other size, with t = size // 2 + a - b, can
    dominate one another only when |a - b| is l or l + 1, and
    |a - b| <= u < l.  So `partition_ground`'s proportional-flow argument
    covers every such list of units.
    """
    c, d, u = inst.params.c, inst.d, inst.u
    width = (inst.k - 3) // 2
    pair = 2 * d + 1                        # c (secA) or c + 1 (secB)
    single = c + 1 if pair == c else c      # the other of c and c + 1

    def part(size, t):
        return ("EA" if size == c else "EB", t), size, (t, size - t)
    row = sol.sparse_slacks()[1]
    slack = [(ell, row[ell]) for ell in range(u + 1, d + 1)]
    assert sum(s for _, s in slack) >= sol.objective * width
    bases = [((part(pair, d - a), part(pair, d + 1 + b), part(single, single // 2 + a - b)), x)
             for (i, j), x in sorted(sol.x.items()) for a, b in ((i, j), (j, i))]
    windows = _pad_windows(slack, width, [x for _, x in bases])
    return [(base + tuple(part(pair, t) for ell in levels for t in (d - ell, d + 1 + ell)),
             count) for (base, _), run in zip(bases, windows) for levels, count in run]


def realize_system(inst: IpInstance, sol: IpSolution, seed: int = 0) -> PartitionSystem:
    """Materialize a solution as an explicit partition system.

    Each class partitions the ground set, split into its two halves, the
    groups of the system; a part of size c or c+1 with t points on the
    first side is a block of type (t, size - t), its group signature.  One
    staged flow over the whole ground (`baranyai.partition_ground` with two
    sides) hands every class its blocks, and blocks of one type are
    distinct, so all parts are.  The solution's capacities keep each type
    within its pool.  The seed only orders the placement of points.

    The flow needs one unit per class, so the runs of `_class_profiles`
    are expanded, and the flow's cost and memory grow with the number of
    classes: on (22,3,secA), 92,466 parts, the process peaks at 167 MiB,
    1.85 KiB per part (Python 3.11), most of it held by the staged flow,
    not by the parts.  For systems too large to hold, `certificate()`
    checks the same runs without building a class.
    """
    n, half = inst.n, inst.n // 2
    sides = (range(half), range(half, n))
    units = [shapes for prof, count in _class_profiles(inst, sol)
             for shapes in [[shape for _, _, shape in prof]] * count]
    partitions = partition_ground(range(n), units, sides=sides,
                                  rng=random.Random(f"{seed}:ip-realize"))
    return PartitionSystem(n, inst.k, partitions, [list(side) for side in sides])


def certificate(inst: IpInstance, sol: IpSolution) -> SystemCertificate:
    """Aggregated accounting certificate, independent of materialization.

    Sorts and sums the runs of `_class_profiles`, the classes that
    `realize_system` builds, never producing a class: O(|supp x| + d)
    steps plus one per run, independent of the number of classes.  On
    (8750, 13, secA), Q of 3,414 bits, the greedy optimum certifies in
    336 profiles.
    """
    counts = Counter()
    for prof, count in _class_profiles(inst, sol):
        counts[tuple(sorted(prof))] += count
    return SystemCertificate(inst.n, inst.k, sol.objective, (inst.n // 2, inst.n // 2),
                             sorted(counts.items()))


# --------------------------------------------------------------------------
# Asymptotic diagnostics
# --------------------------------------------------------------------------

@dataclass
class AsymptoticReport:
    estar0_ratio: float   # estar_0 / ((k-1) e_0)
    u_ratio: float        # u / (erf^-1(1/2) sqrt(d (k-1) / k))
    q_over_mms: float


def asymptotic_report(inst: IpInstance) -> AsymptoticReport:
    k, d, u = inst.k, inst.d, inst.u
    u_pred = ERF_INV_HALF * math.sqrt(d * (k - 1) / k)
    # build_instance's k >= 3 and n > 2k (so c >= 2, d >= 1) give u_pred > 0;
    # int / int is correctly rounded, as float(Fraction(...)) is
    mms_value = inst.mms_value
    return AsymptoticReport(inst.estar0 / ((k - 1) * inst.e0), u / u_pred,
                            inst.q * mms_value.denominator / mms_value.numerator)
