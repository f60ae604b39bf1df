"""Structured integer programs whose optima size Sperner partition systems.

Two congruence classes of (n, k) with k odd get an integer program over
variables x_{i,j} on a banded index set Phi.  Variant "secA" covers
n = (2d+1)k + 1 and variant "secB" covers n = (2d+1)k - 1; both live on a
ground set split into two halves, with part families E_t (c-sets with t
points in the first half) and E*_t ((c+1)-sets likewise).  The caps are a
diagonal budget D, off-diagonal band budgets O_l and row budgets R_l; the
objective is 2 * sum x and its optimum is bounded by the even integer Q.

Solvers: a batched version of the slack-consuming greedy (variant secA),
the sparse closed-form candidate (variant secB), the exact LP relaxation,
and the exact solver: the floored root LP, proved optimal when it meets
`upper_bound`, the band dual or the parity cut, read off the caps in
O(d).  No solver has a size limit.  The one LP, the root relaxation,
goes to the one-phase integer simplex of `simplex.py`: its constraints
are built in one pass over Phi with integer coefficients and nonnegative
caps, so x = 0 is its first vertex, and its value and vertex are exact
rationals.  Family sizes come from one row of binomials
binom(n/2, j), j <= 2d+2, and u from running sums of them, in O(d).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .baranyai import partition_ground
from .combinat import ERF_INV_HALF, Params, binom, decompose, mms
from .construction import PartitionSystem
from .roundrobin import round_robin, window_counts
from .simplex import LinearProgram
from .verify import SystemCertificate

VARIANTS = ("secA", "secB")


@dataclass(frozen=True)
class IpInstance:
    variant: str
    params: Params
    d: int
    u: int
    q: int
    e: tuple
    estar: tuple
    eta: tuple | None
    phi: tuple
    cap_diag: int
    cap_off: dict = field(hash=False)
    cap_row: dict = field(hash=False)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def trivial(self) -> bool:
        return not self.phi

    def to_text(self, solution: "IpSolution | None" = None) -> str:
        lines = [f"IP {self.variant} {self.n} {self.k} {self.d} {self.u} {self.q}"]
        lines.append(f"cap D {self.cap_diag}")
        for ell in sorted(self.cap_off):
            lines.append(f"cap O {ell} {self.cap_off[ell]}")
        for ell in sorted(self.cap_row):
            lines.append(f"cap R {ell} {self.cap_row[ell]}")
        if solution is not None:
            for (i, j) in self.phi:
                v = solution.x.get((i, j), 0)
                if v:
                    lines.append(f"x {i} {j} {v}")
        return "\n".join(lines) + "\n"


def _phi(u: int, d: int) -> tuple:
    return tuple((i, j) for i in range(u + 1, d + 1)
                 for j in range(i, min(i + u, d) + 1))


def build_instance(n: int, k: int, variant: str) -> IpInstance:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if k < 3 or k % 2 == 0:
        raise ValueError(f"need odd k >= 3, got {k}")
    if n <= 2 * k:
        raise ValueError(f"need n > 2k, got n={n}, k={k}")
    params = decompose(n, k)
    half = n // 2
    if variant == "secA":
        if n % (2 * k) != (k + 1) % (2 * k):
            raise ValueError(f"variant secA needs n = k+1 (mod 2k), got n={n}, k={k}")
        d = (n - k - 1) // (2 * k)
        row = _binom_row(half, 2 * d + 2)
        e = tuple(row[d - ell] * row[d + 1 + ell] for ell in range(d + 1))
        estar = tuple(row[d + 1 - ell] * row[d + 1 + ell] for ell in range(d + 2))
        # a(x) = 2 (e_{x+1} + ... + e_d) falls and b(x) = estar_0 + ... +
        # estar_x grows; u is the first x with a(x) <= (k-1) b(x).
        a = 2 * sum(e[1:])
        b = estar[0]
        u = 0
        while a > (k - 1) * b:
            u += 1
            a -= 2 * e[u]
            b += estar[u]
        if u > d - 1:
            raise ArithmeticError(f"instance ({n},{k}): u = {u} exceeds d-1")
        q = 2 * (a // (2 * (k - 1)))
        eta = _eta_sequence(q, estar, u)
        cap_diag = eta[0] // 2
        cap_off = {ell: eta[ell] for ell in range(1, u + 1)}
        cap_row = {ell: e[ell] for ell in range(u + 1, d + 1)}
        inst = IpInstance("secA", params, d, u, q, e, estar, eta, _phi(u, d),
                          cap_diag, cap_off, cap_row)
        assert Fraction(q) <= mms(params)
        return inst

    if n % (2 * k) != (k - 1) % (2 * k):
        raise ValueError(f"variant secB needs n = k-1 (mod 2k), got n={n}, k={k}")
    d = (n + 1 - k) // (2 * k)
    row = _binom_row(half, 2 * d + 1)
    e = tuple(row[d - ell] * row[d + ell] for ell in range(d + 1))
    estar = tuple(row[d - ell] * row[d + 1 + ell] for ell in range(d + 1))
    # a(x) = e_0 + 2 (e_1 + ... + e_x) grows and b(x) = 2 (estar_{x+1} + ...
    # + estar_d) falls; u is the last x < d with (k-1) a(x) <= b(x), or -1,
    # where a(-1) = 0.
    u, au = -1, 0
    a, b = e[0], 2 * sum(estar[1:])
    while u + 1 < d and (k - 1) * a <= b:
        u, au = u + 1, a
        a += 2 * e[u + 1]
        b -= 2 * estar[u + 1]
    q = au - (au & 1)
    cap_diag = e[0] // 2
    cap_off = {ell: e[ell] for ell in range(1, u + 1)}
    cap_row = {ell: estar[ell] for ell in range(u + 1, d + 1)}
    inst = IpInstance("secB", params, d, u, q, e, estar, None, _phi(u, d),
                      cap_diag, cap_off, cap_row)
    assert (k - 1) * binom(n, 2 * d) == binom(n, 2 * d + 1)
    assert 2 * au <= binom(n, 2 * d)
    assert mms(params) == Fraction(binom(n, 2 * d), 2)
    assert Fraction(q) <= mms(params)
    return inst


def _binom_row(h: int, top: int) -> list:
    """[binom(h, 0), ..., binom(h, top)] by the exact recurrence
    binom(h, j+1) = binom(h, j) (h - j) / (j + 1)."""
    row = [1]
    for j in range(top):
        row.append(row[-1] * (h - j) // (j + 1))
    return row


def _eta_sequence(q: int, estar: tuple, u: int) -> tuple:
    """The truncated prefix of the (c+1)-family sizes summing to q/2."""
    target = q // 2
    cand = 2 * target + (estar[0] & 1)
    if cand <= estar[0]:
        eta = [cand] + [0] * u
    else:
        eta = [estar[0]]
        rem = target - estar[0] // 2
        for ell in range(1, u + 1):
            take = min(rem, estar[ell])
            eta.append(take)
            rem -= take
        if rem:
            raise ArithmeticError(
                f"budget sequence cannot reach q/2 = {target} (short by {rem})")
    got = eta[0] // 2 + sum(eta[1:])
    if got != target:
        raise ArithmeticError(
            f"budget sequence sums to {got}, want q/2 = {target}")
    return tuple(eta)


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

    def slacks(self) -> dict:
        inst = self.instance
        out = {("D",): inst.cap_diag}
        out.update((("O", ell), cap) for ell, cap in inst.cap_off.items())
        out.update((("R", ell), cap) for ell, cap in inst.cap_row.items())
        for (i, j), v in self.x.items():
            band = ("D",) if i == j else ("O", j - i)
            for key in (band, ("R", i), ("R", j)):
                if key in out:
                    out[key] -= v
        return out

    def feasible(self) -> bool:
        if any(v < 0 for v in self.x.values()):
            return False
        phi = set(self.instance.phi)
        if any(v not in phi for v in self.x):
            return False
        return all(s >= 0 for s in self.slacks().values())


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
    valid, so the trace matches the unit process exactly.
    """
    if inst.variant != "secA":
        raise ValueError("greedy_solve applies to variant secA")
    u, d, k = inst.u, inst.d, inst.k
    x: dict = defaultdict(int)
    beta = {0: inst.cap_diag}
    for ell in range(1, u + 1):
        beta[ell] = inst.cap_off[ell]
    alpha = {ell: inst.cap_row[ell] for ell in range(u + 1, d + 1)}
    if inst.trivial:
        return zero_solution(inst)
    while True:
        y = next((ell for ell in range(u, 0, -1) if beta[ell] >= ell), None)
        if y is None:
            if beta[0] * (k - 1) >= d - u + 1:
                y = 0
            else:
                break
        delta_req = 1 if y >= 1 else 2
        z = next((ell for ell in range(d, u, -1) if alpha[ell] >= delta_req), None)
        if z is None:
            raise AssertionError("no row with enough slack; greedy invariant broken")
        if z < u + 2 * y:
            raise AssertionError(f"z = {z} < u + 2y = {u + 2 * y}; greedy invariant broken")
        if y >= 1:
            window = range(z - 2 * y + 1, z + 1)
            if any(alpha[ell] < 1 for ell in window):
                raise AssertionError("slack run below 1; greedy invariant broken")
            step = min(beta[y] // y, min(alpha[ell] for ell in window))
            for i in range(y):
                x[(z - y - i, z - i)] += step
            beta[y] -= step * y
            for ell in window:
                alpha[ell] -= step
        else:
            by_beta = beta[0] - (-(-(d - u + 1) // (k - 1))) + 1
            step = min(by_beta, alpha[z] // 2)
            x[(z, z)] += step
            beta[0] -= step
            alpha[z] -= 2 * step
    # The termination threshold above is what makes the existence of z
    # provable, not what exhausts the budgets; keep improving while any
    # single move stays feasible.
    for y in range(u, 0, -1):
        for z in range(d, u + y, -1):
            while beta[y] >= 1 and alpha[z] >= 1 and alpha[z - y] >= 1:
                x[(z - y, z)] += 1
                beta[y] -= 1
                alpha[z] -= 1
                alpha[z - y] -= 1
    for z in range(d, u, -1):
        step = min(beta[0], alpha[z] // 2)
        if step:
            x[(z, z)] += step
            beta[0] -= step
            alpha[z] -= 2 * step
    sol = IpSolution(inst, dict(x))
    assert sol.feasible()
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
    """The sparse candidate that saturates every band and the diagonal.

    Feasible (with objective exactly q) whenever all row slacks stay
    nonnegative; otherwise the violated row slacks are reported.
    """
    if inst.variant != "secB":
        raise ValueError("closed_form_solve applies to variant secB")
    if inst.u < 0:
        return ClosedFormResult(zero_solution(inst), [])
    u, d = inst.u, inst.d
    phi = set(inst.phi)
    x: dict = defaultdict(int)
    bad_index = []
    assigns = []
    for i in range((u - 1) // 2 + 1):
        assigns.append(((u + 1 + i, 2 * u + 1 - i), inst.e[u - 2 * i]))
    for i in range((u - 2) // 2 + 1):
        assigns.append(((u + 1 + i, 2 * u - i), inst.e[u - 2 * i - 1]))
    assigns.append(((3 * u // 2 + 1, 3 * u // 2 + 1), inst.e[0] // 2))
    for (i, j), v in assigns:
        if (i, j) not in phi:
            bad_index.append(f"x_{i}_{j} outside the index set")
        else:
            x[(i, j)] += v
    if bad_index:
        return ClosedFormResult(None, bad_index)
    sol = IpSolution(inst, dict(x))
    violations = [f"beta_{key[1]}" for key, s in sol.slacks().items()
                  if key[0] == "R" and s < 0]
    violations += [f"alpha_{key[1] if len(key) > 1 else 0}"
                   for key, s in sol.slacks().items()
                   if key[0] in ("D", "O") and s < 0]
    if violations:
        return ClosedFormResult(None, violations)
    assert sol.objective == inst.q
    return ClosedFormResult(sol, [])


# --------------------------------------------------------------------------
# LP relaxation, exact solver
# --------------------------------------------------------------------------

def _build_lp(inst: IpInstance):
    """The LP relaxation, (lp, column of each index): integer rows with
    nonnegative caps, so x = 0 is feasible."""
    phi = inst.phi
    idx = {v: i for i, v in enumerate(phi)}
    lp = LinearProgram(len(phi))
    lp.set_objective([2] * len(phi))
    # one pass over Phi fills the band, diagonal and row constraints
    bands = {ell: {} for ell in inst.cap_off}
    diag: dict = {}
    rows = {ell: {} for ell in inst.cap_row}
    for col, (i, j) in enumerate(phi):
        if i == j:
            diag[col] = 1
        else:
            bands[j - i][col] = 1
        for ell in (i, j):
            rows[ell][col] = rows[ell].get(col, 0) + 1
    for ell, cap in sorted(inst.cap_off.items()):
        lp.add_constraint(bands[ell], cap)
    lp.add_constraint(diag, inst.cap_diag)
    for ell, cap in sorted(inst.cap_row.items()):
        if rows[ell]:
            lp.add_constraint(rows[ell], cap)
    return lp, idx


def lp_relax(inst: IpInstance):
    """Exact rational optimum of the LP relaxation; (value, solution dict)."""
    if inst.trivial:
        return Fraction(0), {}
    lp, idx = _build_lp(inst)
    value, xs = lp.solve()
    sol = {v: xs[idx[v]] for v in inst.phi if xs[idx[v]]}
    assert value <= inst.q
    return value, sol


def _floor_improve(inst: IpInstance, base: dict) -> IpSolution:
    """Floor a fractional solution, then greedily grow any variable."""
    x = {v: int(val) for v, val in base.items() if int(val)}
    sol = IpSolution(inst, x)
    slack = sol.slacks()
    for (i, j) in inst.phi:
        gains = [slack[("O", j - i)] if i != j else slack[("D",)]]
        if i == j:
            gains.append(slack[("R", i)] // 2)
        else:
            gains.append(slack[("R", i)])
            gains.append(slack[("R", j)])
        inc = min(gains)
        if inc > 0:
            x[(i, j)] = x.get((i, j), 0) + inc
            if i == j:
                slack[("D",)] -= inc
                slack[("R", i)] -= 2 * inc
            else:
                slack[("O", j - i)] -= inc
                slack[("R", i)] -= inc
                slack[("R", j)] -= inc
    out = IpSolution(inst, x)
    assert out.feasible()
    return out


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
    band = 2 * (inst.cap_diag + sum(inst.cap_off.values()))
    even_rows = sum(cap for ell, cap in inst.cap_row.items() if ell % 2 == 0)
    odd_bands = sum(cap for ell, cap in inst.cap_off.items() if ell % 2)
    if sum(inst.cap_row.values()) == band and (even_rows - odd_bands) % 2:
        return band - 2, "parity cut"
    return band, "band dual"


def exact_solve(inst: IpInstance):
    """The floored root LP, proved by `upper_bound`; (solution, proved_optimal).

    One exact LP, floored and grown by `_floor_improve`; proved_optimal
    says its objective meets the bound.  Over k in {3, 5, 7}, both variants
    and n <= 1500 it does on every instance, ten of them by the parity cut.
    """
    sol = _floor_improve(inst, lp_relax(inst)[1])
    return sol, sol.objective == upper_bound(inst)[0]


# --------------------------------------------------------------------------
# Realization into partition systems
# --------------------------------------------------------------------------

class _ClassStream(NamedTuple):
    """A solution's classes in stream order, as runs of one base profile:
    a forward and a mirror run of x_{i,j} classes per index, in index
    order, each class padded with the next `width` levels of the round
    robin over `supply`."""
    runs: list          # (base profile, number of classes)
    supply: dict        # padding level -> untouched row slack
    width: int          # padding levels per class, (k - 3) / 2
    tag: str            # the family of the padding pairs
    d: int

    def padded(self, base: tuple, levels) -> tuple:
        tag, d = self.tag, self.d
        return base + tuple(pad for ell in levels
                            for pad in ((tag, d - ell), (tag, d + 1 + ell)))


def _class_stream(inst: IpInstance, sol: IpSolution) -> _ClassStream:
    """Profiles are ((tag, x1_count), ...); the padding comes from the
    untouched family pairs, (k-3)/2 pairs per class, round-robin over the
    levels by decreasing slack."""
    d, u = inst.d, inst.u
    pair, single, shift = ("EA", "EB", 1) if inst.variant == "secA" else ("EB", "EA", 0)
    width = (inst.k - 3) // 2
    slacks = sol.slacks()
    supply = {ell: slacks[("R", ell)] for ell in range(u + 1, d + 1)}
    assert sum(supply.values()) >= sol.objective * width
    runs = [(((pair, d - a), (pair, d + 1 + b), (single, d + shift + a - b)), x)
            for (i, j), x in sorted(sol.x.items()) for a, b in ((i, j), (j, i))]
    return _ClassStream(runs, supply, width, pair, d)


def _class_profiles(inst: IpInstance, sol: IpSolution):
    """Per-class part profiles, including padding, yielded one class at a
    time in the order of `_class_stream`."""
    stream = _class_stream(inst, sol)
    levels = round_robin(stream.supply)
    for base, count in stream.runs:
        for _ in range(count):
            yield stream.padded(base, itertools.islice(levels, stream.width))


def realize_system(inst: IpInstance, sol: IpSolution, seed: int = 0) -> PartitionSystem:
    """Materialize a solution as an explicit partition system.

    Each class partitions the ground set, split into its two halves; a
    part with first-side count t of size c or c+1 is a block of type
    (t, size - t).  One staged flow over the whole ground
    (`baranyai.partition_ground` with two sides) hands every class its
    blocks, and blocks of one type are distinct, so all parts are.  The
    solution's capacities keep each type within its pool.  The seed only
    orders the placement of points.

    The flow needs one unit per class, so this is the one consumer of the
    class-at-a-time stream `_class_profiles`, and its cost and memory grow
    with the number of classes: about 1.85 KiB of peak RSS per part on
    (22,3,secA), 92,466 parts.  For systems too large to hold,
    `certificate()` checks the same family accounting from the runs of
    that stream, without building a class.
    """
    n, k = inst.n, inst.k
    half = n // 2
    c = 2 * inst.d + (1 if inst.variant == "secA" else 0)
    size_of = {"EA": c, "EB": c + 1}
    tag_of = {c: "EA", c + 1: "EB"}
    sides = (range(half), range(half, n))
    units = [[(t, size_of[tag] - t) for tag, t in prof]
             for prof in _class_profiles(inst, sol)]
    partitions = partition_ground(range(n), units, sides=sides,
                                  rng=random.Random(f"{seed}:ip-realize"))
    tags = [[(tag_of[len(b)], sum(e < half for e in b)) for b in parts]
            for parts in partitions]
    return PartitionSystem(n, k, partitions, [list(side) for side in sides], tags)


def certificate(inst: IpInstance, sol: IpSolution) -> SystemCertificate:
    """Aggregated accounting certificate, independent of materialization.

    Reads the stream of `_class_profiles` run by run and counts each run's
    padding windows in closed form (`roundrobin.window_counts`), never
    producing a class: O(|supp x| + d) steps over runs and padding phases
    plus one step per distinct profile, independent of the number of
    classes.  On (8750, 13, secA), Q of 3,414 bits, the greedy optimum
    certifies in 578 profiles.
    """
    half = inst.n // 2
    c = 2 * inst.d + (1 if inst.variant == "secA" else 0)
    size_of = {"EA": c, "EB": c + 1}
    stream = _class_stream(inst, sol)
    windows = window_counts(stream.supply, stream.width, [m for _, m in stream.runs])
    counts = Counter()
    for (base, _), run in zip(stream.runs, windows):
        for levels, cnt in run.items():
            # profile tags carry the first-side count, matching the checker's key
            counts[tuple(sorted(((tag, t), size_of[tag], (t, size_of[tag] - t))
                                for tag, t in stream.padded(base, levels)))] += cnt
    return SystemCertificate(inst.n, inst.k, sol.objective, (half, half),
                             sorted(counts.items()))


# --------------------------------------------------------------------------
# Asymptotic diagnostics
# --------------------------------------------------------------------------

@dataclass
class AsymptoticReport:
    n: int
    k: int
    variant: str
    d: int
    u: int
    q: int
    mms_value: Fraction
    estar_ratios: list    # estar_l / ((k-1) e_l) for l up to ceil(sqrt(d))
    gauss_ratios: list    # e_l / (e_0 exp(-k l^2 / (d (k-1))))
    u_ratio: float        # u / (erf^-1(1/2) sqrt(d (k-1) / k))
    q_over_mms: float


def asymptotic_report(inst: IpInstance) -> AsymptoticReport:
    n, k, d, u, q = inst.n, inst.k, inst.d, inst.u, inst.q
    lmax = math.isqrt(d - 1) + 1 if d > 1 else 1
    lmax = min(lmax, len(inst.e) - 1, len(inst.estar) - 1)
    estar_ratios = [float(Fraction(inst.estar[ell], (k - 1) * inst.e[ell]))
                    for ell in range(lmax + 1)]
    gauss_ratios = [float(Fraction(inst.e[ell], inst.e[0]))
                    / math.exp(-k * ell * ell / (d * (k - 1)))
                    for ell in range(lmax + 1)]
    u_pred = ERF_INV_HALF * math.sqrt(d * (k - 1) / k)
    mv = mms(inst.params)
    return AsymptoticReport(n, k, inst.variant, d, u, q, mv, estar_ratios,
                            gauss_ratios, u / u_pred if u_pred else float("nan"),
                            float(Fraction(q) / mv))
