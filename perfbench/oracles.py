"""Independent reference computations for checking the program's outputs.

Nothing here imports `sperner`: every verdict the benchmark compares
against is recomputed from the definitions in the paper (Chang, Colbourn,
Gowty, Horsley and Zhou, arXiv:2010.10756) with exact integers and
rationals.  The one exception is `highs_lp_value`, which uses scipy's HiGHS
solver in floating point as an outside cross-check of the exact simplex.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


# --------------------------------------------------------------------------
# Partition systems as plain data: a list of partitions, each a list of
# frozensets over {0..n-1}.
# --------------------------------------------------------------------------

def parse_sps(text: str):
    """(n, k, partitions) from the SPS text format."""
    lines = text.splitlines()
    head = lines[0].split()
    if len(head) != 4 or head[0] != "SPS":
        raise ValueError(f"bad SPS header {lines[0]!r}")
    n, k, p = (int(v) for v in head[1:])
    partitions = [[frozenset(int(e) for e in blk.split()) for blk in line.split("|")]
                  for line in lines[1:p + 1]]
    if len(partitions) != p:
        raise ValueError(f"SPS header promises {p} partitions, found {len(partitions)}")
    return n, k, partitions


def format_sps(n: int, k: int, partitions) -> str:
    lines = [f"SPS {n} {k} {len(partitions)}"]
    for parts in partitions:
        blocks = sorted((sorted(p) for p in parts), key=lambda b: b[0])
        lines.append(" | ".join(" ".join(map(str, b)) for b in blocks))
    return "\n".join(lines) + "\n"


def format_da(n: int, k: int, partitions) -> str:
    """Detecting array: row i, column j holds the 1-based index of i's part."""
    rows = [[0] * len(partitions) for _ in range(n)]
    for j, parts in enumerate(partitions):
        blocks = sorted((sorted(p) for p in parts), key=lambda b: b[0])
        for sym, block in enumerate(blocks, start=1):
            for e in block:
                rows[e][j] = sym
    lines = [f"DA {n} {k} {len(partitions)}"]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def parse_da(text: str):
    """(n, k, partitions) read back from the DA text format."""
    lines = text.splitlines()
    head = lines[0].split()
    if len(head) != 4 or head[0] != "DA":
        raise ValueError(f"bad DA header {lines[0]!r}")
    n, k, p = (int(v) for v in head[1:])
    cols = [defaultdict(set) for _ in range(p)]
    for i, line in enumerate(lines[1:n + 1]):
        for j, sym in enumerate(line.split()):
            cols[j][int(sym)].add(i)
    return n, k, [[frozenset(col[s]) for s in sorted(col)] for col in cols]


def is_partition_system(n: int, k: int, partitions) -> bool:
    ground = set(range(n))
    for parts in partitions:
        if len(parts) != k or any(not p for p in parts):
            return False
        seen = set()
        for p in parts:
            if seen & p:
                return False
            seen |= p
        if seen != ground:
            return False
    return True


def first_violation(partitions):
    """A pair (small part, large part) from distinct partitions with small
    contained in large, or None.

    Equal parts are found by hashing.  For a size pair (s, s+1) every
    s-subset of each (s+1)-part is looked up among the s-parts, which is
    linear in the system size; other size pairs fall back to a pairwise
    scan.
    """
    owner = defaultdict(set)        # part -> indices of partitions holding it
    by_size = defaultdict(list)     # size -> [(part, partition index)]
    for idx, parts in enumerate(partitions):
        for part in parts:
            owner[part].add(idx)
            by_size[len(part)].append((part, idx))
    for part, idxs in owner.items():
        if len(idxs) > 1:
            return sorted(part), sorted(part)
    sizes = sorted(by_size)
    for ai, s in enumerate(sizes):
        for t in sizes[ai + 1:]:
            if t == s + 1:
                for big, bi in by_size[t]:
                    for sub in combinations(sorted(big), s):
                        holders = owner.get(frozenset(sub))
                        if holders and holders - {bi}:
                            return list(sub), sorted(big)
            else:
                for small, si in by_size[s]:
                    for big, bi in by_size[t]:
                        if si != bi and small <= big:
                            return sorted(small), sorted(big)
    return None


def is_sperner(partitions) -> bool:
    return first_violation(partitions) is None


def size_profile_ok(n: int, k: int, partitions) -> bool:
    """Every partition has k - r parts of size c and r parts of size c + 1."""
    c, r = divmod(n, k)
    want = sorted([c] * (k - r) + [c + 1] * r)
    return all(sorted(len(p) for p in parts) == want for parts in partitions)


def is_resolution(n: int, c: int, partitions) -> bool:
    """Every c-subset of {0..n-1} appears exactly once, and every class is a
    partition of the ground set into c-sets."""
    ground = frozenset(range(n))
    seen = set()
    for parts in partitions:
        if any(len(p) != c for p in parts) or frozenset().union(*parts) != ground:
            return False
        if sum(len(p) for p in parts) != n:
            return False
        for p in parts:
            if p in seen:
                return False
            seen.add(p)
    return len(seen) == math.comb(n, c)


# --------------------------------------------------------------------------
# Counting bound and the shadow-refined upper bound
# --------------------------------------------------------------------------

def mms(n: int, k: int) -> Fraction:
    """binom(n, c) / (k - r + r(c+1)/(n-c)) for n = ck + r."""
    c, r = divmod(n, k)
    return Fraction(math.comb(n, c)) / (Fraction(k - r) + Fraction(r * (c + 1), n - c))


def _real_binom(q: Fraction, t: int) -> Fraction:
    out = Fraction(1)
    for i in range(t):
        out = out * (q - i) / (i + 1)
    return out


def shadow_le(c: int, x: int, y) -> bool:
    """Decide shadow_bound(c, x) <= y exactly, for y > 0.

    With f(q) = binom(q, c-1) and binom(q, c) = f(q)(q - c + 1)/c, the
    shadow root q satisfies q = c x / f(q) + c - 1, and f increases on
    q >= c - 1.  Hence f(q) <= y exactly when f(c x / y + c - 1) <= y.
    """
    y = Fraction(y)
    if y <= 0:
        return False
    return _real_binom(Fraction(c * x) / y + c - 1, c - 1) <= y


def refined_predicate(n: int, k: int, s: int) -> bool:
    """ceil((1 - r(c+1)/n) s) + shadow(c, floor(r(c+1) s / n)) <= binom(n-1, c-1)."""
    c, r = divmod(n, k)
    num = r * (c + 1)
    used = -((-(n - num) * s) // n)
    y = math.comb(n - 1, c - 1) - used
    if y < 1:
        return False
    return shadow_le(c, (num * s) // n, y)


def refined_domain(n: int, k: int) -> bool:
    return k >= 4 and n >= 2 * k + 2 and n % k != 0


def refined_threshold(n: int, k: int) -> int | None:
    """Largest s passing the refined predicate (it is monotone in s)."""
    if not refined_domain(n, k):
        return None
    hi = 1
    while refined_predicate(n, k, hi):
        hi *= 2
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if refined_predicate(n, k, mid):
            lo = mid
        else:
            hi = mid
    return lo


def grouped_size_case_b(n: int, k: int, m: int, h: int) -> int:
    """p * binom(m-1, c-1) with p = min(floor(m h^c / (c(k-r))),
    floor(m binom(h, c+1) / (r binom(m-1, c-1))))."""
    c, r = divmod(n, k)
    classes = math.comb(m - 1, c - 1)
    p = min((m * h ** c) // (c * (k - r)),
            (m * math.comb(h, c + 1)) // (r * classes))
    return max(p, 0) * classes


# --------------------------------------------------------------------------
# The banded integer programs (secA: n = (2d+1)k + 1, secB: n = (2d+1)k - 1)
# --------------------------------------------------------------------------

@dataclass
class IpParams:
    variant: str
    n: int
    k: int
    d: int
    u: int
    q: int
    cap_diag: int
    cap_off: dict
    cap_row: dict

    def index_set(self):
        return [(i, j) for i in range(self.u + 1, self.d + 1)
                for j in range(i, min(i + self.u, self.d) + 1)]


def _suffix(values):
    """suffix[x] = sum(values[x:]), with suffix[len] = 0."""
    out = [0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        out[i] = out[i + 1] + values[i]
    return out


def ip_params(n: int, k: int, variant: str) -> IpParams:
    """Q, u and the caps of the program, from the family sizes E_l, E*_l."""
    half = n // 2
    if variant == "secA":
        d = (n - k - 1) // (2 * k)
        if (2 * d + 1) * k + 1 != n:
            raise ValueError(f"({n},{k}) is not in class secA")
        e = [math.comb(half, d - l) * math.comb(half, d + 1 + l) for l in range(d + 1)]
        es = [math.comb(half, d + 1 - l) * math.comb(half, d + 1 + l) for l in range(d + 2)]
        tail_e = _suffix(e)
        # a(x) = 2 sum_{l > x} E_l,  b(x) = sum_{l <= x} E*_l
        u = next(x for x in range(d + 1)
                 if 2 * tail_e[x + 1] <= (k - 1) * (sum(es[:x + 1])))
        a_u = 2 * tail_e[u + 1]
        q = 2 * (a_u // (2 * (k - 1)))
        # eta: E*_0 first (used in pairs on the diagonal), then E*_1, E*_2, ...
        want = q // 2
        if 2 * want + (es[0] % 2) <= es[0]:
            eta = [2 * want + (es[0] % 2)] + [0] * u
        else:
            eta, left = [es[0]], want - es[0] // 2
            for l in range(1, u + 1):
                eta.append(min(left, es[l]))
                left -= eta[-1]
        return IpParams(variant, n, k, d, u, q, eta[0] // 2,
                        {l: eta[l] for l in range(1, u + 1)},
                        {l: e[l] for l in range(u + 1, d + 1)})
    if variant == "secB":
        d = (n + 1 - k) // (2 * k)
        if (2 * d + 1) * k - 1 != n:
            raise ValueError(f"({n},{k}) is not in class secB")
        e = [math.comb(half, d - l) * math.comb(half, d + l) for l in range(d + 1)]
        es = [math.comb(half, d - l) * math.comb(half, d + 1 + l) for l in range(d + 1)]
        tail_es = _suffix(es)

        def a(x):
            return 0 if x < 0 else e[0] + 2 * sum(e[1:x + 1])

        def b(x):
            return math.comb(n, 2 * d + 1) if x < 0 else 2 * tail_es[x + 1]

        u = max(x for x in range(-1, d) if (k - 1) * a(x) <= b(x))
        q = a(u) - a(u) % 2
        return IpParams(variant, n, k, d, u, q, e[0] // 2,
                        {l: e[l] for l in range(1, u + 1)},
                        {l: es[l] for l in range(u + 1, d + 1)})
    raise ValueError(f"unknown variant {variant!r}")


def ip_constraint_rows(par: IpParams):
    """(row over the index set, cap) for every constraint of the program."""
    phi = par.index_set()
    rows = [([1 if i == j else 0 for (i, j) in phi], par.cap_diag)]
    for l, cap in sorted(par.cap_off.items()):
        rows.append(([1 if j - i == l else 0 for (i, j) in phi], cap))
    for l, cap in sorted(par.cap_row.items()):
        rows.append(([(i == l) + (j == l) for (i, j) in phi], cap))
    return phi, rows


def parse_ip_dump(text: str):
    """(header fields, caps, x) from `sperner ip --dump` output."""
    lines = text.splitlines()
    head = lines[0].split()
    if head[0] != "IP" or len(head) != 7:
        raise ValueError(f"bad IP header {lines[0]!r}")
    header = {"variant": head[1], "n": int(head[2]), "k": int(head[3]),
              "d": int(head[4]), "u": int(head[5]), "q": int(head[6])}
    caps, x = {}, {}
    for line in lines[1:]:
        f = line.split()
        if f[0] == "cap" and f[1] == "D":
            caps[("D",)] = int(f[2])
        elif f[0] == "cap":
            caps[(f[1], int(f[2]))] = int(f[3])
        elif f[0] == "x":
            x[(int(f[1]), int(f[2]))] = int(f[3])
        else:
            raise ValueError(f"unexpected dump line {line!r}")
    return header, caps, x


def evaluate_ip_dump(text: str) -> tuple[list, int]:
    """(problems, objective) of a dumped solution under recomputed caps."""
    header, caps, x = parse_ip_dump(text)
    par = ip_params(header["n"], header["k"], header["variant"])
    problems = []
    for key in ("d", "u", "q"):
        if header[key] != getattr(par, key):
            problems.append(f"header {key}={header[key]}, recomputed {getattr(par, key)}")
    want = {("D",): par.cap_diag}
    want.update({("O", l): v for l, v in par.cap_off.items()})
    want.update({("R", l): v for l, v in par.cap_row.items()})
    if caps != want:
        problems.append("dumped caps differ from the recomputed caps")
    phi, rows = ip_constraint_rows(par)
    where = set(phi)
    for v, val in x.items():
        if v not in where or val < 0:
            problems.append(f"x{v} = {val} is outside the index set or negative")
    vec = [x.get(v, 0) for v in phi]
    for coefs, cap in rows:
        if sum(a * b for a, b in zip(coefs, vec)) > cap:
            problems.append("a constraint is violated")
            break
    objective = 2 * sum(vec)
    if objective > par.q:
        problems.append(f"objective {objective} exceeds Q = {par.q}")
    return problems, objective


def highs_lp_value(par: IpParams) -> Fraction:
    """LP optimum by scipy's HiGHS, on the program scaled by its largest cap.

    The caps run to hundreds of digits, so the program is divided by the
    largest one before it is handed to a floating-point solver; the result
    is scaled back exactly.
    """
    from scipy.optimize import linprog

    phi, rows = ip_constraint_rows(par)
    scale = max(cap for _, cap in rows)
    res = linprog([-2.0] * len(phi),
                  A_ub=[coefs for coefs, _ in rows],
                  b_ub=[float(Fraction(cap, scale)) for _, cap in rows],
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ArithmeticError(f"HiGHS failed: {res.message}")
    return Fraction(-res.fun) * scale


def lp_agrees(exact: Fraction, par: IpParams, rel_tol: float = 1e-9) -> bool:
    ref = highs_lp_value(par)
    return abs(exact - ref) <= Fraction(rel_tol) * max(abs(ref), 1)


def certificate_problems(cert: dict, par: IpParams) -> list:
    """Check an aggregated certificate (as plain data) against binomial caps.

    cert holds n, k, p, group_sizes and profiles, a list of
    (parts, count) where each part is (tag, size, [first-side, second-side]).
    """
    problems = []
    half = par.n // 2
    if cert["p"] != sum(count for _, count in cert["profiles"]):
        problems.append("profile counts do not add up to p")
    usage = defaultdict(int)
    for parts, count in cert["profiles"]:
        if len(parts) != par.k:
            problems.append(f"class profile with {len(parts)} parts")
        if [sum(sig[i] for _, _, sig in parts) for i in (0, 1)] != [half, half]:
            problems.append("class profile does not cover both halves")
        for tag, size, sig in parts:
            if sum(sig) != size:
                problems.append(f"part {tag} of size {size} has signature {sig}")
            usage[(size, sig[0])] += count
    for (size, t), used in usage.items():
        cap = math.comb(half, t) * math.comb(half, size - t)
        if used > cap:
            problems.append(f"{used} parts of size {size} with {t} on side one, "
                            f"only {cap} exist")
    return problems
