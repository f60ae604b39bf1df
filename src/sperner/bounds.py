"""Upper and lower bounds on the maximum size of Sperner partition systems.

The refined upper bound combines the counting bound with a shadow bound:
SP(n, k) is at most the largest s for which

    ceil((1 - r(c+1)/n) * s) + shadow_bound(c, floor(r(c+1)/n * s))

stays within binom(n-1, c-1).  The left side is nondecreasing in s, so a
bisection finds the threshold, on the bracket [0, floor(mms) + 2) that
refined_upper's docstring proves.  With y the room left after the
counting term, the shadow comparison is the closed integer inequality

    prod_{j=1}^{c-1} (c*x + j*y) <= (c-1)! * y^c,    x = floor(r(c+1)/n * s),

(combinat.shadow_cmp), so every scan decision is exact.  The Table-1 scan
runs serially, in (n, k) order over 2 <= n // k <= c_max, on the c that
divide n, one split table each (construction.split_table, from the
divisors of n found once).  It walks each split by increasing m over the
one k-interval where its case-(b) size is positive and its blocks fit
(r <= r_cap and c(k - r) <= m*h^c), keeping the first strict maximum per
k, then makes one predicate test per k with a size.  The Table-2 scan
walks k down from ceil(9r^2/2) and stops at the first k the bound fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinat import Params, binom, decompose, divisors, mms, shadow_cmp
from .construction import grouped_factor, split_table


def _in_domain(params: Params) -> bool:
    return params.k >= 4 and params.n >= 2 * params.k + 2 and params.r != 0


def _bound_satisfied(n: int, c: int, r: int, s: int) -> bool:
    """Exact counting-plus-shadow test at candidate size s for n = ck + r."""
    num = r * (c + 1)
    # room left in binom(n-1, c-1) after the counting term ceil((n-num)s/n);
    # shadow_cmp rejects y <= 0
    y = math.comb(n - 1, c - 1) + (num - n) * s // n
    return shadow_cmp(c, (num * s) // n, y)


def refined_upper(params: Params) -> int | None:
    """Largest s passing the shadow-refined counting bound; None off-domain.

    Not applicable when k | n: the shadow term is then evaluated at zero
    where no root with q >= c exists, and the resolution construction
    already settles those cases exactly.

    The bisection runs on [0, floor(mms) + 2), a bracket proved here.  In
    the notation of _bound_satisfied, B = binom(n-1, c-1), num = r(c+1),
    x = floor(num*s/n) and y = B - ceil((n-num)*s/n).  P(s) holds exactly
    when y > 0 and L(x) <= y, where L(x) = binom(q, c-1) with
    binom(q, c) = x (L(0) = 1).  Put D' = (k-r)(n-c) + r(c+1), so that
    mms = binom(n, c)(n-c)/D'.

    - If x > binom(n-1, c), then q > n-1 and L(x) > B >= y: P(s) fails.
    - Otherwise q <= n-1, and for x >= 1, L(x) = x*c/(q-c+1) >= x*c/(n-c).
      So P(s) implies x*c/(n-c) <= y, also at x = 0.
    - Substitute x >= (num*s - n + 1)/n and y <= B - (n-num)*s/n, and
      multiply by n(n-c): s*(c*num + (n-num)(n-c)) <= B*n(n-c) + c(n-1).
    - n - num = c(k-r), so the bracket is c*D'; and B*n = c*binom(n, c).
      So s <= mms + (n-1)/D'.
    - In the domain n >= ck >= 4c, so n - c > c + 1 and
      D' >= k(c+1) > ck + r = n.  Hence s < mms + 1.

    So P fails at floor(mms) + 2 and above, and P(0) holds, as x = 0 and
    y = B >= 1.  The bisection keeps P(lo) true and P(hi) false.
    """
    if not _in_domain(params):
        return None
    n, c, r = params.n, params.c, params.r
    lo, hi = 0, int(mms(params)) + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _bound_satisfied(n, c, r, mid):
            lo = mid
        else:
            hi = mid
    return lo


def small_r_ceiling(r: int) -> int:
    """ceil of the shadow root for 3r pairs: t = ceil(q), q(q-1)/2 = 3r.

    That is t = ceil((1 + sqrt(1 + 24r))/2); put s = isqrt(24r).  If
    1 + 24r is a square, its root is odd and equals s + 1, so t = (s+2)/2
    with s even.  Otherwise isqrt(1 + 24r) = s and s < sqrt(1 + 24r) < s+1,
    so (1+s)/2 < (1 + sqrt(1 + 24r))/2 < (s+2)/2 and t = (1+s)//2 + 1
    whatever the parity of s.  Both cases read (1+s)//2 + 1.
    """
    return (1 + math.isqrt(24 * r)) // 2 + 1


def small_r_upper(k: int, r: int) -> int:
    """Upper bound 2k + 4r - t - 1 for SP(2k+r, k) with r at most sqrt(2k)/3."""
    if k < 4 or r < 1:
        raise ValueError(f"need k >= 4 and r >= 1, got k={k}, r={r}")
    if 9 * r * r > 2 * k:
        raise ValueError(f"hypothesis 3r <= sqrt(2k) fails for k={k}, r={r}")
    t = small_r_ceiling(r)
    return 2 * k + 4 * r - t - 1


def two_value_range(k: int) -> tuple[int, int]:
    """For even k >= 4 and n = 3k-2: SP(n,k) is binom(n/2,2) or binom(n/2,2)+1."""
    if k < 4 or k % 2:
        raise ValueError(f"need even k >= 4, got {k}")
    n = 3 * k - 2
    lo = binom(n // 2, 2)
    return lo, lo + 1


# --------------------------------------------------------------------------
# Scans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactRow:
    n: int
    k: int
    m: int
    h: int
    sp: int


def best_grouped_lower(n: int, k: int):
    """Best grouped-construction size over all (m, h) splits; with witness."""
    params = decompose(n, k)
    c, r = params.c, params.r
    best = (0, None)
    if r == 0 or c < 2 or k < 3:
        return best
    for split in split_table(n, c):
        for case in ("a", "b"):
            factors = grouped_factor(c, k, r, split, case)
            if type(factors) is tuple and factors[2] * split[2] > best[0]:
                best = (factors[2] * split[2], (*split[:2], case))
    return best


def _exact_rows_for_n(n: int, c_max: int) -> list[ExactRow]:
    """The rows of scan_exact for one n.  The bound is tested at one above each
    k's best size first; a size above the bound itself is inconsistent and raises."""
    rows, divs = [], divisors(n)
    # c | m | n; every k with n // k = c + 1 lies below every k with
    # n // k = c, and a k >= 4 with n // k = c needs c <= n // 5
    for c in reversed([d for d in divs if 2 <= d <= min(c_max, n // 5)]):
        # k = n/c has r = 0, and every k below it 1 <= r < k and n >= 2k + 2
        k_lo, k_hi = max(4, n // (c + 1) + 1), n // c
        best, witness = [0] * (k_hi - k_lo), [None] * (k_hi - k_lo)
        for split in split_table(n, c, divs):
            m, _, classes, _, _, mhc, mblocks, r_cap = split
            # k in [lo, hi) has r = n - ck <= r_cap and c(k - r) = c((c+1)k - n) <= m*h^c
            lo = max(k_lo, (n - r_cap + c - 1) // c)
            hi = min(k_hi, (n + mhc // c) // (c + 1) + 1)
            rs = range(n - c * lo, n - c * hi, -c)
            dens = range(c * ((c + 1) * lo - n), c * ((c + 1) * hi - n), c * (c + 1))
            for i, r, den in zip(range(lo - k_lo, hi - k_lo), rs, dens):
                p, cap2 = mhc // den, mblocks // (r * classes)
                if cap2 < p:
                    p = cap2
                if p * classes > best[i] and not p * r % m:
                    best[i], witness[i] = p * classes, split
        for k, size, split in zip(range(k_lo, k_hi), best, witness):
            if not size or _bound_satisfied(n, c, n - c * k, size + 1):
                continue
            if not _bound_satisfied(n, c, n - c * k, size):
                raise AssertionError(f"grouped size {size} exceeds the refined upper "
                                     f"bound at n={n}, k={k}")
            rows.append(ExactRow(n, k, split[0], split[1], size))
    return rows


def scan_exact(n_max: int, c_max: int = 2) -> list[ExactRow]:
    """All (n, k) with n <= n_max and 2 <= n // k <= c_max where the
    case-(b) grouped construction meets the refined upper bound, in (n, k)
    order; one witnessing (m, h) each."""
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {n_max}")
    if c_max < 2:
        raise ValueError(f"need c_max >= 2, got {c_max}")
    return [row for n in range(4, n_max + 1) for row in _exact_rows_for_n(n, c_max)]


@dataclass(frozen=True)
class SmallRRow:
    r: int
    k_threshold: int
    bound: str


def scan_small_r() -> list[SmallRRow]:
    """Minimal k from which the refined bound certifies 2k + 4r - t - 1,
    for r = 3..10.

    Certification is required for every k between the threshold and the
    point ceil(9 r^2 / 2) where the closed-form hypothesis takes over, so
    the walk down from that point stops at the first k that fails.  The
    predicate is monotone in s, so refined_upper is at most 2k + 4r - t - 1
    exactly when the predicate fails one above it: one test per k.
    """
    rows = []
    for r in range(3, 11):
        add = 4 * r - small_r_ceiling(r) - 1
        threshold = None
        for k in range(-(-9 * r * r // 2), 3, -1):
            params = decompose(2 * k + r, k)
            if (not _in_domain(params)
                    or _bound_satisfied(params.n, params.c, params.r, 2 * k + add + 1)):
                break
            threshold = k
        if threshold is None:
            raise ArithmeticError(f"no certifying k found for r={r}")
        rows.append(SmallRRow(r, threshold, f"2k+{add}"))
    return rows


# --------------------------------------------------------------------------
# Per-instance report
# --------------------------------------------------------------------------

@dataclass
class BoundsReport:
    params: Params
    mms_value: Fraction
    refined: int | None
    small_r: int | None
    range_3k2: tuple | None
    best_lower: int
    witness: str


def bounds_report(n: int, k: int) -> BoundsReport:
    params = decompose(n, k)
    c, r = params.c, params.r
    mv = mms(params)
    upper = refined_upper(params)
    small = None
    if k >= 4 and n == 2 * k + r and 1 <= r and 9 * r * r <= 2 * k:
        small = small_r_upper(k, r)
    rng = None
    if k >= 4 and k % 2 == 0 and n == 3 * k - 2:
        rng = two_value_range(k)
    if r == 0:
        lower, witness = binom(n - 1, c - 1), "uniform resolution"
    else:
        lower, witness = 1, "single partition"
        lift = binom(c * k - 1, c - 1)
        if lift > lower:
            lower, witness = lift, f"lift of the uniform system at n={c * k}"
        size, wit = best_grouped_lower(n, k)
        if size > lower:
            m, h, case = wit
            lower, witness = size, f"grouped case ({case}) with m={m}, h={h}"
    if upper is not None and lower > upper:
        raise AssertionError(f"lower bound {lower} exceeds upper bound {upper}")
    return BoundsReport(params, mv, upper, small, rng, lower, witness)
