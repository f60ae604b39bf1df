"""Exact and real-valued combinatorial primitives.

Everything countable is computed with arbitrary-precision integers, and
every bound comparison is exact (the shadow comparison is one integer
inequality).  Floats appear only in the real-valued shadow bound and its
root, and in the constant erf^-1(1/2), which are inherently approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Params:
    """A parameter pair (n, k) with its unique decomposition n = c*k + r."""

    n: int
    k: int
    c: int
    r: int

    def __post_init__(self):
        if self.k < 1 or self.n < self.k:
            raise ValueError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        if self.c * self.k + self.r != self.n or not 0 <= self.r < self.k:
            raise ValueError(f"inconsistent decomposition {self}")


def decompose(n: int, k: int) -> Params:
    """Split n = c*k + r with 0 <= r <= k-1."""
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    c, r = divmod(n, k)
    return Params(n, k, c, r)


def binom(x: int, y: int) -> int:
    """Exact binomial coefficient, 0 outside the range 0 <= y <= x."""
    if x < 0:
        raise ValueError(f"negative upper index {x}")
    if y < 0:
        return 0
    return math.comb(x, y)


def _binom_real_raw(q: float, t: int) -> float:
    out = 1.0
    for i in range(t):
        out *= (q - i) / (i + 1)
    return out


def binom_frac(q: Fraction, t: int) -> Fraction:
    """The real binomial (1/t!) * prod_{i<t} (q - i), exactly at a rational q."""
    out = Fraction(1)
    for i in range(t):
        out *= q - i
    return out / math.factorial(t)


def mms(params: Params, choose: int | None = None) -> Fraction:
    """LYM-derived counting bound binom(n,c) / (k - r + r(c+1)/(n-c)), exact;
    `choose` is binom(n, c) when the caller has it."""
    n, k, c, r = params.n, params.k, params.c, params.r
    if n <= c:
        raise ValueError(f"need n > c, got n={n}, c={c}")
    den = (k - r) * (n - c) + r * (c + 1)
    return Fraction((binom(n, c) if choose is None else choose) * (n - c), den)


# --------------------------------------------------------------------------
# Shadow bound: given x many c-sets, binom(q, c-1) with binom(q, c) = x is a
# lower bound on the size of their (c-1)-shadow (Lovasz form).  The root q
# lives on the increasing branch q >= c - 1; for x >= 1 it satisfies q >= c.
# --------------------------------------------------------------------------

_ROOT_TOL = 1e-12


def shadow_root(c: int, x: float) -> float:
    """The unique q >= c - 1 with (1/c!) prod_{i<c} (q - i) = x, for x >= 0."""
    if c < 2:
        raise ValueError(f"need c >= 2, got {c}")
    if x < 0:
        raise ValueError(f"need x >= 0, got {x}")
    if c == 2:
        # q(q-1)/2 = x
        return (1.0 + math.sqrt(1.0 + 8.0 * x)) / 2.0
    lo, hi = float(c - 1), float(c + x + 2)
    # prod_{i<c}(q-i)/c! >= (x+3)(x+4)/2 > x at q = c+x+2, so hi brackets
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _binom_real_raw(mid, c) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo < _ROOT_TOL:
            break
    return (lo + hi) / 2.0


def shadow_bound(c: int, x: float) -> float:
    """binom(q, c-1) at the shadow root; the minimum shadow size of x c-sets."""
    q = shadow_root(c, x)
    return _binom_real_raw(q, max(c - 1, 0))


def shadow_cmp(c: int, x: int, y: Fraction | int) -> bool:
    """Decide shadow_bound(c, x) <= y exactly (x a nonnegative integer).

    With f(q) = binom(q, c-1) and binom(q, c) = f(q)(q - c + 1)/c, the root
    q satisfies q = c*x / f(q) + c - 1, and f increases on q >= c - 1.  So
    for y > 0 the bound is at most y exactly when f(c*x/y + c - 1) <= y,
    which after multiplying by y^(c-1) is the closed form

        prod_{j=1}^{c-1} (c*x + j*y) <= (c-1)! * y^c,

    integer arithmetic for integer y and exact for rational y.  For c = 2
    it reads 1 + 8x <= (2y - 1)^2.  The product is a plain loop: for the
    scans' small c, math.prod over a generator costs twice as much.
    """
    if y <= 0:
        return False
    cx, lhs = c * x, 1
    for j in range(1, c):
        lhs *= cx + j * y
    return lhs <= math.factorial(c - 1) * y ** c


# erf^-1(1/2): the limit of u / sqrt(d (k-1) / k) in the IP diagnostics.
ERF_INV_HALF = 0.4769362762044699
