"""Constructions of almost-uniform Sperner partition systems.

The grouped construction splits the ground set into m groups of size h
(with mh = n, c | m) and builds p * binom(m-1, c-1) partitions whose parts
are either transversal c-sets of c groups or (c+1)-subsets of one group.
A balanced integer matrix T prescribes how many (c+1)-blocks each class
takes per group, and a resolution of the group set indexes which groups go
together.

Turning the counting argument into concrete, globally distinct parts is
one staged allocation per group (`baranyai.partition_ground`, one
integral circulation per point).  Every class's (c+1)-blocks in the group
come from one census of (c+1)-subsets, so they are distinct; the
points its blocks leave in the first group of a block of c groups start
transversals, and each later group of the block adds one point to every
open transversal.  Transversals of one class with equal content take each
point in a floor/ceil window, which keeps them distinct to the end.  A
proportional fractional flow meets every bound at every stage, so an
integral one exists and the realization needs no retries; it is
deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .baranyai import Resolution, partition_ground, resolve
from .combinat import Params, binom, decompose


# --------------------------------------------------------------------------
# Partition systems
# --------------------------------------------------------------------------

@dataclass
class PartitionSystem:
    """Partitions of {0..n-1} into k nonempty parts each.

    Every part is a sorted tuple of ints, its one form in the package:
    `to_text` writes parts as they are, and the verifiers index them as
    they are: `verify.PartIndex` raises ValueError on a part in any other
    form.
    """

    n: int
    k: int
    partitions: list
    groups: list | None = None

    @property
    def size(self) -> int:
        return len(self.partitions)

    def canonical(self) -> list:
        """The partitions in SPS order: each partition's parts sorted, then
        the partitions."""
        return sorted(sorted(parts) for parts in self.partitions)

    def to_text(self) -> str:
        """The SPS text, its partitions in `canonical()` order."""
        lines = [f"SPS {self.n} {self.k} {len(self.partitions)}"]
        lines += [" | ".join(" ".join(map(str, p)) for p in parts)
                  for parts in self.canonical()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PartitionSystem":
        (n, k, p), partitions = read_records(text, "SPS", 2, "partition lines",
                                             _parse_partition)
        return cls(n, k, partitions)


def _parse_partition(line: str, n: int, k: int, p: int) -> list:
    parts = [tuple(sorted(map(int, blk.split()))) for blk in line.split("|")]
    if len(parts) != k:
        raise ValueError(f"{len(parts)} blocks, want {k}")
    return parts


def read_records(text: str, tag: str, count_field: int, what: str, parse) -> tuple:
    """The header `tag n k p` of a text format, with n, k and p decimal
    integers, and its records: the next (n, k, p)[count_field] lines, each
    read by parse(line, n, k, p), whose ValueError gets the line number.
    Raises ValueError on a short file and on a non-blank line after the
    records, so that a file is never accepted after being read only in
    part."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty input")
    head = lines[0].split()
    if len(head) != 4 or head[0] != tag or not all(x.isdecimal() for x in head[1:]):
        raise ValueError(f"line 1: bad header {lines[0]!r}")
    dims = tuple(map(int, head[1:]))
    want = dims[count_field]
    records = []
    for ln, line in enumerate(lines[1:want + 1], start=2):
        try:
            records.append(parse(line, *dims))
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    if len(records) != want:
        raise ValueError(f"expected {want} {what}, found {len(records)}")
    for ln, line in enumerate(lines[want + 1:], start=want + 2):
        if line.strip():
            raise ValueError(f"line {ln}: text after the {want} {what} the header declares")
    return dims, records


def extend_system(system: PartitionSystem) -> PartitionSystem:
    """Add one ground element to a minimum-size part of every partition."""
    new = []
    e = system.n
    for parts in system.partitions:
        j = min(range(len(parts)), key=lambda i: (len(parts[i]), min(parts[i])))
        new.append([p + (e,) if i == j else p for i, p in enumerate(parts)])
    return PartitionSystem(system.n + 1, system.k, new)


# --------------------------------------------------------------------------
# Balanced matrices
# --------------------------------------------------------------------------

def balanced_matrix(n_rows: int, n_cols: int, low: int, n_high: int):
    """Rows with n_high entries low+1 and the rest low; column sums within 1.

    Row z puts its larger entries on the cyclic window of n_high columns
    that starts at z*n_high mod n_cols, so the windows tile the columns in
    order.  It is the row-by-row greedy that puts each row's larger entries
    on the columns of least sum, least index first: after z rows the
    columns of larger sum are exactly the first z*n_high mod n_cols.
    """
    if n_high > n_cols or n_high < 0 or low < 0 or n_rows < 1 or n_cols < 1:
        raise ValueError(f"bad balanced matrix shape ({n_rows},{n_cols},{low},{n_high})")
    return [[low + ((i - z * n_high) % n_cols < n_high) for i in range(n_cols)]
            for z in range(n_rows)]


# --------------------------------------------------------------------------
# Grouped construction plans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupedPlan:
    params: Params
    m: int
    h: int
    case: str
    caps: tuple     # (p1, p2) in case (a), (p1', p2') in case (b)
    p: int

    @property
    def n_classes(self) -> int:
        return binom(self.m - 1, self.params.c - 1)

    @property
    def size(self) -> int:
        return self.p * self.n_classes


def grouped_split(c: int, m: int, h: int) -> tuple:
    """What the grouped factors need of m groups of size h that does not
    depend on k: (m, h, binom(m-1, c-1), binom(h, c+1), h**c), then the
    case-(b) cap numerators m*h**c and m*binom(h, c+1)."""
    blocks, hc = binom(h, c + 1), h ** c
    return m, h, binom(m - 1, c - 1), blocks, hc, m * hc, m * blocks


def split_table(n: int, c: int) -> list:
    """grouped_split of every m | n with c | m and m < n, by increasing m."""
    return [grouped_split(c, m, n // m) for m in range(c, n, c) if n % m == 0]


def grouped_factor(c: int, k: int, r: int, split: tuple, case: str):
    """The caps of the case ((p1, p2) in case (a), (p1', p2') in case (b))
    and p = max(min(caps), 0) of the grouped construction on a grouped_split,
    as (cap1, cap2, p), or the reason the split is rejected as a string.

    Assumes what plan_grouped checks first: c >= 2, k >= 3, 1 <= r < k,
    c | m and case in ('a', 'b').  Builds nothing and raises nothing, so
    scans can filter splits by arithmetic alone.

    The caps carry the counting argument, so construct_grouped checks none
    of it again.  T has p rows over m/c columns; block i of every class
    takes column i.  N = binom(m-1, c-1) and B = binom(h, c+1).

    - Row sums.  c | m | n = ck + r puts c | r mod m, so every row sums to
      r/c with floor(r/m) per column and one more in (r mod m)/c of them.
    - Column sums.  They are within 1 of their mean pr/m, so a column sum s
      lies in [floor(pr/m), ceil(pr/m)], and s = pr/m in case (b), where
      m | pr.  A column leaves ph - (c+1)s transversals per class block,
      and mh - (c+1)r = c(k-r).
    - Case (b).  p <= p1' gives pc(k-r)/m <= h^c transversals per class
      block; p <= p2' gives (pr/m)*N <= B (c+1)-blocks per group.
    - Case (a).  The -c-1 in p1 absorbs the floor: ph - (c+1)floor(pr/m)
      <= h^c - c - 1 + (c+1)(m-1)/m < h^c.  p <= m*floor(B/N)/r gives
      ceil(pr/m) <= floor(B/N).
    - Parts and degrees.  With (c+1)*max(T) <= h, the last rule below,
      each partition gets r (c+1)-blocks and k - r transversals, and
      `partition_ground` gives every unit each point of a group once or
      raises AllocationError.
    """
    m, h, classes, blocks, hc = split[:5]
    if case == "a":
        cap1, cap2 = m * (hc - c - 1) // (c * (k - r)), m * (blocks // classes) // r
    else:
        cap1, cap2 = m * hc // (c * (k - r)), m * blocks // (r * classes)
    p = 0 if cap1 < 0 else cap1 if cap1 < cap2 else cap2   # min(caps) floored at 0; cap2 >= 0
    if case == "b" and p * r % m:
        return "case (b) needs p*r divisible by m"
    # a row of T spreads r/c over m/c columns: some group holds ceil(r/m) blocks
    if p and h < (c + 1) * -(-r // m):
        return "groups too small for the required block counts"
    return cap1, cap2, p


def best_split_b(c: int, k: int, r: int, splits: list) -> tuple:
    """The largest case-(b) size p * binom(m-1, c-1) over a split_table for
    one k, and the first split (least m) that reaches it; (0, None) when no
    split gives a positive size.  The same decision as the first strict
    maximum of grouped_factor(c, k, r, split, "b"), with the size compared
    before the rejection rules: a size above best has p > 0, and r < k
    keeps cap1 >= 0."""
    den, best, witness = c * (k - r), 0, None
    for split in splits:
        m, h, classes, _, _, mhc, mblocks = split
        p, cap2 = mhc // den, mblocks // (r * classes)
        if cap2 < p:
            p = cap2
        if p * classes > best and not (p * r % m or h < (c + 1) * -(-r // m)):
            best, witness = p * classes, split
    return best, witness


def plan_grouped(n: int, k: int, m: int, h: int, case: str) -> GroupedPlan:
    """Compute the partition-count factor p for the grouped construction."""
    params = decompose(n, k)
    c, r = params.c, params.r
    if case not in ("a", "b"):
        raise ValueError(f"case must be 'a' or 'b', got {case!r}")
    if c < 2 or k < 3:
        raise ValueError(f"need c >= 2 and k >= 3, got c={c}, k={k}")
    if r == 0:
        raise ValueError("r = 0: use the uniform construction instead")
    if m < 1 or h < 1 or m * h != n:
        raise ValueError(f"need m*h = n with m, h >= 1, got m={m}, h={h}, n={n}")
    if m % c != 0:
        raise ValueError(f"need c | m, got m={m}, c={c}")
    factors = grouped_factor(c, k, r, grouped_split(c, m, h), case)
    if isinstance(factors, str):
        raise ValueError(f"split m={m}, h={h} with r={r}: {factors}")
    return GroupedPlan(params, m, h, case, factors[:2], factors[2])


# --------------------------------------------------------------------------
# Realization
# --------------------------------------------------------------------------

def _detach_all(plan: GroupedPlan, res: Resolution, T, seed: int) -> PartitionSystem:
    """Realize a plan in one pass over the groups, one allocation per group.

    Partition (z, ell) takes T[z][i] (c+1)-blocks inside every group of
    block i of class ell, and its other h - (c+1)*T[z][i] points in those
    groups form as many transversals: the first group of the block starts
    them, and each later group adds one point to every one of them.
    """
    m, h, p, N = plan.m, plan.h, plan.p, plan.n_classes
    groups = [list(range(w * h, (w + 1) * h)) for w in range(m)]
    pos = {(ell, w): i for ell, cls in enumerate(res.classes)   # block i of class ell holds w
           for i, block in enumerate(cls) for w in block}
    rng = random.Random(f"{seed}:grouped")
    units = [(z, ell) for ell in range(N) for z in range(p)]
    transversals = {}   # (z, ell, i) -> open transversals of block i
    parts = {u: [] for u in units}
    for w in range(1, m + 1):
        keys = [(z, ell, pos[(ell, w)]) for z, ell in units]
        alloc = _stage_flow(plan, T, keys, groups[w - 1], transversals, rng)
        for key, (blocks, grown) in zip(keys, alloc):
            parts[key[:2]] += blocks
            transversals[key] = grown
    for key, done in transversals.items():
        parts[key[:2]] += done
    return PartitionSystem(plan.params.n, plan.params.k, [parts[u] for u in units], groups)


def _stage_flow(plan: GroupedPlan, T, keys, group, transversals, rng):
    """One group's allocation: per unit (z, ell, i), its (c+1)-blocks and
    its transversals, grown by one point of the group.

    A unit whose block i starts in this group has no transversals yet; the
    points its blocks leave start them.  Otherwise its open transversals
    go in as stubs and fill the rest of the group.  Units of one class
    share a parent, so in either case the transversals with equal content
    in a class take each point floor or ceil times; cap p1 or p1' keeps
    their number within h^c, which leaves at most h of them per content in
    the last group of the block, and so they end distinct.
    """
    c = plan.params.c
    alloc = partition_ground(group, [[c + 1] * T[z][i] for z, _, i in keys],
                             parents=[ell for _, ell, _ in keys], rng=rng,
                             stubs=[transversals.get(key, ()) for key in keys])
    out = []
    for key, got in zip(keys, alloc):
        blocks = [b for b in got if len(b) > c]
        if key in transversals:
            out.append((blocks, [b for b in got if len(b) <= c]))
        else:
            free = set(group).difference(*blocks)
            out.append((blocks, [(a,) for a in sorted(free)]))
    return out


def construct_grouped(plan: GroupedPlan, seed: int = 0) -> PartitionSystem:
    """Build the grouped system for a plan; empty system when p = 0."""
    if plan.p == 0:
        return PartitionSystem(plan.params.n, plan.params.k, [],
                               [list(range(w * plan.h, (w + 1) * plan.h))
                                for w in range(plan.m)])
    c, r = plan.params.c, plan.params.r
    x = r // plan.m
    T = balanced_matrix(plan.p, plan.m // c, x, (r - plan.m * x) // c)
    return _detach_all(plan, resolve(plan.m, c), T, seed)


def construct_uniform(n: int, k: int) -> PartitionSystem:
    """The binom(n-1, c-1) parallel classes of a resolution, for n = c*k."""
    params = decompose(n, k)
    if params.r != 0:
        raise ValueError(f"uniform construction needs k | n, got n={n}, k={k}")
    res = resolve(n, params.c)
    partitions = [[tuple(e - 1 for e in block) for block in cls]
                  for cls in res.classes]
    return PartitionSystem(n, k, partitions)
