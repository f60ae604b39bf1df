"""Ground-truth validation of partition systems.

The Sperner check is exact for every system: it finds each containment
between parts of distinct partitions by hashed subset lookups, in time
linear in the number of parts for almost-uniform systems.  The
detecting-array check reads the columns as partitions and runs the same
exact check, so the Sperner and detecting properties agree by
construction.  Certificate checking validates the construction's
family accounting and never does subset tests; its proof obligations are
coded once, over (class profile, count) pairs, which `check_certificate`
streams one materialized class at a time and an IP certificate aggregates.
Both checks of a materialized system read one `PartIndex` of its parts:
the Sperner check for equal parts and subset lookups, the certificate for
reused parts, so a system checked both ways is indexed once.  Each check
returns one report under the name that every command prints, and
`check_system` runs each check that applies to a materialized system.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, islice

from .combinat import Params, binom
from .construction import PartitionSystem, read_records


@dataclass
class VerificationReport:
    """One check's outcome: its name, as every command prints it, and the
    violations it found."""

    name: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, msg: str):
        self.violations.append(msg)

    def summary(self) -> str:
        """`name: ok`, or `name: FAIL` and one indented line per violation."""
        if self.ok:
            return f"{self.name}: ok"
        return "\n".join([f"{self.name}: FAIL", *(f"  {v}" for v in self.violations)])


def check_partition_system(system: PartitionSystem) -> VerificationReport:
    """Each partition covers {0..n-1} disjointly with k nonempty parts.
    Occurrences are counted, so an element repeated inside one part fails
    as one held by two parts does."""
    rep = VerificationReport("partition structure")
    n, ground = system.n, None
    for idx, parts in enumerate(system.partitions):
        if len(parts) != system.k:
            rep.fail(f"partition {idx}: {len(parts)} parts, want {system.k}")
        for j, part in enumerate(parts):
            if not part:
                rep.fail(f"partition {idx}: part {j} is empty")
        seen = set().union(*parts)
        if sum(map(len, parts)) != len(seen):
            _repeats(rep, idx, parts)
        # built once a partition holds n elements, so the file bounds its size
        if ground is None and len(seen) == n:
            ground = set(range(n))
        if len(seen) != n or seen != ground:
            extra = sorted(e for e in seen if not 0 <= e < n)
            rep.fail(f"partition {idx}: bad cover "
                     f"(missing {_absent(seen, 0, n) or []}, extra {extra})")
    return rep


def _absent(held, first: int, stop: int) -> str:
    """The numbers of range(first, stop) missing from `held`, listed up to
    ten, then counted: "[2, 5]" or "[0, ..., 9] and 7 more"; "" if none.
    The scan up from `first` passes at most len(held) + 10 numbers, so a
    declared n or k never sets the cost."""
    lacking = stop - first - sum(first <= x < stop for x in held)
    if not lacking:
        return ""
    listed = list(islice((x for x in range(first, stop) if x not in held), 10))
    return f"{listed} and {lacking - 10} more" if lacking > 10 else str(listed)


def _repeats(rep: VerificationReport, idx: int, parts) -> None:
    """Fail each element that partition idx holds more than once."""
    holders = defaultdict(list)
    for j, part in enumerate(parts):
        for e in part:
            holders[e].append(j)
    across = sorted(e for e, js in holders.items() if len(set(js)) > 1)
    within = sorted(e for e, js in holders.items() if len(set(js)) < len(js))
    if across:
        rep.fail(f"partition {idx}: element(s) {across} in more than one part")
    if within:
        rep.fail(f"partition {idx}: element(s) {within} repeated inside a part")


class PartIndex:
    """Every part of a system, indexed once by size.

    Parts are keyed as they are, so equal parts must be equal tuples: a
    part that is not a sorted tuple raises ValueError, since in any other
    form it would miss its equals and the subsets `check_sperner` lists.
    `first` maps each size to {part: first partition holding it}; `more`
    maps each part held more than once to its later holders, in order.
    `check_sperner` reads equal parts from `more` and containments from
    `first`; `check_certificate` reads reused parts from `more`.  A caller
    running both builds one index and passes it to each.
    """

    def __init__(self, partitions):
        self.first = defaultdict(dict)
        self.more = {}
        for idx, parts in enumerate(partitions):
            for part in parts:
                if type(part) is not tuple or part != tuple(sorted(part)):
                    raise ValueError(f"partition {idx}: part {part!r} is not a sorted tuple")
                table = self.first[len(part)]
                if part in table:
                    self.more.setdefault(part, []).append(idx)
                else:
                    table[part] = idx

    def holders(self, part) -> list:
        """The partitions holding `part`, in order, with repeats."""
        return [self.first[len(part)][part], *self.more.get(part, ())]


def check_sperner(system: PartitionSystem, index: PartIndex | None = None
                  ) -> VerificationReport:
    """Exact subset test across parts of distinct partitions.

    Parts are hashed by size (`PartIndex`, built here unless given).  Equal
    parts meet in the hash table.  A part of size s inside a part of size
    t > s is one of the t-part's binom(t, s) s-subsets, each looked up in
    the table of s-parts; for the c / c+1 layers of an almost-uniform
    system that is c+1 lookups per large part.  Size pairs with more
    subsets per large part than there are small parts fall back to
    comparing every pair.  Parts are sorted tuples, so `combinations`
    lists a large part's s-subsets in the form the table keys them.
    """
    rep = VerificationReport("exact subset test")
    for pa, ja, pb, jb in _containments(system.partitions, index):
        rep.fail(f"part {ja} of partition {pa} is contained in "
                 f"part {jb} of partition {pb}")
    return rep


def _containments(partitions, index: PartIndex | None = None):
    """(pa, ja, pb, jb) for each part ja of partition pa that lies in part
    jb of a distinct partition pb, found as `check_sperner` describes."""
    if index is None:
        index = PartIndex(partitions)
    first, holders = index.first, index.holders

    def found(pa, a, pb, b):
        return pa, _position(partitions[pa], a), pb, _position(partitions[pb], b)

    for part in index.more:
        hs = holders(part)
        for x in range(len(hs)):
            for y in range(x + 1, len(hs)):
                if hs[x] != hs[y]:
                    yield found(hs[x], part, hs[y], part)
    sizes = sorted(first)
    for si, s in enumerate(sizes):
        small = first[s]
        for t in sizes[si + 1:]:
            big = first[t]
            if binom(t, s) <= len(small):
                pairs = ((a, b) for b in big for a in combinations(b, s) if a in small)
            else:
                pairs = ((a, b) for a in small for b in big if set(a) <= set(b))
            for a, b in pairs:
                for pa in holders(a):
                    for pb in holders(b):
                        if pa != pb:
                            yield found(pa, a, pb, b)


def _position(parts, part) -> int:
    return next(j for j, q in enumerate(parts) if q == part)


def check_almost_uniform(system: PartitionSystem, params: Params) -> VerificationReport:
    """Every partition has k-r parts of size c and r parts of size c+1."""
    rep = VerificationReport("almost uniform")
    want = sorted([params.c] * (params.k - params.r) + [params.c + 1] * params.r)
    for idx, parts in enumerate(system.partitions):
        got = sorted(len(p) for p in parts)
        if got != want:
            rep.fail(f"partition {idx}: size profile {got}, want {want}")
    return rep


def check_system(system: PartitionSystem, params: Params | None = None) -> list:
    """The report of every check that applies to a materialized system, in
    the order they print: the size profile only against given params, the
    certificate only when the system carries family tags.  One `PartIndex`
    serves both the certificate's reuse test and the subset test."""
    reports = [check_partition_system(system)]
    if params is not None:
        reports.append(check_almost_uniform(system, params))
    index = PartIndex(system.partitions)
    if system.part_tags is not None:
        reports.append(check_certificate(system, index))
    reports.append(check_sperner(system, index))
    return reports


# --------------------------------------------------------------------------
# Detecting arrays
# --------------------------------------------------------------------------

@dataclass
class DetectingArray:
    """n x p array over symbols {1..k}; column j encodes partition j."""

    n: int
    k: int
    p: int
    rows: list  # n rows, each a tuple of p symbols

    def to_text(self) -> str:
        lines = [f"DA {self.n} {self.k} {self.p}"]
        for row in self.rows:
            lines.append(" ".join(str(s) for s in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DetectingArray":
        (n, k, p), rows = read_records(text, "DA", 0, "rows", _parse_da_row)
        return cls(n, k, p, rows)


def _parse_da_row(line: str, n: int, k: int, p: int) -> tuple:
    row = tuple(int(s) for s in line.split())
    if len(row) != p:
        raise ValueError(f"{len(row)} entries, want {p}")
    if any(s < 1 or s > k for s in row):
        raise ValueError(f"symbol out of range 1..{k}")
    return row


def to_detecting_array(system: PartitionSystem) -> DetectingArray:
    """Column j gets symbol l on row i iff element i is in part l of partition j."""
    columns = system.canonical()
    rows = [[0] * len(columns) for _ in range(system.n)]
    for j, parts in enumerate(columns):
        for ell, part in enumerate(parts, start=1):
            for e in part:
                rows[e][j] = ell
    if any(0 in row for row in rows):
        raise ValueError("system does not cover the ground set")
    return DetectingArray(system.n, system.k, len(columns), [tuple(row) for row in rows])


def _columns(arr: DetectingArray) -> list:
    """Per column, in one pass over the rows: its row sets in symbol order,
    and the symbols of 1..k it never holds, as `_absent` lists them."""
    groups = [defaultdict(list) for _ in range(arr.p)]
    for i, row in enumerate(arr.rows):
        for column, s in zip(groups, row):
            column[s].append(i)
    return [([tuple(g[s]) for s in sorted(g)], _absent(g, 1, arr.k + 1)) for g in groups]


def from_detecting_array(arr: DetectingArray) -> PartitionSystem:
    partitions = []
    for j, (parts, missing) in enumerate(_columns(arr)):
        if missing:
            raise ValueError(f"column {j}: symbol(s) {missing} never appear")
        partitions.append(parts)
    return PartitionSystem(arr.n, arr.k, partitions)


def check_detecting(arr: DetectingArray) -> VerificationReport:
    """Row sets of (column, symbol) pairs are pairwise incomparable.

    Read column j as the partition of the rows by symbol: the row sets
    are then its parts (part i is symbol i + 1), and the detecting
    property is the Sperner property of the column partitions, decided by
    the exact engine of `check_sperner`.  A symbol missing from a column
    is a violation (an empty row set lies in every other).
    """
    rep = VerificationReport("detecting property")
    columns = _columns(arr)
    for j, (_, missing) in enumerate(columns):
        if missing:
            rep.fail(f"column {j}: symbol(s) {missing} never appear")
    if rep.ok:
        for col_a, ja, col_b, jb in _containments([parts for parts, _ in columns]):
            rep.fail(f"rows of symbol {ja + 1} in column {col_a} are contained "
                     f"in rows of symbol {jb + 1} in column {col_b}")
    return rep


# --------------------------------------------------------------------------
# Certificates
# --------------------------------------------------------------------------

_LARGE_LAYER = ("B", "EB")   # the (c+1)-set layer; "A" and "EA" make the c-set layer


def _family_capacity(tag, size: int, sig: tuple, group_sizes: tuple):
    """How many parts of this size family `tag` holds, or why a part with
    this size and group signature is not in it, as a string."""
    if len(sig) != len(group_sizes) or sum(sig) != size:
        return f"signature does not split size {size} over the groups"
    if tag[0] == "B":
        if not 1 <= tag[1] <= len(sig) or sig[tag[1] - 1] != size:
            return f"block not inside group {tag[1]}"
        return binom(group_sizes[tag[1] - 1], size)
    if tag[0] == "A":
        return group_sizes[0] ** size if max(sig) <= 1 else "transversal meets a group twice"
    if tag[0] in ("EA", "EB"):
        if sig[0] != tag[1]:
            return f"first-side size {sig[0]}, declared {tag[1]}"
        return binom(group_sizes[0], tag[1]) * binom(group_sizes[1], size - tag[1])
    return "unknown family tag"


def _layer_separation(rep: VerificationReport, small_sigs, large_sigs):
    """No small-layer signature componentwise below a large-layer one.

    Containment of parts implies domination of group signatures, so this
    rules out cross-layer containments without any pairwise set tests.
    """
    for sa in small_sigs:
        for sb in large_sigs:
            if all(x <= y for x, y in zip(sa, sb)):
                rep.fail(f"signature {sa} of a small part is dominated by "
                         f"signature {sb} of a large part")
                return


def _check_profiles(rep: VerificationReport, k: int, p: int, group_sizes: tuple,
                    profiles, what: str) -> None:
    """The family-accounting proof obligations over (class profile, count)
    pairs, a profile listing a class's parts as (tag, size, signature).

    Each part fits its family; each class has k parts and the group sizes
    as degree sums; there are p classes; the layers have one size each, c
    and c+1, and are separated; no family is used beyond its capacity.
    Each distinct part shape's capacity is derived once.
    """
    total = 0
    usage, caps = defaultdict(int), {}
    fits = {}       # (tag, size, sig) -> capacity or why the part does not fit
    sizes, sigs = (set(), set()), (set(), set())
    for idx, (profile, count) in enumerate(profiles):
        total += count
        if len(profile) != k:
            rep.fail(f"{what} {idx}: {len(profile)} parts, want {k}")
        for tag, size, sig in profile:
            cap = fits.get((tag, size, sig))
            if cap is None:
                cap = fits[tag, size, sig] = _family_capacity(tag, size, sig,
                                                              group_sizes)
            if isinstance(cap, str):
                rep.fail(f"{what} {idx}: part {tag!r} of signature {sig}: {cap}")
                continue
            usage[tag, size] += count
            caps[tag, size] = cap
            large = tag[0] in _LARGE_LAYER
            sizes[large].add(size)
            sigs[large].add(sig)
        degrees = tuple(map(sum, zip(*(sig for _, _, sig in profile))))
        if degrees != group_sizes:
            rep.fail(f"{what} {idx}: group degree sums {degrees}, want {group_sizes}")
    if total != p:
        rep.fail(f"profiles cover {total} classes, want {p}")
    small, large = sizes
    if len(small) > 1 or len(large) > 1 or (small and large and min(small) + 1 != min(large)):
        rep.fail(f"layer sizes {sorted(small)} / {sorted(large)} are not c and c+1")
    _layer_separation(rep, *sigs)
    for (tag, size), used in usage.items():
        if used > caps[tag, size]:
            rep.fail(f"family {tag}: {used} parts of size {size} used, "
                     f"capacity {caps[tag, size]}")


def check_certificate(system: PartitionSystem, index: PartIndex | None = None
                      ) -> VerificationReport:
    """Family-level validation without pairwise subset tests.

    Needs the construction metadata (groups and per-part family tags).
    Only the reuse of a part is checked on the parts themselves, as the
    repeated parts of the system's `PartIndex` (built here unless given);
    each class then goes to the shared family-accounting checks as a
    profile of count 1, with signatures read from one point-to-group table.
    """
    rep = VerificationReport("certificate")
    if system.groups is None or system.part_tags is None:
        rep.fail("system carries no family metadata")
        return rep
    group_sizes = tuple(len(g) for g in system.groups)
    group_of = {e: w for w, g in enumerate(system.groups) for e in g}
    if len(group_of) != sum(group_sizes):
        rep.fail("groups overlap")
    if index is None:
        index = PartIndex(system.partitions)
    for part in index.more:
        hs = index.holders(part)
        for a, b in zip(hs, hs[1:]):
            rep.fail(f"part {sorted(part)} reused by classes {a} and {b}")

    def profiles():
        for parts, tags in zip(system.partitions, system.part_tags):
            profile = []
            for part, tag in zip(parts, tags):
                sig = [0] * len(group_sizes)
                for e in part:
                    if (w := group_of.get(e)) is not None:
                        sig[w] += 1
                profile.append((tag, len(part), tuple(sig)))
            yield profile, 1

    _check_profiles(rep, system.k, len(system.partitions), group_sizes,
                    profiles(), "class")
    return rep


@dataclass
class SystemCertificate:
    """Aggregated accounting for systems too large to materialize.

    Classes are grouped by their profile: the multiset of (tag, size,
    signature) triples of their parts.  The checks are those of
    `check_certificate`, with each family's capacity derived from its tag,
    the part size and the group sizes, not declared.
    """

    n: int
    k: int
    p: int
    group_sizes: tuple
    profiles: list          # (profile, count); profile = tuple of (tag, size, sig)


def check_certificate_summary(cert: SystemCertificate) -> VerificationReport:
    rep = VerificationReport("certificate")
    _check_profiles(rep, cert.k, cert.p, tuple(cert.group_sizes), cert.profiles,
                    "profile")
    return rep
