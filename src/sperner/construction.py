"""Constructions of almost-uniform Sperner partition systems.

The grouped construction splits the ground set into m groups of size h
(with mh = n, c | m) and builds p * binom(m-1, c-1) partitions whose parts
are either transversal c-sets of c groups or (c+1)-subsets of one group.
A balanced integer matrix T prescribes how many (c+1)-blocks each class
takes per group, and a resolution of the group set indexes which groups go
together.

Turning the counting argument into concrete, globally distinct parts is
done by a staged detachment: groups are processed one at a time, and for
each new point a single integral circulation decides, for every class,
whether the point joins one of the class's (c+1)-blocks or becomes a
transversal endpoint.  Exact per-content quotas keep the block supply on
the complete-hypergraph census, capacity-1 "row" nodes make transversal
pairs distinct, and per-family gates keep future pairings regular.  A
proportional fractional flow meets all bounds, so every stage has an
integral solution; for c = 2 this realization is deterministic given the
seed.  For c >= 3 transversals span more than two groups and are instead
drawn by seeded shuffles with retries (the instances exercised there have
plenty of slack).
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass

from .baranyai import Resolution, allocate_blocks, resolve
from .combinat import Params, binom, decompose
from .flows import feasible_circulation


class ConstructionError(RuntimeError):
    pass


class RealizationError(ConstructionError):
    """A colour class could not be realized within the retry budget."""


# --------------------------------------------------------------------------
# Partition systems
# --------------------------------------------------------------------------

@dataclass
class PartitionSystem:
    """Partitions of {0..n-1} into k nonempty parts each."""

    n: int
    k: int
    partitions: list
    groups: list | None = None
    part_tags: list | None = None

    @property
    def size(self) -> int:
        return len(self.partitions)

    def canonical(self) -> "PartitionSystem":
        """Parts sorted by minimum element, partitions lexicographically."""
        order = []
        for idx, parts in enumerate(self.partitions):
            key = sorted((min(p), tuple(sorted(p))) for p in parts)
            order.append((key, idx))
        order.sort()
        new_parts = []
        new_tags = [] if self.part_tags is not None else None
        for key, idx in order:
            parts = self.partitions[idx]
            part_order = sorted(range(len(parts)),
                                key=lambda j: (min(parts[j]), tuple(sorted(parts[j]))))
            new_parts.append([parts[j] for j in part_order])
            if new_tags is not None:
                tags = self.part_tags[idx]
                new_tags.append([tags[j] for j in part_order])
        return PartitionSystem(self.n, self.k, new_parts, self.groups, new_tags)

    def to_text(self) -> str:
        sys_c = self.canonical()
        lines = [f"SPS {self.n} {self.k} {len(self.partitions)}"]
        for parts in sys_c.partitions:
            lines.append(" | ".join(" ".join(str(e) for e in sorted(p)) for p in parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PartitionSystem":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty input")
        head = lines[0].split()
        if len(head) != 4 or head[0] != "SPS":
            raise ValueError(f"line 1: bad header {lines[0]!r}")
        n, k, p = (int(x) for x in head[1:])
        partitions = []
        for ln, line in enumerate(lines[1:p + 1], start=2):
            try:
                parts = [frozenset(int(e) for e in blk.split())
                         for blk in line.split("|")]
            except ValueError as exc:
                raise ValueError(f"line {ln}: {exc}") from None
            if len(parts) != k:
                raise ValueError(f"line {ln}: {len(parts)} blocks, want {k}")
            partitions.append(parts)
        if len(partitions) != p:
            raise ValueError(f"expected {p} partition lines, found {len(partitions)}")
        _reject_extra_lines(lines, p + 1, f"{p} partition lines")
        return cls(n, k, partitions)


def _reject_extra_lines(lines: list, used: int, what: str) -> None:
    """Raise on a non-blank line past the first `used` lines of a file, so
    that a file is never accepted after being read only in part."""
    for ln, line in enumerate(lines[used:], start=used + 1):
        if line.strip():
            raise ValueError(f"line {ln}: text after the {what} the header declares")


def extend_system(system: PartitionSystem) -> PartitionSystem:
    """Add one ground element to a minimum-size part of every partition."""
    new = []
    e = system.n
    for parts in system.partitions:
        j = min(range(len(parts)), key=lambda i: (len(parts[i]), min(parts[i])))
        new.append([p | {e} if i == j else p for i, p in enumerate(parts)])
    return PartitionSystem(system.n + 1, system.k, new)


# --------------------------------------------------------------------------
# Balanced matrices
# --------------------------------------------------------------------------

def balanced_matrix(n_rows: int, n_cols: int, low: int, n_high: int):
    """Rows with n_high entries low+1 and the rest low; column sums within 1.

    Follows the row-by-row greedy: each new row puts its larger entries on
    the columns of currently minimum sum.
    """
    if n_high > n_cols or n_high < 0 or low < 0 or n_rows < 1 or n_cols < 1:
        raise ValueError(f"bad balanced matrix shape ({n_rows},{n_cols},{low},{n_high})")
    mat = []
    sums = [0] * n_cols
    for _ in range(n_rows):
        order = sorted(range(n_cols), key=lambda j: (sums[j], j))
        row = [low] * n_cols
        for j in order[:n_high]:
            row[j] = low + 1
        for j in range(n_cols):
            sums[j] += row[j]
        mat.append(row)
    return mat


# --------------------------------------------------------------------------
# Grouped construction plans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupedPlan:
    params: Params
    m: int
    h: int
    case: str
    p1: int
    p2: int
    p1p: int
    p2p: int
    p: int

    @property
    def n_classes(self) -> int:
        return binom(self.m - 1, self.params.c - 1)

    @property
    def size(self) -> int:
        return self.p * self.n_classes


def grouped_factor(c: int, k: int, r: int, m: int, h: int, case: str):
    """The factors (p1, p2, p1', p2', p) of the grouped construction on m
    groups of size h, or the reason the split is rejected as a string.

    Assumes what plan_grouped checks first: c >= 2, k >= 3, 1 <= r < k,
    c | m and case in ('a', 'b').  Builds nothing and raises nothing, so
    scans can filter splits by arithmetic alone.
    """
    classes = binom(m - 1, c - 1)
    blocks = binom(h, c + 1)
    p1 = (m * (h ** c - c - 1)) // (c * (k - r))
    p2 = (m * (blocks // classes)) // r
    p1p = (m * h ** c) // (c * (k - r))
    p2p = (m * blocks) // (r * classes)
    p = max(min(p1, p2) if case == "a" else min(p1p, p2p), 0)
    if case == "b" and (p * r) % m != 0:
        return f"case (b) needs p*r = {p * r} divisible by m = {m}"
    x = r // m
    if (r - m * x) % c != 0:
        return "row surplus (r - m*floor(r/m))/c is not an integer"
    if p > 0 and h < (c + 1) * (x + (1 if r - m * x else 0)):
        return "groups too small for the required block counts"
    return p1, p2, p1p, p2p, p


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
    if m * h != n:
        raise ValueError(f"need m*h = n, got {m}*{h} != {n}")
    if m % c != 0:
        raise ValueError(f"need c | m, got m={m}, c={c}")
    factors = grouped_factor(c, k, r, m, h, case)
    if isinstance(factors, str):
        raise ValueError(factors)
    return GroupedPlan(params, m, h, case, *factors)


# --------------------------------------------------------------------------
# Realization
# --------------------------------------------------------------------------

def _t_matrix(plan: GroupedPlan):
    c, r = plan.params.c, plan.params.r
    x = r // plan.m
    a = (r - plan.m * x) // c
    T = balanced_matrix(plan.p, plan.m // c, x, a)
    # row sums r/c exactly, column sums within the floor/ceil of p*r/m
    for row in T:
        assert sum(row) * c == r
    lo, hi = (plan.p * r) // plan.m, -(-(plan.p * r) // plan.m)
    for i in range(plan.m // c):
        s = sum(T[z][i] for z in range(plan.p))
        assert lo <= s <= hi
    return T


def _check_usage(plan: GroupedPlan, res: Resolution, T):
    """The counting argument's supply checks, asserted exactly."""
    c, r = plan.params.c, plan.params.r
    h, m, p = plan.h, plan.m, plan.p
    n_cls = plan.n_classes
    for i in range(m // c):
        used = sum(h - (c + 1) * T[z][i] for z in range(p))
        if used > h ** c:
            raise ConstructionError(f"transversal family over capacity at column {i}")
    # per (group, class index): block usage within the equal share of binom(h,c+1)
    for ell in range(n_cls):
        for i, block in enumerate(res.classes[ell]):
            used = sum(T[z][i] for z in range(p))
            if used * binom(m - 1, c - 1) > binom(h, c + 1):
                raise ConstructionError(
                    f"(c+1)-block family over capacity at class {ell}, column {i}")


def _positions(res: Resolution):
    pos = {}
    for ell, cls in enumerate(res.classes):
        for i, block in enumerate(cls):
            for w in block:
                pos[(ell, w)] = i
    return pos


def _realize_c2(plan: GroupedPlan, res: Resolution, T, seed: int, restarts: int = 24):
    """Staged-flow detachment for c = 2; deterministic given the seed."""
    m, h = plan.m, plan.h
    N = plan.n_classes
    groups = [list(range(w * h, (w + 1) * h)) for w in range(m)]
    pos = _positions(res)
    partner = {}
    for ell in range(N):
        for block in res.classes[ell]:
            w1, w2 = sorted(block)
            partner[(ell, w1)] = w2
            partner[(ell, w2)] = w1

    for restart in range(restarts):
        rng = random.Random(f"{seed}:{restart}:grouped-c2")
        triples = {}
        pairs = defaultdict(list)
        singles = defaultdict(list)
        if _detach_all(plan, res, T, groups, pos, partner, rng,
                       triples, pairs, singles):
            return _assemble_c2(plan, res, groups, triples, pairs)
    raise RealizationError(
        f"could not realize plan n={plan.params.n} k={plan.params.k} "
        f"m={m} h={h} after {restarts} restarts")


def _detach_all(plan, res, T, groups, pos, partner, rng, triples, pairs, singles):
    c = plan.params.c
    s = c + 1
    m, h, p = plan.m, plan.h, plan.p
    N = plan.n_classes
    empty = frozenset()
    for w in range(1, m + 1):
        t_of = {}
        for ell in range(N):
            i = pos[(ell, w)]
            for z in range(p):
                t_of[(z, ell)] = T[z][i]
        n_dummy = binom(h, s) - sum(t_of.values())
        # blocks are frozensets, replaced in place as points join them;
        # gcount is the census of contents over all blocks not yet full
        blocks = {u: [empty] * t_of[u] for u in t_of}
        dummy_blocks = [empty] * n_dummy
        n_blocks = sum(t_of.values()) + len(dummy_blocks)
        gcount = {empty: n_blocks} if n_blocks else {}
        done_ells, later_ells = [], []
        unpaired = {}
        for ell in range(N):
            if partner[(ell, w)] < w:
                done_ells.append(ell)
                for z in range(p):
                    unpaired[(z, ell)] = list(singles[(z, ell, partner[(ell, w)])])
            else:
                later_ells.append(ell)
        r_unit = {u: s * t_of[u] for u in t_of}
        r_ell = {ell: sum(r_unit[(z, ell)] for z in range(p)) for ell in range(N)}
        tot_ell = dict(r_ell)
        r_dummy = s * n_dummy
        tot_dummy = r_dummy

        pts = list(groups[w - 1])
        rng.shuffle(pts)
        for stage, b in enumerate(pts):
            sigma = h - stage
            plan_stage = _stage_flow(
                c, h, p, sigma, blocks, dummy_blocks, gcount, unpaired,
                done_ells, later_ells, groups, partner, w,
                r_unit, r_ell, tot_ell, r_dummy, tot_dummy, n_dummy)
            if plan_stage is None:
                return False
            joined = set()
            for (kind, *rest), f in plan_stage:
                if kind == "t":
                    u, content = rest
                    bl = blocks[u]
                    bl[bl.index(content)] = _grow(gcount, content, b, s)
                    joined.add(u)
                    r_unit[u] -= 1
                    r_ell[u[1]] -= 1
                elif kind == "d":
                    (content,) = rest
                    i = -1
                    for _ in range(f):
                        i = dummy_blocks.index(content, i + 1)
                        dummy_blocks[i] = _grow(gcount, content, b, s)
                    r_dummy -= f
                else:  # pair
                    u, a = rest
                    pairs[u].append(frozenset((a, b)))
                    unpaired[u].remove(a)
            for ell in later_ells:
                for z in range(p):
                    if (z, ell) not in joined:
                        singles[(z, ell, w)].append(b)
        for u, bl in blocks.items():
            if not all(len(bs) == s for bs in bl):
                return False
            triples[(u[0], u[1], w)] = bl
        if any(unpaired.values()):
            return False
    return True


def _grow(gcount, content, b, s):
    """content with point b added, moved along in the census."""
    left = gcount[content] - 1
    if left:
        gcount[content] = left
    else:
        del gcount[content]
    grown = content | {b}
    if len(grown) < s:
        gcount[grown] = gcount.get(grown, 0) + 1
    return grown


def _stage_flow(c, h, p, sigma, blocks, dummy_blocks, gcount, unpaired,
                done_ells, later_ells, groups, partner, w,
                r_unit, r_ell, tot_ell, r_dummy, tot_dummy, n_dummy):
    s = c + 1
    contents = sorted(gcount, key=sorted)
    for content in contents:
        if gcount[content] != binom(sigma, s - len(content)):
            raise ConstructionError("block census out of balance")

    def win(total, remaining):
        alpha, beta = total // h, -(-total // h)
        return (max(alpha, remaining - beta * (sigma - 1)),
                min(beta, remaining - alpha * (sigma - 1)))

    nid = 2  # 0 = source side of the circulation loop, 1 = sink side
    cnode = {}
    for content in contents:
        cnode[content] = nid; nid += 1
    unode = {}
    for ell in done_ells:
        for z in range(p):
            unode[(z, ell)] = nid; nid += 1
    gnode = {}
    utnode = {}
    for ell in later_ells:
        gnode[ell] = nid; nid += 1
        for z in range(p):
            utnode[(z, ell)] = nid; nid += 1
    dnode = nid; nid += 1
    rnode = {}
    for ell in done_ells:
        for a in groups[partner[(ell, w)] - 1]:
            rnode[(ell, a)] = nid; nid += 1

    arcs, info = [], []

    def unit_block_arcs(src, u):
        # one arc per distinct open content, in order of first appearance
        for content in dict.fromkeys(blocks[u]):
            if len(content) < s:
                low = 1 if (s - len(content)) == sigma else 0
                arcs.append((src, cnode[content], low, 1))
                info.append(("t", u, content))

    rowcount = defaultdict(int)
    for ell in done_ells:
        for z in range(p):
            u = (z, ell)
            arcs.append((0, unode[u], 1, 1)); info.append(None)
            unit_block_arcs(unode[u], u)
            for a in unpaired[u]:
                arcs.append((unode[u], rnode[(ell, a)], 0, 1))
                info.append(("p", u, a))
                rowcount[(ell, a)] += 1
    for key, cnt in rowcount.items():
        low = max(0, cnt - (sigma - 1))
        if low > 1:
            return None
        arcs.append((rnode[key], 1, low, 1)); info.append(None)
    for ell in later_ells:
        lo_q, hi_q = win(tot_ell[ell], r_ell[ell])
        arcs.append((0, gnode[ell], lo_q, hi_q)); info.append(None)
        for z in range(p):
            u = (z, ell)
            lo_u = max(0, r_unit[u] - (sigma - 1))
            hi_u = min(1, r_unit[u])
            arcs.append((gnode[ell], utnode[u], lo_u, hi_u)); info.append(None)
            unit_block_arcs(utnode[u], u)
    if n_dummy:
        lo_d, hi_d = win(tot_dummy, r_dummy)
        arcs.append((0, dnode, lo_d, hi_d)); info.append(None)
        for content, cnt in Counter(dummy_blocks).items():
            if len(content) < s:
                forced = cnt if (s - len(content)) == sigma else 0
                arcs.append((dnode, cnode[content], forced, cnt))
                info.append(("d", content))
    # exact quotas: low = cap leaves these arcs no residual capacity, so
    # their order changes no flow
    for content in contents:
        nd = binom(sigma - 1, s - len(content) - 1)
        arcs.append((cnode[content], 1, nd, nd)); info.append(None)
    arcs.append((1, 0, 0, 1 << 60)); info.append(None)

    flows = feasible_circulation(nid, arcs)
    if flows is None:
        return None
    return [(inf, f) for f, inf in zip(flows, info) if f and inf is not None]


def _assemble_c2(plan: GroupedPlan, res: Resolution, groups, triples, pairs):
    n, k = plan.params.n, plan.params.k
    m, p, N = plan.m, plan.p, plan.n_classes
    partitions, tags = [], []
    block_of = {}
    for ell in range(N):
        for i, block in enumerate(res.classes[ell]):
            for w in block:
                block_of[(ell, w)] = i
    for ell in range(N):
        for z in range(p):
            parts, ptags = [], []
            for w in range(1, m + 1):
                for bs in triples.get((z, ell, w), ()):
                    parts.append(bs)
                    ptags.append(("B", w))
            for pr in pairs.get((z, ell), ()):
                ws = sorted({e // plan.h + 1 for e in pr})
                parts.append(pr)
                ptags.append(("A", ell, block_of[(ell, ws[0])]))
            partitions.append(parts)
            tags.append(ptags)
    return PartitionSystem(n, k, partitions, [list(g) for g in groups], tags)


def _realize_general(plan: GroupedPlan, res: Resolution, T, seed: int,
                     restarts: int = 40, zip_tries: int = 400):
    """Randomized realization for c >= 3 (slack instances)."""
    c = plan.params.c
    m, h, p, N = plan.m, plan.h, plan.p, plan.n_classes
    groups = [list(range(w * h, (w + 1) * h)) for w in range(m)]
    pos = _positions(res)
    for restart in range(restarts):
        rng = random.Random(f"{seed}:{restart}:grouped-general")
        blocks = {}
        ok = True
        for w in range(1, m + 1):
            unit_sizes, parents, units = [], [], []
            for ell in range(N):
                for z in range(p):
                    unit_sizes.append(T[z][pos[(ell, w)]])
                    parents.append(ell)
                    units.append((z, ell))
            n_dummy = binom(h, c + 1) - sum(unit_sizes)
            if n_dummy < 0:
                raise ConstructionError("block demand exceeds the group pool")
            if n_dummy:
                unit_sizes.append(n_dummy)
                parents.append(-1)
                units.append(None)
            alloc = allocate_blocks(groups[w - 1], c + 1, unit_sizes, parents,
                                    random.Random(f"{seed}:{restart}:{w}"))
            for got, unit in zip(alloc, units):
                if unit is not None:
                    blocks[(unit[0], unit[1], w)] = got
        transversals = defaultdict(list)
        for ell in range(N):
            if not ok:
                break
            for i, gblock in enumerate(res.classes[ell]):
                used = set()
                ws = sorted(gblock)
                for z in range(p):
                    count = h - (c + 1) * T[z][i]
                    if count == 0:
                        continue
                    sing = {}
                    for w in ws:
                        pts = set(groups[w - 1])
                        for bs in blocks[(z, ell, w)]:
                            pts -= bs
                        sing[w] = sorted(pts)
                    got = None
                    for _ in range(zip_tries):
                        for w in ws:
                            rng.shuffle(sing[w])
                        cand = [frozenset(sing[w][j] for w in ws) for j in range(count)]
                        if len(set(cand)) == count and not (set(cand) & used):
                            got = cand
                            break
                    if got is None:
                        ok = False
                        break
                    used.update(got)
                    transversals[(z, ell)].extend((t, ("A", ell, i)) for t in got)
                if not ok:
                    break
        if not ok:
            continue
        partitions, tags = [], []
        for ell in range(N):
            for z in range(p):
                parts, ptags = [], []
                for w in range(1, m + 1):
                    for bs in blocks[(z, ell, w)]:
                        parts.append(bs)
                        ptags.append(("B", w))
                for t, tag in transversals[(z, ell)]:
                    parts.append(t)
                    ptags.append(tag)
                partitions.append(parts)
                tags.append(ptags)
        return PartitionSystem(plan.params.n, plan.params.k, partitions,
                               [list(g) for g in groups], tags)
    raise RealizationError(
        f"could not realize plan n={plan.params.n} k={plan.params.k} "
        f"m={plan.m} h={plan.h} after {restarts} restarts")


def construct_grouped(plan: GroupedPlan, res: Resolution | None = None,
                      seed: int = 0) -> PartitionSystem:
    """Build the grouped system for a plan; empty system when p = 0."""
    c = plan.params.c
    if res is None:
        res = resolve(plan.m, c)
    if res.m != plan.m or res.c != c:
        raise ValueError(f"resolution is for (m={res.m}, c={res.c}), "
                         f"plan needs (m={plan.m}, c={c})")
    if plan.p == 0:
        return PartitionSystem(plan.params.n, plan.params.k, [],
                               [list(range(w * plan.h, (w + 1) * plan.h))
                                for w in range(plan.m)], [])
    T = _t_matrix(plan)
    _check_usage(plan, res, T)
    if c == 2:
        system = _realize_c2(plan, res, T, seed)
    else:
        system = _realize_general(plan, res, T, seed)
    _check_classes(plan, system)
    return system


def _check_classes(plan: GroupedPlan, system: PartitionSystem):
    """Colour-class conditions: k parts, per-group degree sums exactly h."""
    k, h = plan.params.k, plan.h
    for parts in system.partitions:
        if len(parts) != k:
            raise ConstructionError(f"class with {len(parts)} parts, want {k}")
        for w in range(plan.m):
            group = frozenset(range(w * h, (w + 1) * h))
            used = sum(len(part & group) for part in parts)
            if used != h:
                raise ConstructionError(f"group {w + 1} degree sum {used}, want {h}")


def construct_uniform(n: int, k: int) -> PartitionSystem:
    """The binom(n-1, c-1) parallel classes of a resolution, for n = c*k."""
    params = decompose(n, k)
    if params.r != 0:
        raise ValueError(f"uniform construction needs k | n, got n={n}, k={k}")
    res = resolve(n, params.c)
    partitions = [[frozenset(e - 1 for e in block) for block in cls]
                  for cls in res.classes]
    return PartitionSystem(n, k, partitions)
