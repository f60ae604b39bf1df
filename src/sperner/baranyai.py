"""Resolutions of complete uniform hypergraphs, built constructively.

`resolve(m, c)` arranges all c-subsets of {1..m} (for c | m) into
binom(m-1, c-1) classes, each class partitioning {1..m}.  The engine behind
it, `partition_ground`, solves the more general problem of handing units
blocks of prescribed sizes, with blocks of one size globally distinct and
every unit almost regular (per-point degrees differ by at most one); with
total block size at most h that forces the unit's blocks to be pairwise
disjoint.

Construction (Baranyai 1975): ground elements are placed one at a time,
and a staged circulation (per-content census bounds, windowed per-unit and
per-parent intake) decides which open blocks absorb the next element.

The census is typed by side.  The ground may be split into sides, and a
block's size is then a tuple of per-side sizes.  An open block with
content A needs nu_s more points of side s; with sigma_s points of side s
still to place, A has C = prod_s binom(sigma_s, nu_s) completions, and
N = binom(sigma_X - 1, nu_X - 1) * prod_{s != X} binom(sigma_s, nu_s) of
them take the next point when it lies on side X.  If r open blocks share
A and r <= C, at most N of them may take the point and at least
r - (C - N) must, so that both the blocks that grow and those that wait
keep r <= C at the next stage; at the end C = 1 and blocks of one type
are distinct.

Padding is implicit: census nodes exist only for contents that real blocks
hold, with bounds [max(0, r - (C - N)), min(N, r)], so a family need not
use its whole pool.  A full family (r = C) gets the exact bounds [N, N].
Every bound is met by the proportional fractional flow, in which an open
block takes the point with weight nu_X / sigma_X = N / C: a content node
then carries r N / C, within both bounds when r <= C, and every unit and
parent carries its remaining side-X need over sigma_X, within its
floor/ceil window.  So an integral flow exists and each stage is solvable.

`partition_ground` also takes stubs (on an unsplit ground): sets from
outside the ground that a unit carries in, each to be completed by exactly
one point.  Equal stubs under one parent pass through one node with a
windowed intake, so they receive distinct points when there are at most h
of them.  The grouped construction grows its transversals this way, one
group at a time, and so runs on this engine for every c.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .combinat import binom
from .flows import feasible_circulation


class AllocationError(RuntimeError):
    """Raised when a staged allocation cannot be completed."""


def _window(total: int, h: int) -> tuple[int, int]:
    lo, rem = divmod(total, h)
    return lo, lo + (1 if rem else 0)


def _stage_bounds(alpha: int, beta: int, remaining: int, sigma: int) -> tuple[int, int]:
    return (max(alpha, remaining - beta * (sigma - 1)),
            min(beta, remaining - alpha * (sigma - 1)))


def partition_ground(points, unit_blocks, parents=None, rng=None, stubs=None,
                     sides=None):
    """Hand every unit blocks of its prescribed sizes, one staged flow per point.

    unit_blocks lists, per unit, the sizes of the blocks it must receive.
    With sides, a split of the points, a size is a tuple of per-side sizes;
    without, the points form one side and a size may be an int.  Blocks of
    equal size are globally distinct, so there may be at most
    prod_s binom(|side s|, size_s) of them.  Each unit's blocks are pairwise
    disjoint whenever its total size on every side is at most that side's
    size, and per-point degrees stay in the floor/ceil window of a side's
    total over the side's size for every unit and every parent group.

    stubs (one side only) lists, per unit, sets from outside the ground
    that the unit carries in; each stub takes exactly one point and counts
    towards the unit's total.  Equal stubs under one parent share a
    floor/ceil window per point, so they receive distinct points when there
    are at most h of them.  Filled stubs are returned among the unit's
    blocks.
    """
    points = list(points)
    h = len(points)
    side_pts = [points] if sides is None else [list(side) for side in sides]
    side_of = {pt: x for x, side in enumerate(side_pts) for pt in side}
    if sorted(side_of) != sorted(points) or sum(map(len, side_pts)) != h:
        raise ValueError("the sides do not split the points")
    hs = [len(side) for side in side_pts]
    unit_blocks = [sorted((f,) if isinstance(f, int) else tuple(f) for f in bl)
                   for bl in unit_blocks]
    nu = len(unit_blocks)
    parents = [0] * nu if parents is None else list(parents)
    stubs = [[]] * nu if stubs is None else [list(st) for st in stubs]
    ground = frozenset(points)
    if any(not ground.isdisjoint(st) for unit in stubs for st in unit):
        raise ValueError("a stub meets the ground")
    if len(hs) > 1 and any(stubs):
        raise ValueError("stubs need an unsplit ground")
    size_tot = Counter(f for bl in unit_blocks for f in bl)
    for f, cnt in sorted(size_tot.items()):
        if len(f) != len(hs) or not any(f) or any(not 0 <= a <= b for a, b in zip(f, hs)):
            raise ValueError(f"block size {f} does not fit sides of sizes {hs}")
        pool = math.prod(binom(b, a) for a, b in zip(f, hs))
        if cnt > pool:
            raise ValueError(f"{cnt} blocks of size {f} exceed the pool {pool}")
    if rng is not None:
        rng.shuffle(points)

    # remaining intake per unit and per parent on each side, and per stub
    # class (parent, content), each held in the floor/ceil window of its
    # total over the side's size
    r_unit = [[sum(f[x] for f in bl) for x in range(len(hs))] for bl in unit_blocks]
    for i, st in enumerate(stubs):
        r_unit[i][0] += len(st)
    r_parent = {}
    for p, r in zip(parents, r_unit):
        r_parent[p] = [a + b for a, b in zip(r_parent.get(p, [0] * len(hs)), r)]
    uwin = [[_window(t, b) for t, b in zip(r, hs)] for r in r_unit]
    pwin = {p: [_window(t, b) for t, b in zip(r, hs)] for p, r in r_parent.items()}
    r_stub = defaultdict(int)
    for i, st in enumerate(stubs):
        for content in st:
            r_stub[(parents[i], content)] += 1
    swin = {key: _window(t, h) for key, t in r_stub.items()}

    # open blocks per unit as (need, content) -> count, with need the
    # points still to take per side, their census over all units, and
    # open stubs per unit as (parent, content) -> count; every dict is
    # updated per move and read in insertion order
    empty = frozenset()
    blocks = [Counter((f, empty) for f in bl) for bl in unit_blocks]
    census = Counter({(f, empty): cnt for f, cnt in sorted(size_tot.items())})
    open_stubs = [Counter((parents[i], st) for st in stubs[i]) for i in range(nu)]
    filled = [[] for _ in range(nu)]
    # nodes: 0 = source side of the circulation loop, 1 = sink side, then
    # parents, units, and per stage the block contents and stub classes
    pnode = {p: nid for nid, p in enumerate(pwin, 2)}
    ubase = 2 + len(pnode)
    unit_parent = [(pnode[parents[i]], ubase + i) for i in range(nu)]
    sigma = list(hs)

    for stage, pt in enumerate(points):
        x = side_of[pt]
        s = sigma[x]
        cnode = {key: nid for nid, key in enumerate(
            (key for key in census if key[0][x]), ubase + nu)}
        nid = ubase + nu + len(cnode)
        snode = {}
        for key, rem in r_stub.items():
            if rem:
                snode[key] = nid; nid += 1
        # the arcs that move blocks, then those that fill stubs, come first,
        # in step with moves and stub_moves; a block that needs s more
        # points of this side, and at the last point every stub, must take
        # this one
        arcs, moves, stub_arcs, stub_moves = [], [], [], []
        for i in range(nu):
            u = ubase + i
            if blocks[i]:
                live = [(key, cnt) for key, cnt in blocks[i].items() if key[0][x]]
                arcs += [(u, cnode[key], cnt if key[0][x] == s else 0, cnt)
                         for key, cnt in live]
                moves += [(i, key) for key, _ in live]
            if open_stubs[i]:
                stub_arcs += [(u, snode[key], cnt if s == 1 else 0, cnt)
                              for key, cnt in open_stubs[i].items()]
                stub_moves += [(i, key) for key in open_stubs[i]]
        arcs += stub_arcs
        for p, win in pwin.items():
            arcs.append((0, pnode[p], *_stage_bounds(*win[x], r_parent[p][x], s)))
        for i, (pn, u) in enumerate(unit_parent):
            arcs.append((pn, u, *_stage_bounds(*uwin[i][x], r_unit[i][x], s)))
        # a content with C completions, N of them through this point, and
        # r open blocks: at most N of them take the point, at least
        # r - (C - N) must (the census bounds of the module docstring)
        completions = {}
        for key in cnode:
            need = key[0]
            if need not in completions:
                cc = math.prod(binom(a, b) for a, b in zip(sigma, need))
                completions[need] = (cc, cc * need[x] // s)
            cc, nn = completions[need]
            r = census[key]
            arcs.append((cnode[key], 1, max(0, r - cc + nn), min(nn, r)))
        for key, node in snode.items():
            arcs.append((node, 1, *_stage_bounds(*swin[key], r_stub[key], s)))
        arcs.append((1, 0, 0, 1 << 60))

        flows = feasible_circulation(nid, arcs)
        if flows is None:
            raise AllocationError(f"stage {stage} infeasible")
        for fl, (i, key) in zip(flows, moves):
            if not fl:
                continue
            r_unit[i][x] -= fl
            r_parent[parents[i]][x] -= fl
            _take(blocks[i], key, fl)
            _take(census, key, fl)
            need, content = key
            need = need[:x] + (need[x] - 1,) + need[x + 1:]
            grown = content | {pt}
            if any(need):
                blocks[i][(need, grown)] += fl
                census[(need, grown)] += fl
            else:
                filled[i] += [grown] * fl
        for fl, (i, key) in zip(flows[len(moves):], stub_moves):
            if not fl:
                continue
            r_unit[i][0] -= fl
            r_parent[parents[i]][0] -= fl
            _take(open_stubs[i], key, fl)
            r_stub[key] -= fl
            filled[i] += [key[1] | {pt}] * fl
        sigma[x] -= 1

    return [sorted(unit, key=lambda b: (len(b), sorted(b))) for unit in filled]


def _take(counts: dict, key, k: int) -> None:
    left = counts[key] - k
    if left:
        counts[key] = left
    else:
        del counts[key]


def allocate_blocks(points, size, unit_sizes, parents=None, rng=None):
    """Partition all `size`-subsets of points into units of given sizes.

    Returns a list of block lists (frozensets), one per unit.  Each unit's
    per-point degree is floor or ceil of size*unit_size/len(points); the
    same window holds per parent group when `parents` labels units.  The
    rng only shuffles the placement order of points.
    """
    total = binom(len(list(points)), size)
    if sum(unit_sizes) != total:
        raise ValueError(f"unit sizes sum to {sum(unit_sizes)}, need {total}")
    return partition_ground(points, [[size] * cnt for cnt in unit_sizes],
                            parents=parents, rng=rng)


@dataclass
class Resolution:
    """All c-subsets of {1..m} arranged into parallel classes."""

    m: int
    c: int
    classes: list = field(repr=False)
    lookup: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.lookup:
            for ell, cls in enumerate(self.classes):
                for i, block in enumerate(cls):
                    self.lookup[block] = (ell, i)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def to_text(self) -> str:
        lines = []
        for cls in self.classes:
            lines.append(" | ".join(" ".join(str(e) for e in sorted(b)) for b in cls))
        return "\n".join(lines) + "\n"


def _resolve_pairs(m: int) -> list:
    """Round-robin (circle method) 1-factorization of K_m, m even."""
    if m == 2:
        return [[frozenset((1, 2))]]
    classes = []
    for rnd in range(m - 1):
        cls = [frozenset((m, rnd + 1))]
        for i in range(1, m // 2):
            a = (rnd + i) % (m - 1) + 1
            b = (rnd - i) % (m - 1) + 1
            cls.append(frozenset((a, b)))
        classes.append(cls)
    return classes


def _canon_classes(classes):
    out = []
    for cls in classes:
        out.append(sorted(cls, key=sorted))
    out.sort(key=lambda cls: [sorted(b) for b in cls])
    return out


def resolve(m: int, c: int) -> Resolution:
    """Index all c-subsets of {1..m} into binom(m-1,c-1) parallel classes."""
    if m < 1 or c < 1 or m % c != 0:
        raise ValueError(f"need c | m with m >= c >= 1, got m={m}, c={c}")
    if c == m:
        classes = [[frozenset(range(1, m + 1))]]
    elif c == 1:
        classes = [[frozenset((e,)) for e in range(1, m + 1)]]
    elif c == 2:
        classes = _resolve_pairs(m)
    else:
        n_classes = binom(m - 1, c - 1)
        per_class = m // c
        alloc = allocate_blocks(range(1, m + 1), c, [per_class] * n_classes)
        classes = alloc
    return Resolution(m, c, _canon_classes(classes))


def verify_resolution(res: Resolution) -> list[str]:
    """All violations of the resolution invariants; empty iff valid."""
    violations = []
    ground = frozenset(range(1, res.m + 1))
    expect_classes = binom(res.m - 1, res.c - 1)
    if len(res.classes) != expect_classes:
        violations.append(
            f"class count {len(res.classes)} != binom(m-1,c-1) = {expect_classes}")
    seen = {}
    for ell, cls in enumerate(res.classes):
        if len(cls) != res.m // res.c:
            violations.append(f"class {ell}: {len(cls)} blocks, want {res.m // res.c}")
        covered = []
        for block in cls:
            if len(block) != res.c:
                violations.append(f"class {ell}: block {sorted(block)} has size {len(block)}")
            if block in seen:
                violations.append(
                    f"block {sorted(block)} appears in classes {seen[block]} and {ell}")
            seen[block] = ell
            covered.extend(block)
        if sorted(covered) != sorted(ground):
            violations.append(f"class {ell} is not a partition of the ground set")
    if len(seen) != binom(res.m, res.c):
        violations.append(
            f"{len(seen)} distinct blocks, want binom(m,c) = {binom(res.m, res.c)}")
    return violations
