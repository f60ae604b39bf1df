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

All stages of one call share one persistent network (`flows.Circulation`).
The loop, parent and unit nodes are fixed.  A census key (need, content)
or a stub class (parent, content) takes a node slot and a sink arc when it
first has open members, and frees both when its count reaches 0.  A
unit's arc to a key carries the unit's open members of it as its upper
bound.  A stage recomputes only the parent, unit, census and stub-class
bounds and the forced lower bounds (a block that needs every remaining
point of the side, and every stub at the last point); the solve resets
the residual capacities from the bounds in one pass.  Afterwards only the
arcs that carried flow are read: f blocks that grew move to their grown
key (the arc is pointed at it when all of its blocks grew), f stubs are
filled, and an arc left with no members is unlinked, its slot reused.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .combinat import binom
from .flows import Circulation


class AllocationError(RuntimeError):
    """Raised when a staged allocation cannot be completed."""


def _window(total: int, h: int) -> tuple[int, int]:
    lo, rem = divmod(total, h)
    return lo, lo + (1 if rem else 0)


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

    # remaining intake per side of every unit and parent, and per stub
    # class (parent, content), each held in the floor/ceil window of its
    # total over the side's size
    pid = {p: j for j, p in enumerate(dict.fromkeys(parents))}
    upar = [pid[p] for p in parents]
    u_rem = [[sum(f[x] for f in bl) for bl in unit_blocks] for x in range(len(hs))]
    u_rem[0] = [r + len(st) for r, st in zip(u_rem[0], stubs)]
    p_rem = [[0] * len(pid) for _ in hs]
    for rem, prem in zip(u_rem, p_rem):
        for j, r in zip(upar, rem):
            prem[j] += r
    uwin = [[_window(t, b) for t in rem] for rem, b in zip(u_rem, hs)]
    pwin = [[_window(t, b) for t in rem] for rem, b in zip(p_rem, hs)]
    swin = {key: _window(t, h) for key, t in
            Counter((parents[i], st) for i, unit in enumerate(stubs) for st in unit).items()}

    # One network serves every stage: a loop from the sink side back to
    # the source side, source -> parent -> unit, unit -> content node ->
    # sink for open blocks, and unit -> stub class node -> sink for open
    # stubs.  A census key (need, content), with need the points still to
    # take per side, or a stub class (parent, content) holds a node and
    # its sink arc while it has open members: census[key] =
    # [count, node, sink arc].  A unit's arc to a key carries the unit's
    # open members of it as its upper bound and is tagged (unit, key,
    # is_stub); a stage patches only the arcs that carried flow.
    net = Circulation()
    low, hi, head = net.low, net.hi, net.head
    src, snk = net.add_node(), net.add_node()
    net.link(snk, src, 0, 1 << 60)
    pnode = [net.add_node() for _ in pid]
    parc = [net.link(src, v, 0, 0) for v in pnode]
    unode = [net.add_node() for _ in range(nu)]
    uarc = [net.link(pnode[j], v, 0, 0) for j, v in zip(upar, unode)]
    census, stub_census = {}, {}

    def enter(members, key, cnt):
        """Count cnt more open members of key; returns its node."""
        ent = members.get(key)
        if ent is None:
            v = net.add_node()
            members[key] = ent = [0, v, net.link(v, snk, 0, 0)]
        ent[0] += cnt
        return ent[1]

    def add(i, key, cnt, arcs, members, is_stub):
        """Give unit i cnt more open members of key."""
        v = enter(members, key, cnt)
        e = arcs.get(key)
        if e is None:
            arcs[key] = net.link(unode[i], v, 0, cnt, (i, key, is_stub))
        else:
            hi[e] += cnt

    def leave(members, key, cnt):
        """Count cnt fewer open members of key, freeing its node at 0."""
        ent = members[key]
        ent[0] -= cnt
        if not ent[0]:
            net.unlink(ent[2])
            net.free_node(ent[1])
            del members[key]

    def remove(e, key, cnt, arcs, members):
        """Take cnt open members of key off a unit's arc e."""
        if hi[e] == cnt:
            net.unlink(e)
            del arcs[key]
        else:
            hi[e] -= cnt
        leave(members, key, cnt)

    # a unit's open blocks and open stubs, each key -> its arc
    empty = frozenset()
    blocks = [{} for _ in range(nu)]
    open_stubs = [{} for _ in range(nu)]
    for i in range(nu):
        for f in unit_blocks[i]:
            add(i, (f, empty), 1, blocks[i], census, False)
        for st in stubs[i]:
            add(i, (parents[i], st), 1, open_stubs[i], stub_census, True)
    filled = [[] for _ in range(nu)]
    sigma = list(hs)

    for stage, pt in enumerate(points):
        x = side_of[pt]
        s = sigma[x]
        _window_bounds(low, hi, s, zip(parc, pwin[x], p_rem[x]))
        _window_bounds(low, hi, s, zip(uarc, uwin[x], u_rem[x]))
        _window_bounds(low, hi, s, ((e, swin[key], r)
                                    for key, (r, _, e) in stub_census.items()))
        # a content with C completions, N of them through this point, and
        # r open blocks: at most N of them take the point, at least
        # r - (C - N) must (the census bounds of the module docstring); a
        # block that needs s more points of this side, and at the last
        # point every stub, must take this one
        completions = {}
        for key, (r, v, e) in census.items():
            need = key[0]
            if need not in completions:
                cc = math.prod(binom(a, b) for a, b in zip(sigma, need))
                completions[need] = (cc, cc * need[x] // s)
            cc, nn = completions[need]
            low[e], hi[e] = max(0, r - cc + nn), min(nn, r)
            if need[x] == s:
                _force(head[v], low, hi)
        if s == 1:
            for _, v, _ in stub_census.values():
                _force(head[v], low, hi)

        if not net.solve():
            raise AllocationError(f"stage {stage} infeasible")
        # each arc that carried f moves f members of its key: f stubs are
        # filled, and f blocks grow by pt into key `new`, onto the arc the
        # unit holds for it, or onto this arc when all its blocks grew
        grown = {}
        urem, prem, tag = u_rem[x], p_rem[x], net.tag
        for e, f in net.carrying():
            i, key, is_stub = tag[e]
            urem[i] -= f
            prem[upar[i]] -= f
            if is_stub:
                filled[i] += [key[1] | {pt}] * f
                remove(e, key, f, open_stubs[i], stub_census)
                continue
            new = grown.get(key)
            if new is None:
                need, content = key
                grown[key] = new = (need[:x] + (need[x] - 1,) + need[x + 1:],
                                    content | {pt})
            if not any(new[0]):
                filled[i] += [new[1]] * f
                remove(e, key, f, blocks[i], census)
            elif hi[e] == f and new not in blocks[i]:
                net.retarget(e, enter(census, new, f), (i, new, False))
                del blocks[i][key]
                blocks[i][new] = e
                leave(census, key, f)
            else:
                remove(e, key, f, blocks[i], census)
                add(i, new, f, blocks[i], census, False)
        sigma[x] -= 1

    return [sorted(unit, key=lambda b: (len(b), sorted(b))) for unit in filled]


def _window_bounds(low, hi, s, arcs) -> None:
    """Stage bounds for (arc, (alpha, beta), remaining) with s points left:
    the arc takes alpha to beta now and leaves a remainder that the other
    s - 1 stages can still take within the same window."""
    s1 = s - 1
    for e, (alpha, beta), rem in arcs:
        lo, up = rem - beta * s1, rem - alpha * s1
        low[e] = alpha if alpha > lo else lo
        hi[e] = beta if beta < up else up


def _force(arcs, low, hi) -> None:
    """Set the lower bound of every arc into a node to its upper bound."""
    for a in arcs:
        if a & 1:
            low[a >> 1] = hi[a >> 1]


def allocate_blocks(points, size, unit_sizes, parents=None, rng=None):
    """Partition all `size`-subsets of points into units of given sizes.

    Returns a list of block lists (frozensets), one per unit.  Each unit's
    per-point degree is floor or ceil of size*unit_size/len(points); the
    same window holds per parent group when `parents` labels units.  The
    rng only shuffles the placement order of points.
    """
    points = list(points)
    total = binom(len(points), size)
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
