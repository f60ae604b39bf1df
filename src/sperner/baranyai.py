"""Resolutions of complete uniform hypergraphs, built constructively.

`resolve(m, c)` arranges all c-subsets of {1..m} (for c | m) into
binom(m-1, c-1) classes, each class partitioning {1..m}.  The engine behind
it, `allocate_blocks`, solves the more general problem of splitting all
s-subsets of a ground set into units of prescribed sizes so that every
unit is almost regular (per-point degrees differ by at most one); with
s * size <= h that forces the unit's blocks to be pairwise disjoint.

Construction: ground elements are placed one at a time.  The multiset of
partial blocks with content A always numbers binom(h - j, s - |A|) after j
placements, and a staged circulation (exact per-content quotas, windowed
per-unit and per-parent intake) decides which blocks absorb the next
element.  A proportional fractional flow always satisfies the bounds, so
an integral one exists and each stage is solvable.

`partition_ground` also takes stubs: sets from outside the ground that a
unit carries in, each to be completed by exactly one point.  Equal stubs
under one parent pass through one node with a windowed intake, so they
receive distinct points when there are at most h of them.  The grouped
construction grows its transversals this way, one group at a time, and so
runs on this engine for every c.
"""

from __future__ import annotations

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


def partition_ground(points, unit_blocks, parents=None, rng=None,
                     complete: bool = False, stubs=None):
    """Hand every unit blocks of its prescribed sizes, one staged flow per point.

    unit_blocks lists, per unit, the sizes of the blocks it must receive.
    Blocks of equal size are globally distinct subsets, each unit's blocks
    are pairwise disjoint whenever its total block size is at most the
    ground size, and per-point degrees stay in the floor/ceil window of
    total/|ground| for every unit and every parent group.  For each block
    size the grand total must equal binom(h, size); with complete=True a
    slack unit per size is added to make it so.

    stubs lists, per unit, sets from outside the ground that the unit
    carries in; each stub takes exactly one point and counts towards the
    unit's total.  Equal stubs under one parent share a floor/ceil window
    per point, so they receive distinct points when there are at most h of
    them.  Filled stubs are returned among the unit's blocks.
    """
    points = list(points)
    h = len(points)
    unit_blocks = [sorted(bl) for bl in unit_blocks]
    nu_real = len(unit_blocks)
    parents = [0] * nu_real if parents is None else list(parents)
    stubs = [[]] * nu_real if stubs is None else [list(st) for st in stubs]
    ground = frozenset(points)
    if any(not ground.isdisjoint(st) for unit in stubs for st in unit):
        raise ValueError("a stub meets the ground")
    size_tot = defaultdict(int)
    for bl in unit_blocks:
        for f in bl:
            if not 0 < f <= h:
                raise ValueError(f"block size {f} outside 1..{h}")
            size_tot[f] += 1
    for f, cnt in sorted(size_tot.items()):
        pool = binom(h, f)
        if cnt > pool:
            raise ValueError(f"{cnt} blocks of size {f} exceed the pool {pool}")
        if cnt < pool:
            if not complete:
                raise ValueError(f"size {f} uses {cnt} of {pool} blocks; "
                                 "pass complete=True to pad")
            unit_blocks.append([f] * (pool - cnt))
            parents.append(("slack", f))
            stubs.append([])
    nu = len(unit_blocks)
    if rng is not None:
        rng.shuffle(points)

    # remaining intake per unit, per parent and per stub class (parent,
    # content), each held in the floor/ceil window of its total over h
    r_unit = [sum(bl) + len(st) for bl, st in zip(unit_blocks, stubs)]
    r_parent = defaultdict(int)
    for i in range(nu):
        r_parent[parents[i]] += r_unit[i]
    uwin = [_window(t, h) for t in r_unit]
    pwin = {p: _window(t, h) for p, t in r_parent.items()}
    r_stub = defaultdict(int)
    for i, st in enumerate(stubs):
        for content in st:
            r_stub[(parents[i], content)] += 1
    swin = {key: _window(t, h) for key, t in r_stub.items()}

    # open blocks per unit as (size, content) -> count, their census over
    # all units, and open stubs per unit as (parent, content) -> count;
    # every dict is updated per move and read in insertion order
    empty = frozenset()
    blocks = [Counter((f, empty) for f in bl) for bl in unit_blocks]
    census = Counter({(f, empty): binom(h, f) for f in sorted(size_tot)})
    open_stubs = [Counter((parents[i], st) for st in stubs[i]) for i in range(nu)]
    filled = [[] for _ in range(nu)]
    # nodes: 0 = source side of the circulation loop, 1 = sink side, then
    # parents, units, and per stage the block contents and stub classes
    pnode = {p: nid for nid, p in enumerate(pwin, 2)}
    ubase = 2 + len(pnode)
    unit_parent = [(pnode[parents[i]], ubase + i) for i in range(nu)]

    for stage, pt in enumerate(points):
        sigma = h - stage
        cnode = {key: nid for nid, key in enumerate(census, ubase + nu)}
        nid = ubase + nu + len(cnode)
        snode = {}
        for key, rem in r_stub.items():
            if rem:
                snode[key] = nid; nid += 1
        # the arcs that move blocks, then those that fill stubs, come first,
        # in step with moves and stub_moves; a block that needs sigma more
        # points, and at the last point every stub, must take this one
        arcs, moves, stub_arcs, stub_moves = [], [], [], []
        for i in range(nu):
            u = ubase + i
            if blocks[i]:
                arcs += [(u, cnode[key], cnt if key[0] - len(key[1]) == sigma else 0, cnt)
                         for key, cnt in blocks[i].items()]
                moves += [(i, key) for key in blocks[i]]
            if open_stubs[i]:
                stub_arcs += [(u, snode[key], cnt if sigma == 1 else 0, cnt)
                              for key, cnt in open_stubs[i].items()]
                stub_moves += [(i, key) for key in open_stubs[i]]
        arcs += stub_arcs
        for p, win in pwin.items():
            arcs.append((0, pnode[p], *_stage_bounds(*win, r_parent[p], sigma)))
        for i, (pn, u) in enumerate(unit_parent):
            arcs.append((pn, u, *_stage_bounds(*uwin[i], r_unit[i], sigma)))
        for key, g in census.items():
            f, content = key
            if g != binom(sigma, f - len(content)):
                raise AllocationError("content census out of balance")
            need = binom(sigma - 1, f - len(content) - 1)
            arcs.append((cnode[key], 1, need, need))
        for key, node in snode.items():
            arcs.append((node, 1, *_stage_bounds(*swin[key], r_stub[key], sigma)))
        arcs.append((1, 0, 0, 1 << 60))

        flows = feasible_circulation(nid, arcs)
        if flows is None:
            raise AllocationError(f"stage {stage} infeasible")
        for fl, (i, key) in zip(flows, moves):
            if not fl:
                continue
            r_unit[i] -= fl
            r_parent[parents[i]] -= fl
            _take(blocks[i], key, fl)
            _take(census, key, fl)
            f, content = key
            grown = content | {pt}
            if len(grown) == f:
                filled[i] += [grown] * fl
            else:
                blocks[i][(f, grown)] += fl
                census[(f, grown)] += fl
        for fl, (i, key) in zip(flows[len(moves):], stub_moves):
            if not fl:
                continue
            r_unit[i] -= fl
            r_parent[parents[i]] -= fl
            _take(open_stubs[i], key, fl)
            r_stub[key] -= fl
            filled[i] += [key[1] | {pt}] * fl

    return [sorted(unit, key=lambda b: (len(b), sorted(b)))
            for unit in filled[:nu_real]]


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
