"""Integer max-flow and feasible circulations with arc lower bounds.

Deterministic Dinic on flat arc arrays: arc `a` runs to `to[a]` with
residual capacity `cap[a]`, its reverse is `a ^ 1`, and `head[u]` lists the
arcs leaving u.  Each phase labels nodes with their residual distance to
the sink, by a reverse BFS that stops at the source's layer.  The blocking
flow is found by an iterative DFS over an explicit arc stack that follows
arcs one step closer to the sink, drops the dead ends it meets, and after
each augmentation retreats only to the tail of the first saturated arc.

This finds the same augmenting paths, in the same order, as the textbook
search that levels nodes from the source and restarts a recursive DFS at
the source for every path: an arc steps one closer to the sink exactly
when it lies on a shortest path, the textbook search abandons every other
level-graph arc as a dead end, and its restart re-walks the unsaturated
prefix through the same current-arc pointers.  Identical inputs therefore
yield identical arc flows.

`Circulation` keeps a network with arc bounds across solves.  Arcs and
nodes are linked and unlinked one at a time, and their slots are reused;
the caller edits the bounds `low`/`hi` in place.  Each `solve` resets the
residual capacities from the bounds in one slice assignment, routes the
lower-bound excesses from a super-source to a super-sink through arcs
appended for that solve only, and removes those arcs again.  The staged
allocator (`baranyai.partition_ground`) keeps one such network for all
its stages and patches only what moved; `feasible_circulation` is the
one-shot entry point on the same class.
"""

from __future__ import annotations

from itertools import compress
from operator import add, gt, sub


class FlowNet:
    """Residual network for Dinic; `phases` and `paths` count the blocking
    flows and augmenting paths of the last `max_flow`."""

    def __init__(self, n: int):
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.phases = self.paths = 0

    def add_arc(self, u: int, v: int, cap: int) -> int:
        aid = len(self.to)
        self.to += (v, u)
        self.cap += (cap, 0)
        self.head[u].append(aid)
        self.head[v].append(aid + 1)
        return aid

    def max_flow(self, s: int, t: int) -> int:
        head, to, cap, n = self.head, self.to, self.cap, len(self.head)
        total = self.phases = self.paths = 0
        while True:
            # distances to t in the residual network, as far out as s
            dist = [-1] * n
            dist[t] = 0
            queue = [t]
            for v in queue:
                dv = dist[v] + 1
                if dv > dist[s] >= 0:
                    break
                for aid in head[v]:
                    x = to[aid]
                    if dist[x] < 0 and cap[aid ^ 1] > 0:
                        dist[x] = dv
                        queue.append(x)
            if dist[s] < 0:
                return total
            self.phases += 1
            it = [0] * n
            path: list[int] = []    # arcs from s to u
            u = s
            while True:
                if u == t:
                    f = min(map(cap.__getitem__, path))
                    cut = -1
                    for i, a in enumerate(path):
                        cap[a] -= f
                        cap[a ^ 1] += f
                        if cut < 0 and not cap[a]:
                            cut = i
                    total += f
                    self.paths += 1
                    del path[cut:]
                    u = to[path[-1]] if path else s
                    continue
                arcs = head[u]
                want = dist[u] - 1
                for i in range(it[u], len(arcs)):
                    aid = arcs[i]
                    if cap[aid] > 0 and dist[to[aid]] == want:
                        it[u] = i
                        path.append(aid)
                        u = to[aid]
                        break
                else:
                    # dead end: drop u from this phase and retreat
                    if u == s:
                        break
                    dist[u] = -1
                    u = to[path.pop() ^ 1]
                    it[u] += 1


class Circulation(FlowNet):
    """A network with arc bounds, kept across solves of its circulation.

    Node 0 is the super-source and node 1 the super-sink; `add_node`
    returns the others.  Arc e of `link` is the residual pair (2e, 2e + 1)
    with bounds low[e] <= flow <= hi[e] and an optional tag, any true
    value, by which `carrying` reports it.  Unlinked arcs and freed nodes
    leave their slots to the next `link` and `add_node`, last freed first;
    an unlinked arc keeps bounds (0, 0), no tag, and lies in no head list.
    """

    def __init__(self):
        super().__init__(2)
        self.low: list[int] = []
        self.hi: list[int] = []
        self.tag: list = []
        self._pos: list[int] = []     # index of arc a in its tail's head list
        self._free_arcs: list[int] = []
        self._free_nodes: list[int] = []

    def add_node(self) -> int:
        if self._free_nodes:
            return self._free_nodes.pop()
        self.head.append([])
        return len(self.head) - 1

    def free_node(self, v: int) -> None:
        """Give back a node whose arcs are all unlinked."""
        self._free_nodes.append(v)

    def link(self, u: int, v: int, low: int, hi: int, tag=None) -> int:
        head, pos = self.head, self._pos
        if self._free_arcs:
            e = self._free_arcs.pop()
            a = 2 * e
            self.to[a:a + 2] = v, u
            self.low[e], self.hi[e], self.tag[e] = low, hi, tag
            pos[a:a + 2] = len(head[u]), len(head[v])
        else:
            e = len(self.low)
            a = 2 * e
            self.to += v, u
            self.cap += 0, 0
            self.low.append(low)
            self.hi.append(hi)
            self.tag.append(tag)
            pos += len(head[u]), len(head[v])
        head[u].append(a)
        head[v].append(a + 1)
        return e

    def _detach(self, a: int) -> None:
        # drop arc a from its tail's head list, moving the last arc there
        arcs, pos = self.head[self.to[a ^ 1]], self._pos
        last = arcs.pop()
        if last != a:
            arcs[pos[a]] = last
            pos[last] = pos[a]

    def unlink(self, e: int) -> None:
        self._detach(2 * e)
        self._detach(2 * e + 1)
        self.low[e] = self.hi[e] = 0
        self.tag[e] = None
        self._free_arcs.append(e)

    def retarget(self, e: int, v: int, tag=None) -> None:
        """Point arc e at node v, keeping its place at its tail and its
        upper bound; the lower bound goes back to 0."""
        a = 2 * e + 1
        self._detach(a)
        self.to[a - 1] = v
        self._pos[a] = len(self.head[v])
        self.head[v].append(a)
        self.low[e] = 0
        self.tag[e] = tag

    def force_into(self, v: int) -> None:
        """Set the lower bound of every arc into v to its upper bound."""
        for a in self.head[v]:
            if a & 1:
                self.low[a >> 1] = self.hi[a >> 1]

    def solve(self) -> bool:
        """Find integral flows within the bounds that are conserved at every
        node; False when there are none.  `flows` and `carrying` read them."""
        low, hi, to, cap, head = self.low, self.hi, self.to, self.cap, self.head
        if any(map(gt, low, hi)):
            return False
        m = len(low)
        cap[0::2] = map(sub, hi, low)
        cap[1::2] = [0] * m
        excess = [0] * len(head)
        for e in compress(range(m), low):
            excess[to[2 * e]] += low[e]
            excess[to[2 * e + 1]] -= low[e]
        # route the excesses through arcs that live for this solve only,
        # last in every head list: super-source arcs in node order, then
        # super-sink arcs in node order
        touched = list(compress(range(len(head)), excess))
        need = 0
        for v in touched:
            if excess[v] > 0:
                head[0].append(len(to))
                head[v].append(len(to) + 1)
                to += v, 0
                cap += excess[v], 0
                need += excess[v]
        for v in touched:
            if excess[v] < 0:
                head[v].append(len(to))
                head[1].append(len(to) + 1)
                to += 1, v
                cap += -excess[v], 0
        ok = self.max_flow(0, 1) == need
        for v in touched:
            head[v].pop()
        head[0].clear()
        head[1].clear()
        del to[2 * m:], cap[2 * m:]
        return ok

    def flows(self) -> list[int]:
        """The flow of every arc slot, unlinked ones reading 0."""
        return list(map(add, self.low, self.cap[1::2]))

    def carrying(self) -> list[tuple[int, int]]:
        """(arc, flow) for every tagged arc with nonzero flow, in slot order."""
        flows, tag = self.flows(), self.tag
        return [(e, flows[e]) for e in compress(range(len(flows)), flows) if tag[e]]


def feasible_circulation(n_nodes: int, arcs: list[tuple[int, int, int, int]]):
    """Find integral arc flows for a circulation with bounds.

    arcs is a list of (u, v, low, cap) over nodes 0 .. n_nodes - 1.
    Returns the list of flows in arc order, or None when no feasible
    circulation exists.
    """
    net = Circulation()
    nodes = [net.add_node() for _ in range(n_nodes)]
    for (u, v, low, hi) in arcs:
        net.link(nodes[u], nodes[v], low, hi)
    if not net.solve():
        return None
    return net.flows()
