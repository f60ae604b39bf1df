"""Integer max-flow and feasible circulations with arc lower bounds.

Deterministic Dinic on flat arc arrays: arc `a` runs to `to[a]` with
residual capacity `cap[a]`, its reverse is `a ^ 1`, and `head[u]` lists the
arcs leaving u.  Each phase labels nodes with their residual distance to
the sink t (-1 for no label).  The blocking flow is found by an iterative
DFS over an explicit arc stack that follows arcs one step closer to the
sink, drops the dead ends it meets, and after each augmentation retreats
only to the tail of the first saturated arc.

This finds the same augmenting paths, in the same order, as the textbook
search that levels nodes from the source and restarts a recursive DFS at
the source for every path: an arc steps one closer to the sink exactly
when it lies on a shortest path, the textbook search abandons every other
level-graph arc as a dead end, and its restart re-walks the unsaturated
prefix through the same current-arc pointers.  Identical inputs therefore
yield identical arc flows.

The search needs labels only where it can walk.  Let D be the length of a
shortest residual path from the source s to t.  The search tests
`dist[v] == dist[u] - 1` only at arcs u -> v whose tail it reached from s
along arcs it accepted, so u lies on a shortest path and dist[u] is its
distance to t.  With exact labels the test passes only when v lies on a
shortest path too, since then level_s(v) + d_t(v) <= level_s(u) + 1 +
d_t(u) - 1 = D.  So any labelling that gives every node on a shortest
path its distance to t, and every other node either that distance or -1,
makes the same decisions as a reverse BFS that labels every node within
D of t, and so clears the same labels at the same dead ends.  Each phase
labels that way at less cost than the BFS.  It grows whole BFS layers
from both ends, from s along residual arcs out or from t along residual
arcs in, each time on the side whose frontier is smaller (from s on a
tie), and stops at the first arc that joins the last layer of one side to
a node of the other.  Before that no node has both labels, so D is at
least the sum of the two depths plus one, and that arc makes it exactly
that.  The layers from t carry their exact distances.  One sweep back
over the layers from s, from the last one in, labels a node of layer i
with D - i when a residual arc joins it to a node labelled D - i - 1,
which holds exactly when it lies on a shortest path; the others keep -1.
A layer that comes out empty means that t is cut off.

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
        """Push a maximum s-t flow into the residual capacities and return
        its value, one blocking flow per phase on labels from both sides."""
        total = self.phases = self.paths = 0
        while (dist := self._levels(s, t)) is not None:
            self.phases += 1
            total += self._blocking_flow(s, t, dist)
        return total

    def _levels(self, s: int, t: int) -> list[int] | None:
        """Exact distances to t on every shortest s-t path and on the
        layers searched from t, -1 elsewhere; None when t is unreachable."""
        head, to, cap = self.head, self.to, self.cap
        n = len(head)
        fwd = [-1] * n      # distance from s, on the layers searched from s
        bwd = [-1] * n      # distance to t, on the layers searched from t
        fwd[s] = bwd[t] = 0
        ahead, behind = [[s]], [[t]]
        while True:
            if len(ahead[-1]) <= len(behind[-1]):
                layers, mine, theirs, flip = ahead, fwd, bwd, 0
            else:
                layers, mine, theirs, flip = behind, bwd, fwd, 1
            level = len(layers)
            layer = []
            for u in layers[-1]:
                for a in head[u]:
                    if cap[a ^ flip] and mine[to[a]] < 0:
                        v = to[a]
                        if theirs[v] >= 0:
                            return self._sweep(ahead, bwd, len(behind))
                        mine[v] = level
                        layer.append(v)
            if not layer:
                return None
            layers.append(layer)

    def _sweep(self, ahead: list[list[int]], dist: list[int], d: int) -> list[int]:
        """Label the forward layers back from the last one, which lies at
        distance d from t: a node of a layer lies on a shortest path, and
        is labelled, when a residual arc joins it to a labelled node one
        closer to t."""
        head, to, cap = self.head, self.to, self.cap
        for layer in reversed(ahead):
            for u in layer:
                for a in head[u]:
                    if cap[a] and dist[to[a]] == d - 1:
                        dist[u] = d
                        break
            d += 1
        return dist

    def _blocking_flow(self, s: int, t: int, dist: list[int]) -> int:
        """Push a blocking flow along arcs one step closer to t by `dist`,
        clearing the label of every dead end; return its value."""
        head, to, cap, n = self.head, self.to, self.cap, len(self.head)
        total = 0
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
                    return total
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
