"""Integer max-flow and feasible circulations with arc lower bounds.

Deterministic Dinic on flat arc arrays: arc `a` runs to `to[a]` with
residual capacity `cap[a]`, its reverse is `a ^ 1`, and `head[u]` lists the
arcs leaving u in insertion order.  Each phase labels nodes with their
residual distance to the sink, by a reverse BFS that stops at the source's
layer.  The blocking flow is found by an iterative DFS over an explicit arc
stack that follows arcs one step closer to the sink, drops the dead ends
it meets, and after each augmentation retreats only to the tail of the
first saturated arc.

This finds the same augmenting paths, in the same order, as the textbook
search that levels nodes from the source and restarts a recursive DFS at
the source for every path: an arc steps one closer to the sink exactly
when it lies on a shortest path, the textbook search abandons every other
level-graph arc as a dead end, and its restart re-walks the unsaturated
prefix through the same current-arc pointers.  Identical inputs therefore
yield identical arc flows.

The staged allocator (`baranyai.partition_ground`) calls
`feasible_circulation` once per ground point, on graphs of a few thousand
arcs, which it builds in one pass over the arc list.
"""

from __future__ import annotations


class FlowNet:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> int:
        aid = len(self.to)
        self.to += (v, u)
        self.cap += (cap, 0)
        self.head[u].append(aid)
        self.head[v].append(aid + 1)
        return aid

    def max_flow(self, s: int, t: int) -> int:
        head, to, cap, n = self.head, self.to, self.cap, self.n
        total = 0
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


def feasible_circulation(n_nodes: int, arcs: list[tuple[int, int, int, int]]):
    """Find integral arc flows for a circulation with bounds.

    arcs is a list of (u, v, low, cap).  Returns the list of flows in arc
    order, or None when no feasible circulation exists.  Arc i of the
    residual network is 2i; a super-source and super-sink after the
    n_nodes nodes carry the lower-bound excesses.
    """
    net = FlowNet(n_nodes + 2)
    head, to, cap = net.head, net.to, net.cap
    excess = [0] * n_nodes
    aid = 0
    for (u, v, low, hi) in arcs:
        if low > hi:
            return None
        to += (v, u)
        cap += (hi - low, 0)
        head[u].append(aid)
        head[v].append(aid + 1)
        aid += 2
        if low:
            excess[v] += low
            excess[u] -= low
    ss, tt = n_nodes, n_nodes + 1
    need = 0
    for v, ex in enumerate(excess):
        if ex > 0:
            net.add_arc(ss, v, ex)
            need += ex
        elif ex < 0:
            net.add_arc(v, tt, -ex)
    if net.max_flow(ss, tt) != need:
        return None
    return [arc[2] + f for arc, f in zip(arcs, cap[1:aid:2])]
