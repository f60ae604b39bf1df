import random
from collections import Counter

import networkx as nx
import pytest

from sperner.flows import Circulation, FlowNet, feasible_circulation


class RecursiveDinic:
    """Reference: the recursive Dinic the flat-array engine replaced.

    Each augmenting path is found by a fresh DFS from the source over the
    current-arc pointers.  The engine must reproduce its arc flows exactly;
    the staged constructions depend on that for byte-identical output.
    """

    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_arc(self, u, v, cap):
        aid = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(aid)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(aid + 1)
        return aid

    def max_flow(self, s, t):
        total = 0
        INF = 1 << 62
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for aid in self.head[u]:
                    v = self.to[aid]
                    if self.cap[aid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total
            it = [0] * self.n

            def augment(u, f):
                if u == t:
                    return f
                while it[u] < len(self.head[u]):
                    aid = self.head[u][it[u]]
                    v = self.to[aid]
                    if self.cap[aid] > 0 and level[v] == level[u] + 1:
                        d = augment(v, min(f, self.cap[aid]))
                        if d > 0:
                            self.cap[aid] -= d
                            self.cap[aid ^ 1] += d
                            return d
                    it[u] += 1
                return 0

            while True:
                pushed = augment(s, INF)
                if pushed == 0:
                    break
                total += pushed


def recursive_circulation(n_nodes, arcs):
    net = RecursiveDinic(n_nodes + 2)
    ss, tt = n_nodes, n_nodes + 1
    excess = [0] * n_nodes
    ids = []
    for (u, v, low, cap) in arcs:
        if low > cap:
            return None
        ids.append(net.add_arc(u, v, cap - low))
        excess[v] += low
        excess[u] -= low
    need = 0
    for v in range(n_nodes):
        if excess[v] > 0:
            net.add_arc(ss, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add_arc(v, tt, -excess[v])
    if net.max_flow(ss, tt) != need:
        return None
    return [arcs[i][2] + net.cap[ids[i] ^ 1] for i in range(len(arcs))]


class ReverseBfsDinic(FlowNet):
    """Reference: the engine before its labels were cut down to the
    shortest paths.  Every phase labels all nodes within the source's
    distance of the sink by a reverse BFS; the blocking-flow search is the
    engine's.  The engine must reproduce its arc flows, phases and paths
    exactly."""

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


def same_flow_as_reverse_bfs(net, s, t):
    """Run max_flow on net and on an oracle copy of it; both must push the
    same value and leave the same residual capacities, phases and paths."""
    old = ReverseBfsDinic(0)
    old.head = [list(arcs) for arcs in net.head]
    old.to, old.cap = list(net.to), list(net.cap)
    value = FlowNet.max_flow(net, s, t)
    assert value == old.max_flow(s, t)
    assert (net.cap, net.phases, net.paths) == (old.cap, old.phases, old.paths)
    return value


class CheckedCirculation(Circulation):
    """A Circulation whose every max_flow is checked against the oracle."""

    def max_flow(self, s, t):
        return same_flow_as_reverse_bfs(self, s, t)


def random_network(rng, n_max=9, cap_max=5):
    n = rng.randint(2, n_max)
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.randint(0, cap_max)))
    return n, arcs


def random_bounded(rng):
    """Circulation instances shaped like the staged ones: a loop arc from
    the sink side 1 back to the source side 0, bounds on every other arc."""
    n = rng.randint(3, 9)
    arcs = [(1, 0, 0, 1 << 60)]
    for _ in range(rng.randint(1, 3 * n)):
        u, v = rng.sample(range(n), 2)
        low = rng.choice((0, 0, 0, 1, 2))
        arcs.append((u, v, low, low + rng.randint(-1 if low else 0, 3)))
    rng.shuffle(arcs)
    return n, arcs


def nx_graph(nodes, arcs):
    """networkx DiGraph with parallel arcs merged into one capacity."""
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    for u, v, c in arcs:
        if g.has_edge(u, v):
            g[u][v]["capacity"] += c
        else:
            g.add_edge(u, v, capacity=c)
    return g


def nx_feasible(n, arcs) -> bool:
    """Feasibility by the lower-bound reduction, solved by networkx."""
    if any(low > cap for _, _, low, cap in arcs):
        return False
    excess = [0] * n
    reduced = []
    for u, v, low, cap in arcs:
        reduced.append((u, v, cap - low))
        excess[v] += low
        excess[u] -= low
    for v, ex in enumerate(excess):
        if ex > 0:
            reduced.append(("ss", v, ex))
        elif ex < 0:
            reduced.append((v, "tt", -ex))
    need = sum(ex for ex in excess if ex > 0)
    g = nx_graph(["ss", "tt", *range(n)], reduced)
    return nx.maximum_flow_value(g, "ss", "tt") == need


def build(cls, n, arcs):
    net = cls(n)
    for u, v, c in arcs:
        net.add_arc(u, v, c)
    return net


@pytest.mark.parametrize("seed", range(4))
def test_max_flow_matches_networkx(seed):
    rng = random.Random(f"flows:maxflow:{seed}")
    for _ in range(100):
        n, arcs = random_network(rng)
        s, t = rng.sample(range(n), 2)
        want = nx.maximum_flow_value(nx_graph(range(n), arcs), s, t)
        assert build(FlowNet, n, arcs).max_flow(s, t) == want


@pytest.mark.parametrize("seed", range(4))
def test_circulation_bounds_and_conservation(seed):
    rng = random.Random(f"flows:circulation:{seed}")
    outcomes = set()
    for _ in range(150):
        n, arcs = random_bounded(rng)
        flows = feasible_circulation(n, arcs)
        assert (flows is not None) == nx_feasible(n, arcs)
        outcomes.add(flows is not None)
        if flows is None:
            continue
        balance = [0] * n
        for (u, v, low, cap), f in zip(arcs, flows):
            assert low <= f <= cap
            balance[u] -= f
            balance[v] += f
        assert balance == [0] * n
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(4))
def test_identical_to_recursive_dinic(seed):
    rng = random.Random(f"flows:determinism:{seed}")
    for _ in range(100):
        n, arcs = random_network(rng, n_max=12, cap_max=3)
        s, t = rng.sample(range(n), 2)
        new, old = build(FlowNet, n, arcs), build(RecursiveDinic, n, arcs)
        assert new.max_flow(s, t) == old.max_flow(s, t)
        assert new.cap == old.cap
        n, arcs = random_bounded(rng)
        assert feasible_circulation(n, arcs) == recursive_circulation(n, arcs)


def test_phases_and_paths_of_last_max_flow():
    # s -> a -> t is a shortest path; s -> c -> b -> t waits for phase 2
    net = build(FlowNet, 5, [(0, 1, 1), (1, 4, 1), (0, 3, 1), (3, 2, 1), (2, 4, 1)])
    assert net.max_flow(0, 4) == 2
    assert (net.phases, net.paths) == (2, 2)
    assert net.max_flow(0, 4) == 0
    assert (net.phases, net.paths) == (0, 0)
    # a diamond: one phase, two paths, the second found after retreating
    net = build(FlowNet, 4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    assert net.max_flow(0, 3) == 2
    assert (net.phases, net.paths) == (1, 2)
    # one path of capacity 3 is a single augmentation
    net = build(FlowNet, 3, [(0, 1, 3), (1, 2, 5)])
    assert net.max_flow(0, 2) == 3
    assert (net.phases, net.paths) == (1, 1)


def residual_distances(net, root, forward):
    """Residual BFS distances from root (forward) or to it, None where
    there is no path."""
    head, to, cap = net.head, net.to, net.cap
    dist = [None] * len(head)
    dist[root] = 0
    queue = [root]
    for u in queue:
        for a in head[u]:
            v = to[a]
            if dist[v] is None and cap[a if forward else a ^ 1] > 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def labelling_branch(net, s, t):
    """The branch a phase's labelling must take on net, and the length D of
    its shortest s-t path, read off exact residual distances.  It grows
    whole layers, the side with the smaller frontier first (from s on a
    tie), until a layer meets the other side or comes out empty."""
    ds, dt = residual_distances(net, s, True), residual_distances(net, t, False)
    D = ds[t]
    ahead, behind = Counter(ds), Counter(dt)
    a = b = 0       # the last layer grown from s and from t
    while True:
        forward = ahead[a] <= behind[b]
        side = "forward" if forward else "backward"
        if D == a + b + 1:
            return "meet " + side, D
        if not (ahead[a + 1] if forward else behind[b + 1]):
            return "empty " + side, D
        a, b = (a + 1, b) if forward else (a, b + 1)


@pytest.fixture
def branches(monkeypatch):
    """Count the labelling branches that the phases take, and keep the
    longest shortest path of a phase under "deepest"."""
    seen = Counter()
    levels = FlowNet._levels

    def spy_levels(net, s, t):
        branch, D = labelling_branch(net, s, t)
        seen[branch] += 1
        seen["deepest"] = max(seen["deepest"], D or 0)
        return levels(net, s, t)

    monkeypatch.setattr(FlowNet, "_levels", spy_levels)
    return seen


def random_stage(rng):
    """A circulation shaped like one stage of the staged allocator: a loop
    arc from the sink side back to the source side, 20 to 60 units with
    forced or windowed intake, each sending into a few shared keys, and
    keys with windowed arcs to the sink side.  The windows surround a
    planned routing, one in eight of them pushed above it."""
    net = CheckedCirculation()
    source, sink = net.add_node(), net.add_node()
    net.link(sink, source, 0, 1 << 60)
    keys = [net.add_node() for _ in range(rng.randint(4, 20))]
    load = Counter()
    for _ in range(rng.randint(20, 60)):
        unit = net.add_node()
        need = rng.randint(1, 3)
        net.link(source, unit, need - rng.randint(0, 1), need)
        chosen = rng.sample(keys, rng.randint(2, min(4, len(keys))))
        planned = Counter(rng.choices(chosen, k=need))
        for key in chosen:
            net.link(unit, key, 0, planned[key] + rng.randint(0, 1))
            load[key] += planned[key]
    for key in keys:
        low = max(0, load[key] - rng.randint(0, 2)) + (rng.random() < 0.125)
        net.link(key, sink, low, load[key] + rng.randint(0, 2))
    return net


@pytest.mark.parametrize("arcs,want", [
    ([(0, 1, 2)], (2, 1, 1)),
    ([(0, 2, 1), (2, 1, 1), (0, 3, 1), (3, 4, 1), (4, 5, 1), (5, 1, 1)], (2, 2, 2)),
    ([(0, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)], (1, 1, 1)),
    ([(0, 2, 1), (0, 2, 1), (2, 3, 2), (3, 1, 2)], (2, 1, 2)),
    ([(2, 0, 1), (1, 5, 1), (0, 3, 1), (3, 4, 1), (4, 1, 1), (5, 2, 1)], (1, 1, 1)),
    ([(0, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 1, 1), (0, 6, 1), (6, 1, 0)],
     (1, 1, 1)),
], ids=["D1", "D2", "D4", "parallel-out-of-s", "into-s-out-of-t", "D5-zero-arc"])
def test_hand_cases_match_the_reverse_bfs_engine(arcs, want):
    """(value, phases, paths) from source 0 to sink 1."""
    net = build(FlowNet, 7, arcs)
    value = same_flow_as_reverse_bfs(net, 0, 1)
    assert (value, net.phases, net.paths) == want


def test_labellings_match_the_reverse_bfs_engine(branches):
    """Every arc flow, phase and path of the engine equals the reverse-BFS
    engine's, on random networks and on stage-shaped circulations, and
    every branch of the labelling occurs."""
    rng = random.Random("flows:labellings")
    outcomes = Counter(random_stage(rng).solve() for _ in range(40))
    assert outcomes[True] and outcomes[False]
    assert branches["deepest"] >= 6
    for _ in range(400):
        n, arcs = random_network(rng, n_max=12, cap_max=3)
        s, t = rng.sample(range(n), 2)
        same_flow_as_reverse_bfs(build(FlowNet, n, arcs), s, t)
    for branch in ("meet forward", "meet backward", "empty forward", "empty backward"):
        assert branches[branch], branch


def random_bounds(rng):
    low = rng.choice((0, 0, 0, 1, 2))
    return low, low + rng.randint(-1 if low else 0, 3)


@pytest.mark.parametrize("seed", range(6))
def test_persistent_network_matches_fresh_builds(seed):
    """One Circulation through links, unlinks, slot reuse, retargets, node
    reuse and bound edits: after every solve its verdict is that of a fresh
    `feasible_circulation` and of networkx, its flows meet every bound and
    are conserved at every node, and `carrying` lists the tagged arcs with
    flow."""
    rng = random.Random(f"flows:persistent:{seed}")
    net = Circulation()
    nodes = [net.add_node() for _ in range(rng.randint(3, 6))]
    live = {}          # arc -> (tail, head)
    tagged = set()
    ever, reused, outcomes = set(), 0, set()
    freed, nodes_reused = set(), 0
    e = net.link(nodes[1], nodes[0], 0, 1 << 30)   # a loop, as in the stages
    live[e] = (nodes[1], nodes[0])
    ever.add(e)
    for _ in range(80):
        op = rng.random()
        if op < 0.35 or len(live) < 2:
            u, v = rng.sample(nodes, 2)
            tag = rng.choice((None, "tag"))
            e = net.link(u, v, *random_bounds(rng), tag)
            tagged.discard(e)
            if tag:
                tagged.add(e)
            reused += e in ever
            ever.add(e)
            live[e] = (u, v)
        elif op < 0.55:
            e = rng.choice(sorted(live))
            net.unlink(e)
            del live[e]
        elif op < 0.75:
            e = rng.choice(sorted(live))
            net.low[e], net.hi[e] = random_bounds(rng)
        elif op < 0.85:
            e = rng.choice(sorted(live))
            u, _ = live[e]
            v = rng.choice([w for w in nodes if w != u])
            up = net.hi[e]
            net.retarget(e, v, "tag")
            assert (net.low[e], net.hi[e]) == (0, up)
            tagged.add(e)
            live[e] = (u, v)
        elif op < 0.93:
            nodes.append(net.add_node())
            nodes_reused += nodes[-1] in freed
        elif len(nodes) > 3:
            # unlink a node's arcs, then give the node back
            w = rng.choice(nodes)
            for e in [e for e, ends in live.items() if w in ends]:
                net.unlink(e)
                del live[e]
            nodes.remove(w)
            net.free_node(w)
            freed.add(w)
        # every live arc is listed once, at its tail, and nothing else is
        listed = sorted((a, v) for v in nodes for a in net.head[v])
        assert listed == sorted(ends for e, (u, v) in live.items()
                                for ends in ((2 * e, u), (2 * e + 1, v)))
        assert all(net.to[2 * e:2 * e + 2] == [v, u] for e, (u, v) in live.items())
        index = {w: i for i, w in enumerate(nodes)}
        arcs = [(index[u], index[v], net.low[e], net.hi[e])
                for e, (u, v) in sorted(live.items())]
        ok = net.solve()
        outcomes.add(ok)
        assert ok == (feasible_circulation(len(nodes), arcs) is not None)
        assert ok == nx_feasible(len(nodes), arcs)
        if not ok:
            continue
        flows = net.flows()
        balance = dict.fromkeys(nodes, 0)
        for e, (u, v) in live.items():
            assert net.low[e] <= flows[e] <= net.hi[e]
            balance[u] -= flows[e]
            balance[v] += flows[e]
        assert set(balance.values()) == {0}
        assert not any(flows[e] for e in range(len(flows)) if e not in live)
        assert net.carrying() == [(e, flows[e]) for e in sorted(live)
                                  if e in tagged and flows[e]]
    assert outcomes == {True, False}
    assert reused and nodes_reused
