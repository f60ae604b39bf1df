import random

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
