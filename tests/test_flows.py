import random

import networkx as nx
import pytest

from sperner.flows import FlowNet, feasible_circulation


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
