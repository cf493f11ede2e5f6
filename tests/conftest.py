import random

import pytest

from connsys import ConnectivitySystem

from .oracles import oracle_symmetric_submodular_tables


@pytest.fixture(scope="session")
def c4_edge():
    return ConnectivitySystem.from_edge_cut(
        ["e1", "e2", "e3", "e4"], 4, [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


@pytest.fixture(scope="session")
def c4_vertex():
    return ConnectivitySystem.from_vertex_cut(
        ["1", "2", "3", "4"], 4, [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


@pytest.fixture(scope="session")
def k4_edge():
    return ConnectivitySystem.from_edge_cut(
        ["e1", "e2", "e3", "e4", "e5", "e6"],
        4,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    )


@pytest.fixture(scope="session")
def seeded_cut_systems():
    """A vertex-cut and an edge-cut system of a random graph for each n = 3..10."""
    rng = random.Random(71018)
    systems = []
    for n in range(3, 11):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(n - 1, min(len(pairs), 2 * n)))
        systems.append(ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(n)], n, edges))
        vertices = rng.choice([v for v in range(3, 8) if v * (v - 1) // 2 >= n])
        pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
        edges = sorted(rng.sample(pairs, n))
        systems.append(ConnectivitySystem.from_edge_cut([f"e{i}" for i in range(n)], vertices, edges))
    return systems


def random_cut_systems(seed, count, max_n):
    """Seeded vertex- and edge-cut systems of random graphs with n = 1..max_n."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        if rng.random() < 0.5:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            systems.append(ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(n)], n, edges))
        else:
            vertices = next(v for v in range(2, 9) if v * (v - 1) // 2 >= n)
            vertices = rng.randint(vertices, vertices + 2)
            pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
            edges = sorted(rng.sample(pairs, n))
            systems.append(ConnectivitySystem.from_edge_cut([f"e{i}" for i in range(n)], vertices, edges))
    return systems


def dense_vertex_cut(n):
    """A vertex cut of a graph with 3n edges, seeded by n."""
    rng = random.Random(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return ConnectivitySystem.from_vertex_cut([f"v{i}" for i in range(n)], n, rng.sample(pairs, 3 * n))


@pytest.fixture(scope="session")
def trivial1():
    return ConnectivitySystem.from_table(["x"], {0: 0, 1: 0})


@pytest.fixture(scope="session")
def trivial2():
    return ConnectivitySystem.from_table(["x", "y"], {0: 0, 1: 0, 2: 0, 3: 0})


@pytest.fixture(scope="session")
def trivial3():
    return ConnectivitySystem.from_table(["a", "b", "c"], {m: 0 for m in range(8)})


@pytest.fixture(scope="session")
def exhaustive_systems():
    """Every system with n = 4 and values at most 3, and every one with n = 5 and values at most 2, by n."""
    systems = {}
    for n, top in ((4, 3), (5, 2)):
        labels = [chr(ord("a") + i) for i in range(n)]
        tables = oracle_symmetric_submodular_tables(n, top)
        systems[n] = [ConnectivitySystem.from_table(labels, dict(enumerate(values))) for values in tables]
    return systems


@pytest.fixture(scope="session")
def seeded_cuts_9_to_12():
    """The seeded cut systems with n = 9..12 among 120 drawn with n = 1..12."""
    return [sys for sys in random_cut_systems(91712, 120, 12) if sys.n >= 9]


def make_table_system(n, pair_values):
    """Systems over n elements from per-complement-pair values; may raise on invalid."""
    labels = [chr(ord("a") + i) for i in range(n)]
    full = (1 << n) - 1
    table = {0: 0}
    for mask, value in pair_values.items():
        table[mask] = value
        table[full ^ mask] = value
    return ConnectivitySystem.from_table(labels, table)


def all_three_element_systems(values=(0, 1, 2)):
    """Every valid system over {a,b,c} with pair values drawn from the given set."""
    from connsys.errors import SubmodularityViolation

    systems = []
    for v1 in values:
        for v2 in values:
            for v3 in values:
                try:
                    systems.append(make_table_system(3, {0b001: v1, 0b010: v2, 0b100: v3}))
                except SubmodularityViolation:
                    continue
    return systems


def connected_graphs_with_edges(min_edges, max_edges):
    """All connected simple graphs with edge counts in range, up to isomorphism."""
    import networkx as nx

    graphs = []
    for g in nx.graph_atlas_g()[1:]:
        m = g.number_of_edges()
        if min_edges <= m <= max_edges and nx.is_connected(g):
            graphs.append(nx.convert_node_labels_to_integers(g))
    if min_edges <= 7 <= max_edges:
        # the atlas stops at 7 vertices; 7-edge connected graphs on 8 vertices are trees
        for t in nx.nonisomorphic_trees(8):
            graphs.append(nx.convert_node_labels_to_integers(t))
    return graphs


def edge_cut_system(graph):
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    labels = [f"e{i}" for i in range(len(edges))]
    return ConnectivitySystem.from_edge_cut(labels, graph.number_of_nodes(), edges)
