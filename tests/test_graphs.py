import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgenbench.circuits import (Circuit, CZLayer, GenerativeSpec, LayerGraph,
                                build_generative, sample_er_graph)
from qgenbench.cli import main
from qgenbench.experiments import read_csv
from qgenbench.graphs import (degeneracy, interaction_graph, min_fill_width,
                              treewidth_trend, union_graph)
from qgenbench.seeding import derive_seed, rng_for


# Reference implementations: the plain bitset scans that the array versions
# replace.  Each step rescans every live vertex in ascending order.

def _bit_adjacency(graph):
    adj = [0] * graph.n
    for a, b in graph.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _iter_bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def reference_min_fill(graph):
    adj = _bit_adjacency(graph)
    alive = (1 << graph.n) - 1
    order, width = [], 0
    while alive:
        best_v, best_fill = -1, None
        for v in _iter_bits(alive):
            nbrs = adj[v]
            fill = sum((nbrs & ~adj[a] & ~(1 << a)).bit_count() for a in _iter_bits(nbrs)) // 2
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nbrs = adj[best_v]
        width = max(width, nbrs.bit_count())
        vbit = 1 << best_v
        for a in _iter_bits(nbrs):
            adj[a] = (adj[a] | (nbrs & ~(1 << a))) & ~vbit
        adj[best_v] = 0
        alive &= ~vbit
        order.append(best_v)
    return width, tuple(order)


def reference_degeneracy(graph):
    adj = _bit_adjacency(graph)
    alive = (1 << graph.n) - 1
    result = 0
    while alive:
        v = min(_iter_bits(alive), key=lambda u: (adj[u].bit_count(), u))
        result = max(result, adj[v].bit_count())
        for u in _iter_bits(adj[v]):
            adj[u] &= ~(1 << v)
        adj[v] = 0
        alive &= ~(1 << v)
    return result


def path(n):
    return LayerGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return LayerGraph(n, tuple((i, (i + 1) % n) if i + 1 < n else (0, n - 1)
                               for i in range(n)))


def clique(n):
    return LayerGraph(n, tuple((a, b) for a in range(n) for b in range(a + 1, n)))


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return LayerGraph(rows * cols, tuple(edges))


def test_known_widths():
    for g, tw in [(LayerGraph(4, ()), 0), (path(6), 1), (cycle(7), 2),
                  (clique(5), 4)]:
        ub, order = min_fill_width(g)
        lb = degeneracy(g)
        assert lb == ub == tw
        assert sorted(order.order) == list(range(g.n))


def test_grid_bracket():
    g = grid(4, 4)
    lb, (ub, _) = degeneracy(g), min_fill_width(g)
    assert lb <= 4 <= ub  # treewidth of the 4x4 grid is 4
    assert ub <= 5


def test_bracket_ordering_random():
    for seed in range(40):
        g = sample_er_graph(30, 0.15, seed)
        assert degeneracy(g) <= min_fill_width(g)[0]


def test_monotone_under_edge_addition():
    rng = np.random.default_rng(3)
    for seed in range(20):
        g = sample_er_graph(20, 0.1, seed)
        extra = sample_er_graph(20, 0.1, seed + 1000)
        big = union_graph([g, extra])
        assert degeneracy(big) >= degeneracy(g)
        assert min_fill_width(big)[0] >= min_fill_width(g)[0]


def test_deterministic_tie_breaking():
    g = cycle(8)
    _, order1 = min_fill_width(g)
    _, order2 = min_fill_width(g)
    assert order1 == order2
    assert order1.order[0] == 0  # all fill counts tie; lowest index wins


def test_interaction_graph_star():
    star = CZLayer(tuple((0, b) for b in range(1, 5)))
    circ = Circuit(6, (star,))
    g = interaction_graph(circ, {0})
    assert g.n == 5  # qubit 5 is outside the cone
    assert len(g.edges) == 4


def test_interaction_graph_disconnected_support():
    circ = Circuit(4, (CZLayer(((0, 1),)),))
    g = interaction_graph(circ, {3})
    assert g.n == 1 and g.edges == ()


def test_interaction_graph_relabelling():
    circ = Circuit(5, (CZLayer(((2, 4),)),))
    g = interaction_graph(circ, {2})
    assert g.n == 2 and g.edges == ((0, 1),)


def test_union_of_layers_widens():
    n, seed = 60, 5
    p = math.log(n) / n
    layers = [sample_er_graph(n, p, seed + l) for l in range(5)]
    single = min_fill_width(layers[0])[0]
    union = min_fill_width(union_graph(layers))[0]
    assert union >= single


def test_treewidth_trend_rows():
    rows = treewidth_trend([20, 30], trials=2, seed=1)
    assert len(rows) == 8
    for row in rows:
        assert row["degeneracy_lb"] <= row["minfill_ub"]
        assert row["layers"] in (1, math.ceil(math.log(row["n"])))
    rows20 = [r for r in rows if r["n"] == 20 and r["trial"] == 0]
    assert rows20[0]["layers"] == 1


def test_trend_deterministic():
    a = treewidth_trend([25], trials=3, seed=9)
    b = treewidth_trend([25], trials=3, seed=9)
    assert a == b


def test_trend_increases_with_n():
    rows = treewidth_trend([40, 120], trials=5, seed=2)
    mean_ub = {}
    for n in (40, 120):
        vals = [r["minfill_ub"] for r in rows if r["n"] == n and r["layers"] > 1]
        mean_ub[n] = np.mean(vals)
    assert mean_ub[120] > mean_ub[40]


@settings(max_examples=150)
@given(n=st.integers(1, 40), p=st.floats(0.0, 1.0), layers=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_array_brackets_match_bitset_reference(n, p, layers, seed):
    samples = [sample_er_graph(n, p, derive_seed(seed, l)) for l in range(layers)]
    for g in (samples[0], union_graph(samples)):
        width, order = min_fill_width(g)
        assert (width, order.order) == reference_min_fill(g)
        assert order.width == width
        assert degeneracy(g) == reference_degeneracy(g)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 64])
def test_er_edges_match_pair_loop(n):
    for p, seed in ((0.0, 1), (0.2, 2), (math.log(max(n, 2)) / max(n, 2), 3), (1.0, 4)):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        keep = rng_for(seed).random(len(pairs)) < p
        expected = tuple(pair for pair, k in zip(pairs, keep) if k)
        assert sample_er_graph(n, p, seed).edges == expected


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
def test_er_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        sample_er_graph(5, p, 0)


def test_graph_stats_csv_repeats_and_matches_reference(tmp_path):
    outs = [str(tmp_path / f"{k}.csv") for k in "ab"]
    for out in outs:
        assert main(["graph-stats", "--ns", "20,50", "--trials", "2", "--seed", "4",
                     "--out", out, "--quiet"]) == 0
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
    rows = read_csv(outs[0])
    assert len(rows) == 8
    for row in rows:
        n, trial, layers = int(row["n"]), int(row["trial"]), int(row["layers"])
        samples = [sample_er_graph(n, math.log(n) / n, derive_seed(4, n, trial, l))
                   for l in range(layers)]
        g = union_graph(samples)
        assert int(row["edges"]) == len(g.edges)
        assert int(row["minfill_ub"]) == reference_min_fill(g)[0]
        assert int(row["degeneracy_lb"]) == reference_degeneracy(g)
