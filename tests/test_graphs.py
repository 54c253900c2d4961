import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgenbench.circuits import (GenerativeSpec, LayerGraph,
                                build_generative, default_layers, default_p,
                                sample_er_graph)
from qgenbench.cli import main
from qgenbench.experiments import read_csv
from qgenbench.graphs import (MAX_GRAPH_VERTICES, degeneracy, min_fill_width,
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


def _adjacency_matrix(graph):
    adj = np.zeros((graph.n, graph.n))
    if graph.edges:
        a, b = np.array(graph.edges).T
        adj[a, b] = adj[b, a] = 1
    return adj


def _twice_fill(adj, rows):
    """Twice the fill, d(d-1) - 2|E(N(v))|, and the degree of each v in `rows`."""
    sub = adj[rows]
    deg = sub.sum(axis=1)
    return deg * (deg - 1) - ((sub @ adj) * sub).sum(axis=1), deg


def reference_incremental_min_fill(graph):
    """The float64 kernel that the closed-form neighbourhood update replaced:
    it updates every vertex's fill, then recounts the k rows of N(v) against
    the whole matrix after each non-simplicial elimination."""
    adj = _adjacency_matrix(graph)
    fill, deg = _twice_fill(adj, np.arange(graph.n))
    order, width = [], 0
    for _ in range(graph.n):
        v = int(np.argmin(fill))
        nbrs = np.flatnonzero(adj[v])
        k = len(nbrs)
        width = max(width, k)
        adj[v, nbrs] = adj[nbrs, v] = 0.0
        if fill[v] == 0:
            fill[nbrs] -= 2 * (deg[nbrs] - k)
            deg[nbrs] -= 1
        else:
            block = np.ix_(nbrs, nbrs)
            missing = 1.0 - adj[block]
            np.fill_diagonal(missing, 0.0)
            cols = adj[:, nbrs]
            fill -= ((cols @ missing) * cols).sum(axis=1)
            adj[block] = 1.0
            adj[nbrs, nbrs] = 0.0
            fill[nbrs], deg[nbrs] = _twice_fill(adj, nbrs)
        fill[v] = np.inf
        order.append(v)
    return width, tuple(order)


def reference_recount_min_fill(graph):
    """The recount kernel that incremental min-fill replaced: after each
    elimination it recounts every row of N(v) and of their neighbours."""
    adj = _adjacency_matrix(graph)
    fill = _twice_fill(adj, np.arange(graph.n))[0]
    order, width = [], 0
    for _ in range(graph.n):
        v = int(np.argmin(fill))
        nbrs = np.flatnonzero(adj[v])
        width = max(width, len(nbrs))
        adj[np.ix_(nbrs, nbrs)] = 1.0
        adj[nbrs, nbrs] = 0.0
        adj[v, :] = adj[:, v] = 0.0
        fill[v] = np.inf
        order.append(v)
        if len(nbrs):
            touched = adj[nbrs].any(axis=0)
            touched[nbrs] = True
            rows = np.flatnonzero(touched)
            fill[rows] = _twice_fill(adj, rows)[0]
    return width, tuple(order)


def reference_closed_form_min_fill(graph):
    """The float32 closed-form kernel before the clique exit: it steps through
    every elimination, a final clique included, one vertex at a time."""
    adj = _adjacency_matrix(graph).astype(np.float32)
    deg = adj.sum(axis=1)
    fill = deg * (deg - 1) - ((adj @ adj) * adj).sum(axis=1)
    order, width = [], 0
    for _ in range(graph.n):
        v = int(np.argmin(fill))
        nbrs = np.flatnonzero(adj[v])
        k = len(nbrs)
        width = max(width, k)
        adj[v] = 0.0
        adj[:, v] = 0.0
        if fill[v] == 0:
            fill[nbrs] -= 2 * (deg[nbrs] - k)
            deg[nbrs] -= 1
        else:
            rows = adj[nbrs]
            missing = 1.0 - rows[:, nbrs]
            missing.flat[::k + 1] = 0.0
            paths = (missing @ rows) * rows
            fill -= paths.sum(axis=0)
            paths[:, nbrs] = 0.0
            net = missing.sum(axis=1) - 1
            old = deg[nbrs]
            outside = old - k + 1 + net
            fill[nbrs] += 2 * (outside * net - paths.sum(axis=1))
            deg[nbrs] = old + net
            adj[nbrs[:, None], nbrs] = 1.0
            adj[nbrs, nbrs] = 0.0
        fill[v] = np.inf
        order.append(v)
    return width, tuple(order)


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


def test_trend_builds_each_matrix_once(monkeypatch):
    # min-fill overwrites its matrix and degeneracy only reads it, so one
    # build serves both; the rows equal the public functions'
    import qgenbench.graphs as graphs

    built = []
    build = graphs._adjacency_matrix
    monkeypatch.setattr(graphs, "_adjacency_matrix", lambda g: built.append(g) or build(g))
    rows = treewidth_trend([20, 30], trials=2, seed=1)
    monkeypatch.undo()
    assert len(built) == len(rows) == 8
    for row, g in zip(rows, built):
        assert len(g.edges) == row["edges"]
        assert row["minfill_ub"] == min_fill_width(g)[0]
        assert row["degeneracy_lb"] == degeneracy(g)


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


def _graph(n, pairs):
    return LayerGraph(n, tuple(sorted({(min(a, b), max(a, b)) for a, b in pairs})))


@st.composite
def workload_graphs(draw):
    """A G(n, ln n/n) layer or the union of ceil(ln n) of them, n <= 200."""
    n, seed = draw(st.integers(1, 200)), draw(st.integers(0, 2**32 - 1))
    layers = draw(st.sampled_from([1, default_layers(n)]))
    return union_graph([sample_er_graph(n, default_p(n), derive_seed(seed, l))
                        for l in range(layers)])


@st.composite
def shaped_graphs(draw, depth=1):
    """Graphs that take only one update branch, or both: empty, trees and
    stars (every step simplicial), cycles (none simplicial), cliques,
    k-trees, disjoint unions, isolated vertices; relabelled at random."""
    kind = draw(st.sampled_from(["empty", "tree", "star", "cycle", "clique", "ktree"]
                                + (["union"] if depth else [])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "union":
        a, b = draw(shaped_graphs(depth=0)), draw(shaped_graphs(depth=0))
        g = _graph(a.n + b.n, a.edges + tuple((u + a.n, w + a.n) for u, w in b.edges))
    else:
        n = draw(st.integers(1 if kind != "cycle" else 3, 40))
        if kind == "empty":
            g = LayerGraph(n, ())
        elif kind == "tree":
            g = _graph(n, [(v, int(rng.integers(v))) for v in range(1, n)])
        elif kind == "star":
            g = _graph(n, [(0, v) for v in range(1, n)])
        elif kind == "cycle":
            g = cycle(n)
        elif kind == "clique":
            g = clique(n)
        else:
            k = draw(st.integers(1, max(1, n - 1)))
            pairs = [(a, b) for a in range(min(k + 1, n)) for b in range(a)]
            cliques = [tuple(u for u in range(k + 1) if u != w) for w in range(k + 1)]
            for v in range(k + 1, n):
                base = cliques[int(rng.integers(len(cliques)))]
                pairs += [(v, u) for u in base]
                cliques += [tuple(u for u in base if u != w) + (v,) for w in base]
            g = _graph(n, pairs)
    isolated = draw(st.integers(0, 3))
    perm = rng.permutation(g.n + isolated)
    return _graph(g.n + isolated, [(int(perm[a]), int(perm[b])) for a, b in g.edges])


@settings(max_examples=200, deadline=None)
@given(graph=st.one_of(workload_graphs(), shaped_graphs()))
def test_min_fill_matches_recount_reference_bitwise(graph):
    width, order = min_fill_width(graph)
    assert (width, order.order) == reference_recount_min_fill(graph)


@settings(max_examples=200, deadline=None)
@given(graph=st.one_of(workload_graphs(), shaped_graphs()))
def test_min_fill_matches_incremental_reference_bitwise(graph):
    width, order = min_fill_width(graph)
    assert (width, order.order) == reference_incremental_min_fill(graph)


@settings(max_examples=200, deadline=None)
@given(graph=st.one_of(workload_graphs(), shaped_graphs()))
def test_min_fill_matches_closed_form_reference_bitwise(graph):
    width, order = min_fill_width(graph)
    assert (width, order.order) == reference_closed_form_min_fill(graph)
    assert order.width == width


def _relabel(graph, perm):
    return _graph(graph.n, [(perm[a], perm[b]) for a, b in graph.edges])


# Graphs with a clique that is not yet the whole live graph: the clique exit
# must wait until the last non-clique vertex is gone.
_K5_PENDANT_PATH = _graph(9, [(a, b) for a in range(5) for b in range(a)]
                          + [(4, 5), (5, 6), (6, 7), (7, 8)])
_TWO_CLIQUES = _graph(9, [(a, b) for a in range(4) for b in range(a)]
                      + [(a, b) for a in range(4, 9) for b in range(4, a)])
_K6_ISOLATED = _graph(9, [(a, b) for a in range(6) for b in range(a)])


def _steps_before_clique(graph, order):
    """Eliminations along `order` before the live vertices first form a clique."""
    adj = _bit_adjacency(graph)
    alive = (1 << graph.n) - 1
    for step, v in enumerate(order):
        live = alive.bit_count()
        if sum(adj[u].bit_count() for u in _iter_bits(alive)) == live * (live - 1):
            return step
        nbrs = adj[v]
        for a in _iter_bits(nbrs):
            adj[a] = (adj[a] | (nbrs & ~(1 << a))) & ~(1 << v)
        adj[v] = 0
        alive &= ~(1 << v)
    return len(order)


_REVERSED = [8, 7, 6, 5, 4, 3, 2, 1, 0]
_INTERLEAVED = [0, 2, 4, 6, 8, 1, 3, 5, 7]


@pytest.mark.parametrize("graph", [
    LayerGraph(0, ()), LayerGraph(4, ()), clique(6), cycle(8), grid(4, 4),
    _K5_PENDANT_PATH, _relabel(_K5_PENDANT_PATH, _REVERSED),
    _relabel(_K5_PENDANT_PATH, [4, 0, 6, 2, 8, 1, 5, 3, 7]),
    _TWO_CLIQUES, _relabel(_TWO_CLIQUES, _REVERSED), _relabel(_TWO_CLIQUES, _INTERLEAVED),
    _K6_ISOLATED, _relabel(_K6_ISOLATED, [3, 4, 5, 6, 7, 8, 0, 1, 2]),
    _relabel(_K6_ISOLATED, _INTERLEAVED),
    union_graph([sample_er_graph(200, default_p(200), derive_seed(3, l))
                 for l in range(default_layers(200))]),
], ids=["n0", "empty", "clique", "cycle", "grid", "k5-path", "k5-path-reversed",
        "k5-path-mixed", "two-cliques", "two-cliques-reversed", "two-cliques-interleaved",
        "k6-isolated", "k6-isolated-last", "k6-isolated-interleaved", "union200"])
def test_min_fill_exits_at_the_clique_tail_and_no_earlier(graph, monkeypatch):
    """One argmin per stepped elimination, none once the live graph is a
    clique; the order and width are those of stepping through the tail."""
    calls = []
    argmin = np.argmin
    monkeypatch.setattr(np, "argmin", lambda a: calls.append(1) or argmin(a))
    width, order = min_fill_width(graph)
    monkeypatch.undo()
    assert (width, order.order) == reference_closed_form_min_fill(graph)
    assert (width, order.order) == reference_min_fill(graph)
    assert len(calls) == _steps_before_clique(graph, order.order) < max(graph.n, 1)


@pytest.mark.parametrize("bracket", [min_fill_width, degeneracy],
                         ids=["min_fill_width", "degeneracy"])
def test_brackets_reject_graphs_past_float32_range(bracket):
    assert MAX_GRAPH_VERTICES**2 <= 2**24  # every count stays exact in float32
    with pytest.raises(ValueError, match="4096"):
        bracket(LayerGraph(MAX_GRAPH_VERTICES + 1, ()))


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
