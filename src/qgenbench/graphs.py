"""Treewidth bracketing of the CZ layer graphs.

Exact treewidth is NP-hard, so we bracket it: graph degeneracy from below and
the min-fill elimination heuristic from above.  Both are deterministic (ties
broken by lowest vertex index) and monotone under edge addition, which is all
the contraction-hardness trend studies need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Tuple

import numpy as np

from .circuits import LayerGraph, default_layers, default_p, sample_er_graph
from .seeding import derive_seed


@dataclass(frozen=True)
class EliminationOrder:
    order: Tuple[int, ...]
    width: int


# Every count the kernels keep is an integer below n**2, which float32 holds
# exactly up to 2**24 = 4096**2.
MAX_GRAPH_VERTICES = 4096


def _adjacency_matrix(graph: LayerGraph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix, n x n float32."""
    if graph.n > MAX_GRAPH_VERTICES:
        raise ValueError(f"graphs cap at {MAX_GRAPH_VERTICES} vertices, got n={graph.n}")
    adj = np.zeros((graph.n, graph.n), dtype=np.float32)
    if graph.edges:
        # one pass over the edge tuples, flattened to a, b, a, b, ...
        flat = np.fromiter(chain.from_iterable(graph.edges), dtype=np.intp,
                           count=2 * len(graph.edges))
        a, b = flat[0::2], flat[1::2]
        adj[a, b] = adj[b, a] = 1
    return adj


def min_fill_width(graph: LayerGraph) -> Tuple[int, EliminationOrder]:
    """Treewidth upper bound: eliminate the vertex needing fewest fill edges.

    Ties go to the lowest vertex index; the width is the largest neighborhood
    met at elimination time.  The graph is held as a dense n x n float32
    matrix (O(n^2) memory).  Twice the fill, d(d-1) - 2|E(N(v))|, is counted
    for every vertex with one A @ A product; it and the degrees are then
    updated as v, with N = N(v) and k = |N|, is eliminated:

    - v simplicial (fill 0, N a clique): no edge is added, and only N(w) for
      w in N loses v, which was adjacent to k - 1 of w's other neighbours,
      so fill[w] -= 2(deg[w] - k) and deg[w] -= 1.
    - otherwise, with v removed, R = A[N] (k x n, and R.T = A[:, N]) and F
      the k x k block of edges missing inside N, every vertex loses twice
      the new edges inside its neighbourhood: fill -= colsum(P) with
      P = (F @ R) * R.  A w in N then trades v, which missed all a of w's
      neighbours outside N, for its g = rowsum(F) new neighbours.  With P'
      = P with the columns of N zeroed, rowsum(P')[w] counts the edges
      between those a and those g, so fill[w] += 2(g a - rowsum(P')[w] - a)
      and deg[w] += g - 1.  The step costs k^2 n, the one product F @ R.

    A running count of live edges (-k per elimination, + the new edges) shows
    when the live vertices form a clique.  Every fill in a clique is 0 and
    stays 0, so the loop would take them in index order, the first with
    alive - 1 neighbours: that tail is appended without stepping through it.
    """
    return _min_fill(_adjacency_matrix(graph), len(graph.edges))


def _min_fill(adj: np.ndarray, edges: int) -> Tuple[int, EliminationOrder]:
    """`min_fill_width` on the adjacency matrix of a graph with `edges`
    edges; the matrix is overwritten."""
    deg = adj.sum(axis=1)
    fill = deg * (deg - 1) - ((adj @ adj) * adj).sum(axis=1)
    order: List[int] = []
    width = 0
    for alive in range(len(adj), 0, -1):
        if 2 * edges == alive * (alive - 1):
            order.extend(np.flatnonzero(fill < np.inf).tolist())
            width = max(width, alive - 1)
            break
        v = int(np.argmin(fill))  # first minimum = lowest index among ties
        nbrs = np.flatnonzero(adj[v])
        k = len(nbrs)
        width = max(width, k)
        edges -= k
        adj[v] = 0.0
        adj[:, v] = 0.0
        if fill[v] == 0:
            fill[nbrs] -= 2 * (deg[nbrs] - k)
            deg[nbrs] -= 1
        else:
            rows = adj[nbrs]
            missing = 1.0 - rows[:, nbrs]
            missing.flat[::k + 1] = 0.0
            edges += int(missing.sum()) // 2
            paths = (missing @ rows) * rows
            fill -= paths.sum(axis=0)
            paths[:, nbrs] = 0.0
            net = missing.sum(axis=1) - 1  # g - 1: g new neighbours in, v out
            old = deg[nbrs]
            outside = old - k + 1 + net  # a, since deg[w] = a + 1 + (k - 1 - g)
            fill[nbrs] += 2 * (outside * net - paths.sum(axis=1))
            deg[nbrs] = old + net
            adj[nbrs[:, None], nbrs] = 1.0
            adj[nbrs, nbrs] = 0.0
        fill[v] = np.inf
        order.append(v)
    return width, EliminationOrder(tuple(order), width)


def degeneracy(graph: LayerGraph) -> int:
    """Treewidth lower bound: max over the peel order of the min residual degree."""
    return _degeneracy(_adjacency_matrix(graph))


def _degeneracy(adj: np.ndarray) -> int:
    """`degeneracy` on an adjacency matrix, which it only reads."""
    deg = adj.sum(axis=1)  # live degree; inf once peeled, so decrements leave it inf
    result = 0
    for _ in range(len(adj)):
        v = int(np.argmin(deg))  # (degree, index) order
        result = max(result, int(deg[v]))
        deg -= adj[v]
        deg[v] = np.inf
    return result


def union_graph(graphs: Iterable[LayerGraph]) -> LayerGraph:
    graphs = list(graphs)
    n = max(g.n for g in graphs)
    edges = set()
    for g in graphs:
        edges.update(g.edges)
    # each graph checked its own pairs, so their sorted union needs no check
    return LayerGraph._from_checked(n, tuple(sorted(edges)))


def treewidth_trend(ns, trials: int, seed: int, *, p: float | None = None,
                    layers: int | None = None) -> List[dict]:
    """Bracket treewidth of G(n, p) samples and of L-layer union graphs.

    Defaults: p = ln(n)/n and L = ceil(ln n) per system size.  Returns one
    CSV-ready row per (n, trial, single-layer | union) combination.
    """
    rows = []
    for n in ns:
        pn = p if p is not None else default_p(n)
        L = layers if layers is not None else default_layers(n)
        for trial in range(trials):
            samples = [sample_er_graph(n, pn, derive_seed(seed, n, trial, l))
                       for l in range(L)]
            for label, g in (("single", samples[0]), ("union", union_graph(samples))):
                adj = _adjacency_matrix(g)  # built once for both bounds
                width, _ = _min_fill(adj.copy(), len(g.edges))
                rows.append({
                    "n": n, "trial": trial,
                    "layers": 1 if label == "single" else L,
                    "edges": len(g.edges),
                    "degeneracy_lb": _degeneracy(adj),
                    "minfill_ub": width,
                })
    return rows
