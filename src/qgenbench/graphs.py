"""Interaction-graph extraction and treewidth bracketing.

Exact treewidth is NP-hard, so we bracket it: graph degeneracy from below and
the min-fill elimination heuristic from above.  Both are deterministic (ties
broken by lowest vertex index) and monotone under edge addition, which is all
the contraction-hardness trend studies need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

import numpy as np

from .circuits import (Circuit, CZLayer, LayerGraph, backward_lightcone, default_layers,
                       default_p, sample_er_graph)
from .seeding import derive_seed


@dataclass(frozen=True)
class EliminationOrder:
    order: Tuple[int, ...]
    width: int


def interaction_graph(circuit: Circuit, support: Set[int]) -> LayerGraph:
    """Union of CZ edges lying inside the backward light cone of `support`.

    Vertices are relabelled 0..m-1 in ascending original-qubit order.
    """
    _, cone = backward_lightcone(circuit, support)
    vertices = sorted(cone)
    index = {v: i for i, v in enumerate(vertices)}
    edges = set()
    for layer in circuit.layers:
        if isinstance(layer, CZLayer):
            for a, b in layer.edges:
                if a in cone and b in cone:
                    ia, ib = index[a], index[b]
                    edges.add((min(ia, ib), max(ia, ib)))
    return LayerGraph(len(vertices), tuple(sorted(edges)))


def _adjacency_matrix(graph: LayerGraph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix, n x n float64."""
    adj = np.zeros((graph.n, graph.n))
    if graph.edges:
        a, b = np.array(graph.edges).T
        adj[a, b] = adj[b, a] = 1
    return adj


def _twice_fill(adj: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """2 x (non-adjacent pairs in N(v)) for each v in `rows`: d(d-1) - 2|E(N(v))|.

    Every count is an integer far below 2**53, so float64 holds it exactly.
    """
    sub = adj[rows]
    deg = sub.sum(axis=1)
    return deg * (deg - 1) - ((sub @ adj) * sub).sum(axis=1)


def min_fill_width(graph: LayerGraph) -> Tuple[int, EliminationOrder]:
    """Treewidth upper bound: eliminate the vertex needing fewest fill edges.

    Ties go to the lowest vertex index; the width is the largest neighborhood
    met at elimination time.  The graph is held as a dense n x n float64
    matrix (O(n^2) memory).  Eliminating v only changes the fill of N(v) and
    of the neighbours of N(v), so only those rows are recounted.
    """
    adj = _adjacency_matrix(graph)
    fill = _twice_fill(adj, np.arange(graph.n))
    order: List[int] = []
    width = 0
    for _ in range(graph.n):
        v = int(np.argmin(fill))  # first minimum = lowest index among ties
        nbrs = np.flatnonzero(adj[v])
        width = max(width, len(nbrs))
        adj[np.ix_(nbrs, nbrs)] = 1.0
        adj[nbrs, nbrs] = 0.0
        adj[v, :] = adj[:, v] = 0.0
        fill[v] = np.inf
        order.append(v)
        if len(nbrs):
            touched = adj[nbrs].any(axis=0)  # adj is symmetric
            touched[nbrs] = True
            rows = np.flatnonzero(touched)
            fill[rows] = _twice_fill(adj, rows)
    return width, EliminationOrder(tuple(order), width)


def degeneracy(graph: LayerGraph) -> int:
    """Treewidth lower bound: max over the peel order of the min residual degree."""
    adj = _adjacency_matrix(graph)
    deg = adj.sum(axis=1)  # live degree; inf once peeled, so decrements leave it inf
    result = 0
    for _ in range(graph.n):
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
    return LayerGraph(n, tuple(sorted(edges)))


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
                width, _ = min_fill_width(g)
                rows.append({
                    "n": n, "trial": trial,
                    "layers": 1 if label == "single" else L,
                    "edges": len(g.edges),
                    "degeneracy_lb": degeneracy(g),
                    "minfill_ub": width,
                })
    return rows
