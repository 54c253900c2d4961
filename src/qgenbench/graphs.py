"""Interaction-graph extraction and treewidth bracketing.

Exact treewidth is NP-hard, so we bracket it: graph degeneracy from below and
the min-fill elimination heuristic from above.  Both are deterministic (ties
broken by lowest vertex index) and monotone under edge addition, which is all
the contraction-hardness trend studies need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

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


def _bit_adjacency(graph: LayerGraph) -> List[int]:
    """Adjacency as one bitmask per vertex (fast fill-in counting)."""
    adj = [0] * graph.n
    for a, b in graph.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def min_fill_width(graph: LayerGraph) -> Tuple[int, EliminationOrder]:
    """Treewidth upper bound: eliminate the vertex needing fewest fill edges.

    Ties go to the lowest vertex index; the width is the largest neighborhood
    met at elimination time.
    """
    adj = _bit_adjacency(graph)
    alive = (1 << graph.n) - 1
    order: List[int] = []
    width = 0
    while alive:
        best_v, best_fill = -1, None
        for v in _iter_bits(alive):
            nbrs = adj[v]
            fill = 0
            for a in _iter_bits(nbrs):
                fill += (nbrs & ~adj[a] & ~(1 << a)).bit_count()
            fill //= 2
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
            if fill == 0:
                break  # scanning in ascending order, 0 cannot be beaten
        nbrs = adj[best_v]
        width = max(width, nbrs.bit_count())
        vbit = 1 << best_v
        for a in _iter_bits(nbrs):
            adj[a] = (adj[a] | (nbrs & ~(1 << a))) & ~vbit
        adj[best_v] = 0
        alive &= ~vbit
        order.append(best_v)
    return width, EliminationOrder(tuple(order), width)


def degeneracy(graph: LayerGraph) -> int:
    """Treewidth lower bound: max over the peel order of the min residual degree."""
    adj = _bit_adjacency(graph)
    alive = (1 << graph.n) - 1
    result = 0
    while alive:
        v = min(_iter_bits(alive), key=lambda u: (adj[u].bit_count(), u))
        result = max(result, adj[v].bit_count())
        vbit = 1 << v
        for u in _iter_bits(adj[v]):
            adj[u] &= ~vbit
        adj[v] = 0
        alive &= ~vbit
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
