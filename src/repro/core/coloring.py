"""Graph coloring for the chromatic engine (paper Sec. 4.2.1).

A vertex coloring with no two adjacent vertices sharing a color lets the
chromatic engine execute all same-color vertices in parallel while
satisfying the *edge* consistency model. The other models map to
colorings too:

* **full** consistency — a *second-order* coloring (no vertex shares a
  color with any distance-2 neighbor);
* **vertex** consistency — the trivial single-color assignment.

Optimal coloring is NP-hard; the paper uses greedy heuristics and notes
that many MLDM graphs color trivially (bipartite graphs are 2-colorable,
grids 2-colorable, template models color by template). All of those are
provided here.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import undirected_plan
from repro.errors import ColoringError

Coloring = Dict[VertexId, int]


def greedy_coloring(
    graph: DataGraph,
    order: str = "degree",
) -> Coloring:
    """First-fit greedy coloring.

    ``order`` selects the vertex visiting order: ``"degree"`` (largest
    degree first — the classic Welsh-Powell heuristic, usually fewest
    colors) or ``"natural"`` (insertion order — deterministic and cheap).
    The returned dict lists vertices in visiting order.
    """
    if order not in ("degree", "natural"):
        raise ColoringError(f"unknown coloring order {order!r}")
    vertex_ids, adjacency = _adjacency(graph)
    visit = (
        _degree_order(vertex_ids, adjacency)
        if order == "degree"
        else range(len(vertex_ids))
    )
    # -1 marks "not yet colored"; it never collides with a real color.
    color = [-1] * len(vertex_ids)
    for i in visit:
        color[i] = _first_free(set(map(color.__getitem__, adjacency[i])))
    return {vertex_ids[i]: color[i] for i in visit}


def second_order_coloring(graph: DataGraph) -> Coloring:
    """Greedy coloring of the square of the graph (for full consistency).

    No vertex shares a color with any vertex within two hops, so scopes of
    same-color vertices never overlap at all (Fig. 2c, top row).
    """
    vertex_ids, adjacency = _adjacency(graph)
    visit = _degree_order(vertex_ids, adjacency)
    color = [-1] * len(vertex_ids)
    for i in visit:
        # The two-hop walk passes back through i itself, which is still
        # uncolored (-1) and so never blocks a color.
        taken = set()
        for j in adjacency[i]:
            taken.add(color[j])
            taken.update(map(color.__getitem__, adjacency[j]))
        color[i] = _first_free(taken)
    return {vertex_ids[i]: color[i] for i in visit}


def _adjacency(graph: DataGraph) -> Tuple[Tuple[VertexId, ...], List[List[int]]]:
    """Vertex ids and per-vertex undirected neighbor index lists.

    Read from the deduplicated undirected CSR the batch kernels share
    (built from the compiled endpoint arrays and memoized on the
    structure), so coloring never materializes the interpreter views.
    """
    graph.require_finalized()
    csr = graph.compiled
    offsets, targets = undirected_plan(csr)
    flat = targets.tolist()
    bounds = offsets.tolist()
    adjacency = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    return csr.vertex_ids, adjacency


def _degree_order(
    vertex_ids: Tuple[VertexId, ...], adjacency: List[List[int]]
) -> List[int]:
    """Dense indices by descending degree, ties by :func:`_sort_token`."""
    return sorted(
        range(len(vertex_ids)),
        key=lambda i: (-len(adjacency[i]), _sort_token(vertex_ids[i])),
    )


def _first_free(taken: Set[int]) -> int:
    """Smallest non-negative color not in ``taken``."""
    color = 0
    while color in taken:
        color += 1
    return color


def bipartite_coloring(
    graph: DataGraph, side_fn: Optional[Callable[[VertexId], int]] = None
) -> Coloring:
    """2-coloring of a bipartite graph.

    If ``side_fn`` is given it must map each vertex to 0 or 1 (e.g. "is
    this a user or a movie vertex") — the trivial colorings the paper says
    many MLDM problems admit. Otherwise the bipartition is discovered by
    BFS; a non-bipartite graph raises :class:`ColoringError`.
    """
    if side_fn is not None:
        colors = {}
        for v in graph.vertices():
            side = side_fn(v)
            if side not in (0, 1):
                raise ColoringError(
                    f"side_fn must return 0 or 1, got {side!r} for {v!r}"
                )
            colors[v] = side
        validate_coloring(graph, colors, Consistency.EDGE)
        return colors
    colors: Coloring = {}
    for root in graph.vertices():
        if root in colors:
            continue
        colors[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in graph.neighbors(v):
                if u not in colors:
                    colors[u] = 1 - colors[v]
                    queue.append(u)
                elif colors[u] == colors[v]:
                    raise ColoringError(
                        "graph is not bipartite: odd cycle through "
                        f"{v!r} - {u!r}"
                    )
    return colors


def constant_coloring(graph: DataGraph) -> Coloring:
    """All vertices the same color (vertex consistency; maximum overlap)."""
    return {v: 0 for v in graph.vertices()}


def coloring_for(
    graph: DataGraph,
    model: Consistency,
    coloring: Optional[Coloring] = None,
) -> Coloring:
    """Produce (or validate) a coloring adequate for ``model``.

    A user-supplied ``coloring`` is validated against the model; otherwise
    the appropriate heuristic runs: greedy for edge consistency, greedy
    second-order for full consistency, constant for vertex consistency.
    """
    if coloring is not None:
        validate_coloring(graph, coloring, model)
        return dict(coloring)
    if model is Consistency.VERTEX:
        return constant_coloring(graph)
    if model is Consistency.EDGE:
        return greedy_coloring(graph)
    return second_order_coloring(graph)


def validate_coloring(
    graph: DataGraph, coloring: Coloring, model: Consistency
) -> None:
    """Raise :class:`ColoringError` unless ``coloring`` satisfies ``model``.

    Edge consistency requires a proper coloring; full consistency a
    second-order coloring; vertex consistency accepts anything covering
    all vertices. The checks are vectorized over the compiled endpoint
    arrays: an edge's endpoints must differ in color, and under full
    consistency every closed neighborhood ``{v} ∪ N(v)`` must be
    rainbow — two vertices are within distance 2 iff some closed
    neighborhood holds both.
    """
    graph.require_finalized()
    missing = [v for v in graph.vertices() if v not in coloring]
    if missing:
        raise ColoringError(
            f"coloring misses {len(missing)} vertices (first: {missing[0]!r})"
        )
    if model is Consistency.VERTEX:
        return
    csr = graph.compiled
    vertex_ids = csr.vertex_ids
    # Dense codes keep the check exact for any hashable color values.
    codes: Dict[Any, int] = {}
    color = np.fromiter(
        (codes.setdefault(coloring[v], len(codes)) for v in vertex_ids),
        dtype=np.int64,
        count=len(vertex_ids),
    )
    clash = np.flatnonzero(
        color[csr.edge_src_index] == color[csr.edge_dst_index]
    )
    if clash.size:
        v, u = csr.edge_keys[clash[0]]
        raise ColoringError(
            f"adjacent vertices {v!r}, {u!r} share color {coloring[v]}"
        )
    if model is not Consistency.FULL:
        return
    # No edge is monochromatic (so no self-loop survives to here): any
    # repeated color in a closed neighborhood is a distance-2 pair.
    offsets, targets = undirected_plan(csr)
    everyone = np.arange(len(vertex_ids))
    hood = np.concatenate((everyone, np.repeat(everyone, np.diff(offsets))))
    member = np.concatenate((everyone, targets))
    order = np.lexsort((color[member], hood))
    hood, member = hood[order], member[order]
    clash = np.flatnonzero(
        (hood[1:] == hood[:-1]) & (color[member[1:]] == color[member[:-1]])
    )
    if clash.size:
        v = vertex_ids[member[clash[0]]]
        w = vertex_ids[member[clash[0] + 1]]
        raise ColoringError(
            f"distance-2 vertices {v!r}, {w!r} share color "
            f"{coloring[v]} (full consistency needs a "
            "second-order coloring)"
        )


def color_classes(coloring: Coloring) -> List[List[VertexId]]:
    """Group vertices by color, ordered by color index.

    The chromatic engine iterates these classes as its color-steps.
    """
    if not coloring:
        return []
    classes: Dict[int, List[VertexId]] = {}
    for v, c in coloring.items():
        classes.setdefault(c, []).append(v)
    return [classes[c] for c in sorted(classes)]


def num_colors(coloring: Coloring) -> int:
    """Number of distinct colors used."""
    return len(set(coloring.values())) if coloring else 0


# ----------------------------------------------------------------------
# Merge-compatibility analysis (color-merged rounds, runtime backend).
# ----------------------------------------------------------------------
def model_distance(model: Consistency) -> int:
    """Graph distance at which two scopes become order-dependent.

    Under vertex/edge consistency an update writes at most its own
    vertex datum and adjacent edges, so two updates commute whenever
    their vertices are non-adjacent (distance 1 apart is enough to
    conflict). Under full consistency ``set_neighbor`` writes neighbor
    vertex data, so commuting needs distance > 2 — exactly the
    second-order-coloring requirement of Sec. 4.2.1.
    """
    return 2 if model is Consistency.FULL else 1


def merge_compatible_matrix(
    graph: DataGraph, classes: List[List[VertexId]], model: Consistency
) -> np.ndarray:
    """Pairwise static merge compatibility of whole color classes.

    ``compat[a, b]`` is true when *no* pair of vertices drawn from
    classes ``a`` and ``b`` is within :func:`model_distance` of each
    other — so the two classes' scheduled frontiers can never touch and
    a merged round needs no per-sweep adjacency check. Computed in a
    few vectorized passes over the compiled CSR endpoint arrays: for
    edge/vertex consistency one scatter of per-edge color pairs; for
    full consistency a closed-neighborhood color *bitmask* pass (two
    classes conflict iff some closed neighborhood contains both colors
    — the exact distance-2 criterion). Colorings wider than 64 colors
    skip the full-consistency bitmask and report no static
    compatibility (the dynamic frontier checks still apply).

    The diagonal is always false: merging a class with itself is
    meaningless.
    """
    csr = graph.compiled
    count = len(classes)
    compat = np.ones((count, count), dtype=bool)
    np.fill_diagonal(compat, False)
    if count < 2 or csr is None:
        return compat
    index_of = csr.index_of
    color = np.zeros(len(csr.vertex_ids), dtype=np.int64)
    for tag, members in enumerate(classes):
        for v in members:
            color[index_of[v]] = tag
    src, dst = csr.edge_src_index, csr.edge_dst_index
    if model is not Consistency.FULL:
        compat[color[src], color[dst]] = False
        compat[color[dst], color[src]] = False
        return compat
    if count > 64:
        compat[:] = False
        np.fill_diagonal(compat, False)
        return compat
    bit = np.uint64(1) << color.astype(np.uint64)
    nbr = bit.copy()
    np.bitwise_or.at(nbr, src, bit[dst])
    np.bitwise_or.at(nbr, dst, bit[src])
    one = np.uint64(1)
    for a in range(count):
        rows = (nbr >> np.uint64(a)) & one
        sel = nbr[rows.astype(bool)]
        if not sel.size:
            continue
        present = np.bitwise_or.reduce(sel)
        for b in range(count):
            if (present >> np.uint64(b)) & one:
                compat[a, b] = False
                compat[b, a] = False
    return compat


def closed_neighborhood_mask(csr, mask: np.ndarray) -> np.ndarray:
    """Boolean mask of ``N[mask]`` via one pass over the endpoints."""
    out = mask.copy()
    src, dst = csr.edge_src_index, csr.edge_dst_index
    out[dst[mask[src]]] = True
    out[src[mask[dst]]] = True
    return out


def frontiers_independent(
    csr,
    mask_a: np.ndarray,
    mask_b: np.ndarray,
    distance: int,
    edge_mask: Optional[np.ndarray] = None,
) -> bool:
    """Whether two frontier masks are mutually ``distance``-independent.

    ``distance == 1``: no edge joins the two sets (one vectorized pass
    over the endpoint arrays). ``distance == 2``: the closed
    neighborhoods must be disjoint — ``dist(u, w) <= 2`` iff some vertex
    lies in both ``N[u]`` and ``N[w]``.

    ``edge_mask`` (distance 1 only) restricts which edges count as
    conflicts. The runtime engine passes its cross-worker edge mask:
    within one worker the merged colors execute *in color order* with
    late frontier snapshots, exactly like the sequential oracle, so
    same-worker adjacency between merged frontiers cannot diverge —
    only an edge whose endpoints execute on different workers (where
    neither side sees the other's intra-round writes) breaks the merge.
    """
    if distance <= 1:
        src, dst = csr.edge_src_index, csr.edge_dst_index
        conflicts = (mask_a[src] & mask_b[dst]) | (mask_b[src] & mask_a[dst])
        if edge_mask is not None:
            conflicts = conflicts & edge_mask
        return not conflicts.any()
    return not (
        closed_neighborhood_mask(csr, mask_a)
        & closed_neighborhood_mask(csr, mask_b)
    ).any()


def _sort_token(v: VertexId):
    """Stable cross-type sort key for vertex ids (ints before tuples...)."""
    return (str(type(v)), repr(v))
