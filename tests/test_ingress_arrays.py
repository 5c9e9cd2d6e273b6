"""Array-native ingress: coloring, coloring validation, atom placement.

Greedy coloring, :func:`validate_coloring`, and :func:`plan_ownership`
run on the compiled CSR endpoint arrays. These tests pin them to
reference implementations written against the interpreter views
(``graph.neighbors`` / journal playback), which is how they were
computed before: same colors in the same dict order, same ownership,
same atom index. The last test guards that constructing a chromatic
engine on a typed graph never materializes the interpreter views.
"""

import random

import pytest

from repro.apps.pagerank import make_pagerank_update
from repro.core import (
    Consistency,
    greedy_coloring,
    second_order_coloring,
    validate_coloring,
)
from repro.core.coloring import _sort_token
from repro.core.csr import CSRGraph
from repro.core.graph import DataGraph
from repro.datasets.webgraph import power_law_web_graph
from repro.distributed import build_atoms
from repro.distributed.atom import (
    ADD_EDGE,
    ADD_VERTEX,
    COMMAND_OVERHEAD_BYTES,
)
from repro.distributed.deploy import plan_ownership
from repro.distributed.ingress import ownership_from_placement
from repro.distributed.models import DataSizeModel
from repro.distributed.partition import bfs_assignment, random_hash_assignment
from repro.errors import ColoringError
from repro.runtime import RuntimeChromaticEngine, UpdateProgram

from tests.helpers import graph_from_edges


# ----------------------------------------------------------------------
# Reference first-fit colorings over the interpreter views.
# ----------------------------------------------------------------------
def reference_greedy(graph, order="degree"):
    if order == "degree":
        vertices = sorted(
            graph.vertices(), key=lambda v: (-graph.degree(v), _sort_token(v))
        )
    else:
        vertices = list(graph.vertices())
    colors = {}
    for v in vertices:
        taken = {colors[u] for u in graph.neighbors(v) if u in colors}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


def reference_second_order(graph):
    vertices = sorted(
        graph.vertices(), key=lambda v: (-graph.degree(v), _sort_token(v))
    )
    colors = {}
    for v in vertices:
        taken = set()
        for u in graph.neighbors(v):
            if u in colors:
                taken.add(colors[u])
            for w in graph.neighbors(u):
                if w != v and w in colors:
                    taken.add(colors[w])
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


# ----------------------------------------------------------------------
# Seeded graphs: reciprocal edges, isolated vertices, mixed id types.
# ----------------------------------------------------------------------
ID_KINDS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, i),
    "mixed": lambda i: (i, f"v{i}", (i, -i))[i % 3],
}


def _random_structure(seed, name):
    """Vertex ids and directed edges of a seeded random graph."""
    rng = random.Random(seed)
    make_id = ID_KINDS[name]
    n = rng.randint(1, 40)
    ids = [make_id(i) for i in range(n)]
    rng.shuffle(ids)
    isolated = set(rng.sample(range(n), k=min(n, rng.randint(0, 3))))
    edges = []
    seen = set()
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or a in isolated or b in isolated or (a, b) in seen:
            continue
        seen.add((a, b))
        edges.append((ids[a], ids[b]))
        if rng.random() < 0.3 and (b, a) not in seen:
            # Reciprocal pair: both directions join the same two vertices.
            seen.add((b, a))
            edges.append((ids[b], ids[a]))
    return ids, edges


def random_graph(seed, name):
    ids, edges = _random_structure(seed, name)
    g = DataGraph()
    for v in ids:
        g.add_vertex(v, data=0.0)
    for u, w in edges:
        g.add_edge(u, w, data=1.0)
    return g.finalize()


def graph_with_self_loops(seed):
    """A compiled graph carrying self-loops.

    ``DataGraph.add_edge`` rejects self-loops, so the loops go straight
    into the compiled form — the array path must still treat ``v`` as a
    (single) member of its own neighborhood, like the views do.
    """
    ids, edges = _random_structure(seed, "int")
    rng = random.Random(seed + 1)
    loops = [(v, v) for v in ids if rng.random() < 0.3]
    out = {v: [] for v in ids}
    in_ = {v: [] for v in ids}
    edata = {}
    for u, w in edges + loops:
        out[u].append(w)
        in_[w].append(u)
        edata[(u, w)] = 1.0
    g = DataGraph()
    g._vdata = g._edata = g._out = g._in = None
    g._csr = CSRGraph.build({v: 0.0 for v in ids}, edata, out, in_)
    g._finalized = True
    return g


SEEDS = range(12)


def _assert_same_coloring(actual, expected):
    assert actual == expected
    assert list(actual) == list(expected)


class TestColoringMatchesReference:
    @pytest.mark.parametrize("name", sorted(ID_KINDS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("order", ["degree", "natural"])
    def test_greedy(self, seed, name, order):
        g = random_graph(seed, name)
        _assert_same_coloring(
            greedy_coloring(g, order=order), reference_greedy(g, order)
        )

    @pytest.mark.parametrize("name", sorted(ID_KINDS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_second_order(self, seed, name):
        g = random_graph(seed, name)
        _assert_same_coloring(
            second_order_coloring(g), reference_second_order(g)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_self_loops(self, seed):
        g = graph_with_self_loops(seed)
        for order in ("degree", "natural"):
            _assert_same_coloring(
                greedy_coloring(g, order=order), reference_greedy(g, order)
            )
        _assert_same_coloring(
            second_order_coloring(g), reference_second_order(g)
        )

    def test_web_graph(self):
        g = power_law_web_graph(400, out_degree=4, seed=3, typed=True)
        _assert_same_coloring(greedy_coloring(g), reference_greedy(g))
        _assert_same_coloring(
            second_order_coloring(g), reference_second_order(g)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_colorings_validate(self, seed):
        g = random_graph(seed, "mixed")
        validate_coloring(g, greedy_coloring(g), Consistency.EDGE)
        validate_coloring(g, second_order_coloring(g), Consistency.FULL)


class TestValidateColoringRejects:
    def test_vertex_names_missing_vertex(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        with pytest.raises(ColoringError, match=r"misses 1 vertices \(first: 2\)"):
            validate_coloring(g, {0: 0, 1: 0}, Consistency.VERTEX)

    def test_edge_names_adjacent_pair(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        coloring = {"a": 0, "b": 1, "c": 1, "d": 0}
        with pytest.raises(
            ColoringError, match=r"adjacent vertices 'b', 'c' share color 1"
        ):
            validate_coloring(g, coloring, Consistency.EDGE)

    def test_full_names_distance_two_pair(self):
        g = graph_from_edges([("a", "b"), ("c", "b"), ("c", "d")])
        coloring = {"a": 0, "b": 1, "c": 0, "d": 2}
        # A proper coloring, so edge consistency accepts it ...
        validate_coloring(g, coloring, Consistency.EDGE)
        # ... but 'a' and 'c' share neighbor 'b'.
        with pytest.raises(
            ColoringError, match=r"distance-2 vertices 'a', 'c' share color 0"
        ):
            validate_coloring(g, coloring, Consistency.FULL)


# ----------------------------------------------------------------------
# Ownership plan vs journal playback.
# ----------------------------------------------------------------------
SIZES = DataSizeModel(vertex_bytes=24.0, edge_bytes=lambda s, d: 8.0)
PARTITIONERS = {"hash": random_hash_assignment, "bfs": bfs_assignment}


def reference_index(graph, atoms, assignment, sizes):
    """Vertex counts, connectivity and sizes read off the journals."""
    counts = {a.atom_id: len(a.owned_vertices) for a in atoms}
    cross = {}
    for u, w in graph.edges():
        au, aw = assignment[u], assignment[w]
        if au != aw:
            key = (min(au, aw), max(au, aw))
            cross[key] = cross.get(key, 0) + 1
    journal_sizes = {}
    for atom in atoms:
        size = 0.0
        for command in atom.commands:
            size += COMMAND_OVERHEAD_BYTES
            if command.op == ADD_EDGE:
                size += sizes.ebytes(*command.args)
            elif command.args[0] in atom.owned_vertices:
                size += sizes.vbytes(command.args[0])
        journal_sizes[atom.atom_id] = size
    return counts, cross, journal_sizes


class TestOwnershipPlan:
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    @pytest.mark.parametrize("machines", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_journal_ownership(self, seed, machines, partitioner):
        g = random_graph(seed, "mixed")
        plan = plan_ownership(
            g, machines, partitioner=partitioner, atoms_per_machine=3,
            sizes=SIZES,
        )
        num_atoms = 3 * machines
        assignment = PARTITIONERS[partitioner](g, num_atoms)
        atoms, index = build_atoms(g, assignment, num_atoms, sizes=SIZES)
        placement = index.place(machines)
        assert plan.placement == placement
        assert plan.owner == ownership_from_placement(atoms, placement)
        assert plan.owner_index.tolist() == [
            plan.owner[v] for v in g.vertices()
        ]
        counts, cross, journal_sizes = reference_index(
            g, atoms, assignment, SIZES
        )
        assert plan.index.vertex_counts == counts
        assert plan.index.connectivity == cross
        assert plan.index.sizes == journal_sizes
        assert {a.atom_id: a.size_bytes for a in atoms} == journal_sizes
        # The lazy journals are the ones build_atoms writes.
        assert [
            (a.atom_id, a.commands, a.owned_vertices, a.ghost_vertices)
            for a in plan.atoms
        ] == [
            (a.atom_id, a.commands, a.owned_vertices, a.ghost_vertices)
            for a in atoms
        ]

    def test_journal_layout(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        atoms, _ = build_atoms(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
        ops = [(c.op, c.args) for c in atoms[0].commands]
        assert ops == [
            (ADD_VERTEX, (0,)),
            (ADD_VERTEX, (1,)),
            (ADD_VERTEX, (2,)),
            (ADD_VERTEX, (3,)),
            (ADD_EDGE, (0, 1)),
            (ADD_EDGE, (1, 2)),
        ]
        assert atoms[0].ghost_vertices == {2, 3}


# ----------------------------------------------------------------------
# Regression guard: coordinator ingress never builds interpreter views.
# ----------------------------------------------------------------------
def test_chromatic_engine_construction_skips_views():
    g = power_law_web_graph(300, out_degree=4, seed=11, typed=True)
    coloring = greedy_coloring(g)
    RuntimeChromaticEngine(
        g,
        UpdateProgram(make_pagerank_update, kwargs={"schedule": "self"}),
        num_workers=2,
        transport="inproc",
        coloring=coloring,
        max_sweeps=2,
    )
    assert g.compiled._views.built is False
