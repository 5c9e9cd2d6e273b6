"""Atoms: the on-disk representation of the distributed graph (Sec. 4.1).

The data graph is over-partitioned into ``k ≫ #machines`` parts called
*atoms*. Each atom is a binary, compressed journal of graph-generating
commands (``AddVertex``, ``AddEdge``) plus *ghost* information: the
vertices and edges adjacent to the partition boundary. An *atom index*
stores the meta-graph — one vertex per atom, edges weighted by the
number of cross-atom graph edges — which is what the master partitions
over the physical machines at load time. Two-phase partitioning means
the expensive graph cut is computed once and reused for any cluster
size.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Tuple

import numpy as np

from repro.core.graph import DataGraph, VertexId
from repro.distributed.models import DataSizeModel
from repro.errors import AtomFormatError, PartitionError

#: Journal command opcodes.
ADD_VERTEX = "AddVertex"
ADD_EDGE = "AddEdge"

#: Fixed journal overhead per command (opcode + ids + framing).
COMMAND_OVERHEAD_BYTES = 12.0


@dataclass(frozen=True)
class AtomCommand:
    """One journal entry: ``AddVertex(vid, data)`` or
    ``AddEdge(src -> dst, data)``."""

    op: str
    args: Tuple
    data: object = None


@dataclass
class Atom:
    """One partition's journal file.

    Attributes
    ----------
    atom_id:
        Dense id in ``[0, k)``.
    commands:
        The journal: vertex commands strictly before edge commands, as
        playback requires endpoints to exist.
    owned_vertices:
        Vertices whose *primary* copy this atom holds.
    ghost_vertices:
        Boundary vertices owned by other atoms but adjacent to this one
        (instantiated as caches at load time).
    size_bytes:
        Modeled on-DFS file size (from the experiment's
        :class:`DataSizeModel`), used to charge ingress I/O.
    """

    atom_id: int
    commands: List[AtomCommand] = field(default_factory=list)
    owned_vertices: FrozenSet[VertexId] = frozenset()
    ghost_vertices: FrozenSet[VertexId] = frozenset()
    size_bytes: float = 0.0

    def encode(self) -> bytes:
        """Serialize to the on-disk format (compressed binary journal)."""
        raw = pickle.dumps(
            (
                self.atom_id,
                [(c.op, c.args, c.data) for c in self.commands],
                sorted(self.owned_vertices, key=repr),
                sorted(self.ghost_vertices, key=repr),
                self.size_bytes,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return zlib.compress(raw, level=6)

    @classmethod
    def decode(cls, blob: bytes) -> "Atom":
        """Parse an encoded atom; raises :class:`AtomFormatError` on
        corruption."""
        try:
            atom_id, commands, owned, ghosts, size_bytes = pickle.loads(
                zlib.decompress(blob)
            )
        except Exception as exc:
            raise AtomFormatError(f"corrupt atom file: {exc}") from exc
        return cls(
            atom_id=atom_id,
            commands=[AtomCommand(op, tuple(args), data) for op, args, data in commands],
            owned_vertices=frozenset(owned),
            ghost_vertices=frozenset(ghosts),
            size_bytes=size_bytes,
        )


@dataclass
class AtomIndex:
    """The meta-graph over atoms (the *atom index file*).

    ``connectivity[(a, b)]`` (with ``a < b``) counts graph edges crossing
    between atoms ``a`` and ``b``; ``vertex_counts[a]`` and
    ``sizes[a]`` describe atom weight for balanced placement.
    """

    num_atoms: int
    vertex_counts: Dict[int, int]
    sizes: Dict[int, float]
    connectivity: Dict[Tuple[int, int], int]

    def place(self, num_machines: int) -> Dict[int, int]:
        """Balanced placement of atoms onto machines.

        Greedy heaviest-first bin packing by vertex count, with a
        connectivity bonus pulling an atom toward machines already
        holding its meta-neighbors. Fast (the point of two-phase
        partitioning) and balanced within one atom's weight.
        """
        if num_machines < 1:
            raise PartitionError("need at least one machine")
        neighbors: Dict[int, Dict[int, int]] = {
            a: {} for a in range(self.num_atoms)
        }
        for (a, b), weight in self.connectivity.items():
            neighbors[a][b] = weight
            neighbors[b][a] = weight
        order = sorted(
            range(self.num_atoms),
            key=lambda a: -self.vertex_counts.get(a, 0),
        )
        load = [0.0] * num_machines
        placement: Dict[int, int] = {}
        mean_load = (
            sum(self.vertex_counts.values()) / num_machines
            if self.vertex_counts
            else 0.0
        )
        for atom in order:
            affinity = [0.0] * num_machines
            for peer, weight in neighbors[atom].items():
                if peer in placement:
                    affinity[placement[peer]] += weight
            best = min(
                range(num_machines),
                key=lambda m: (
                    load[m] + self.vertex_counts.get(atom, 0) > mean_load * 1.1,
                    -affinity[m],
                    load[m],
                    m,
                ),
            )
            placement[atom] = best
            load[best] += self.vertex_counts.get(atom, 0)
        return placement


def build_atoms(
    graph: DataGraph,
    assignment: Mapping[VertexId, int],
    num_atoms: int,
    sizes: DataSizeModel = DataSizeModel(),
) -> Tuple[List[Atom], AtomIndex]:
    """Split a finalized graph into atom journals plus the atom index.

    ``assignment`` maps every vertex to an atom in ``[0, num_atoms)``
    (produced by :mod:`repro.distributed.partition`). Each directed edge
    is journaled in the atom of its *source*; ghost vertex commands are
    appended for boundary vertices so playback can instantiate caches.
    """
    atom_of = assignment_array(graph, assignment, num_atoms)
    index = atom_index(graph, atom_of, num_atoms, sizes)
    return atom_journals(graph, atom_of, index), index


def assignment_array(
    graph: DataGraph, assignment: Mapping[VertexId, int], num_atoms: int
) -> np.ndarray:
    """Validate ``assignment`` and return it in dense vertex-index order."""
    graph.require_finalized()
    missing = [v for v in graph.vertices() if v not in assignment]
    if missing:
        raise PartitionError(
            f"assignment misses {len(missing)} vertices "
            f"(first: {missing[0]!r})"
        )
    bad = [a for a in assignment.values() if not 0 <= a < num_atoms]
    if bad:
        raise PartitionError(
            f"atom id {bad[0]} outside [0, {num_atoms})"
        )
    return graph.compiled.dense_map(assignment)


def _cut_edges(graph: DataGraph, atom_of: np.ndarray):
    """Endpoint indices and atoms of the edges crossing atoms."""
    csr = graph.compiled
    src, dst = csr.edge_src_index, csr.edge_dst_index
    src_atom, dst_atom = atom_of[src], atom_of[dst]
    cut = src_atom != dst_atom
    return src[cut], dst[cut], src_atom[cut], dst_atom[cut]


def atom_index(
    graph: DataGraph,
    atom_of: np.ndarray,
    num_atoms: int,
    sizes: DataSizeModel = DataSizeModel(),
) -> AtomIndex:
    """The atom index of a dense vertex -> atom array.

    Computed from the compiled endpoint arrays alone: vertex counts by
    ``bincount``, cross-atom connectivity by counting unique
    ``(min, max)`` atom pairs over cut edges, and each atom's modeled
    journal size (owned vertices, structural ghost entries, and the
    out-edges of owned vertices, each plus the per-command overhead).
    """
    csr = graph.compiled
    num_vertices = len(csr.vertex_ids)
    src, dst, src_atom, dst_atom = _cut_edges(graph, atom_of)
    pairs, weights = np.unique(
        np.minimum(src_atom, dst_atom) * num_atoms
        + np.maximum(src_atom, dst_atom),
        return_counts=True,
    )
    connectivity = {
        (a, b): w
        for a, b, w in zip(
            (pairs // num_atoms).tolist(),
            (pairs % num_atoms).tolist(),
            weights.tolist(),
        )
    }
    # A ghost is a distinct (atom, foreign endpoint) pair.
    ghost_keys = np.unique(
        np.concatenate(
            (src_atom * num_vertices + dst, dst_atom * num_vertices + src)
        )
    )
    ghost_counts = np.bincount(
        ghost_keys // max(num_vertices, 1), minlength=num_atoms
    )
    if callable(sizes.vertex_bytes):
        vertex_bytes = np.fromiter(
            (sizes.vbytes(v) for v in csr.vertex_ids),
            dtype=np.float64,
            count=num_vertices,
        )
    else:
        vertex_bytes = np.full(num_vertices, sizes.vbytes(None))
    if callable(sizes.edge_bytes):
        edge_bytes = np.fromiter(
            (sizes.ebytes(s, d) for s, d in csr.edge_keys),
            dtype=np.float64,
            count=len(csr.edge_keys),
        )
    else:
        edge_bytes = np.full(len(csr.edge_keys), sizes.ebytes(None, None))
    size = (
        np.bincount(
            atom_of,
            weights=vertex_bytes + COMMAND_OVERHEAD_BYTES,
            minlength=num_atoms,
        )
        + COMMAND_OVERHEAD_BYTES * ghost_counts
        + np.bincount(
            atom_of[csr.edge_src_index],
            weights=edge_bytes + COMMAND_OVERHEAD_BYTES,
            minlength=num_atoms,
        )
    )
    counts = np.bincount(atom_of, minlength=num_atoms)
    return AtomIndex(
        num_atoms=num_atoms,
        vertex_counts=dict(enumerate(counts.tolist())),
        sizes=dict(enumerate(size.tolist())),
        connectivity=connectivity,
    )


def atom_journals(
    graph: DataGraph, atom_of: np.ndarray, index: AtomIndex
) -> List[Atom]:
    """The journal of every atom, sized by ``index``.

    Per atom: ``AddVertex`` for owned vertices (with data, in vertex
    order), structural ``AddVertex`` for ghosts (no data; the cache is
    filled during ingress synchronization), then ``AddEdge`` for the
    out-edges of owned vertices.
    """
    csr = graph.compiled
    vertex_ids = csr.vertex_ids
    num_atoms = index.num_atoms
    owned: List[List[int]] = [[] for _ in range(num_atoms)]
    for i, atom_id in enumerate(atom_of.tolist()):
        owned[atom_id].append(i)
    ghosts: List[set] = [set() for _ in range(num_atoms)]
    src, dst, src_atom, dst_atom = _cut_edges(graph, atom_of)
    for s, d, a, b in zip(
        src.tolist(), dst.tolist(), src_atom.tolist(), dst_atom.tolist()
    ):
        ghosts[a].add(vertex_ids[d])
        ghosts[b].add(vertex_ids[s])
    out_offsets = csr.out_offsets.tolist()
    out_targets = csr.out_targets.tolist()
    atoms: List[Atom] = []
    for atom_id in range(num_atoms):
        members = [vertex_ids[i] for i in owned[atom_id]]
        commands = [
            AtomCommand(ADD_VERTEX, (v,), csr.vertex_data(v)) for v in members
        ]
        commands.extend(
            AtomCommand(ADD_VERTEX, (v,), None)
            for v in sorted(ghosts[atom_id], key=repr)
        )
        for i in owned[atom_id]:
            v = vertex_ids[i]
            for j in out_targets[out_offsets[i]:out_offsets[i + 1]]:
                w = vertex_ids[j]
                commands.append(
                    AtomCommand(ADD_EDGE, (v, w), csr.edge_data(v, w))
                )
        atoms.append(
            Atom(
                atom_id=atom_id,
                commands=commands,
                owned_vertices=frozenset(members),
                ghost_vertices=frozenset(ghosts[atom_id]),
                size_bytes=index.sizes[atom_id],
            )
        )
    return atoms
