"""Flat snapshot journals on the runtime engines.

A runtime journal is a worker's owned slots as column slices in the
compiled numbering (``v_index``/``v_value``/``v_version`` and
``e_slot``/``e_value``/``e_version``). These tests pin:

* the store's flat gather against its id-keyed ``checkpoint_payload()``
  wrapper, and the flat restore's overwrite/skip/dirty semantics, on
  typed scalar, typed ``(2,)``-shaped and untyped object columns;
* that merged journals of sync snapshots (both engines) and async
  snapshots cover every vertex index and edge slot exactly once;
* that an async snapshot journals rows as they were when marked;
* chromatic kill-recovery bit-identity on typed and untyped graphs;
* that ``resume_from`` refuses a snapshot of another graph or of the
  id-keyed journal format before any restore round.
"""

import numpy as np
import pytest

from repro.apps.pagerank import make_pagerank_update
from repro.core.graph import DataGraph
from repro.datasets.webgraph import power_law_web_graph
from repro.distributed.deploy import plan_ownership
from repro.errors import SnapshotError
from repro.runtime import (
    CheckpointManager,
    CSRShardStore,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    SnapshotDirectory,
    UpdateProgram,
    WorkerFailure,
    merge_journals,
)
from repro.runtime.transport import FAULT_ENV


@pytest.fixture(autouse=True)
def _clear_fault_env(monkeypatch):
    """Every kill here is scheduled explicitly; an ambient REPRO_FAULT
    must not add extras."""
    monkeypatch.delenv(FAULT_ENV, raising=False)


PAGERANK = UpdateProgram(
    make_pagerank_update, kwargs={"schedule": "out", "epsilon": 1e-4}
)

KINDS = ("scalar", "pair", "object")


def _value(kind, i):
    if kind == "scalar":
        return float(i) + 0.5
    if kind == "pair":
        return [float(i), -float(i)]
    return ("obj", i)


def small_graph(kind, n=24):
    """A ring with chords; data columns typed scalar, typed ``(2,)``
    rows, or untyped object values."""
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=_value(kind, i))
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {(i, (i * 7 + 3) % n) for i in range(0, n, 3)}
    for (a, b) in sorted(edges):
        if a != b:
            g.add_edge(a, b, data=_value(kind, 1000 + a * n + b))
    if kind == "scalar":
        return g.finalize(vertex_dtype=np.float64, edge_dtype=np.float64)
    if kind == "pair":
        return g.finalize(
            vertex_dtype=np.float64, edge_dtype=np.float64,
            vertex_shape=(2,), edge_shape=(2,),
        )
    return g.finalize()


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b


def _copy(value):
    return value.copy() if isinstance(value, np.ndarray) else value


def _store(g, machine=0, workers=3):
    plan = plan_ownership(g, workers, partitioner="hash")
    return CSRShardStore(machine, g, plan.owner), plan


def _bump(kind, value):
    """A value different from ``value`` in the same column kind."""
    if kind == "object":
        return ("bumped", value)
    return np.asarray(value) + 100.0


class TestStoreJournal:
    @pytest.mark.parametrize("kind", KINDS)
    def test_flat_journal_equals_id_keyed_wrapper(self, kind):
        g = small_graph(kind)
        store, plan = _store(g)
        csr = g.compiled
        # Some writes, so versions differ from zero.
        for v in store.owned_vertices[::2]:
            store.set_vertex_data(v, _bump(kind, store.vertex_data(v)))
        for (a, b) in g.edges():
            if plan.owner[a] == 0:
                store.set_edge_data(a, b, _bump(kind, store.edge_data(a, b)))
                break
        flat = store.journal_flat()
        payload = store.checkpoint_payload()
        assert flat["v_index"].dtype == np.int32
        assert flat["e_slot"].dtype == np.int32
        owned = [csr.vertex_ids[i] for i in flat["v_index"].tolist()]
        assert owned == list(store.owned_vertices)
        assert all(plan.owner[csr.edge_keys[s][0]] == 0
                   for s in flat["e_slot"].tolist())
        vdata = dict(zip(owned, flat["v_value"]))
        assert set(vdata) == set(payload["vdata"])
        for v, value in vdata.items():
            assert _same(value, payload["vdata"][v])
        edges = [csr.edge_keys[s] for s in flat["e_slot"].tolist()]
        edata = dict(zip(edges, flat["e_value"]))
        assert set(edata) == set(payload["edata"])
        for e, value in edata.items():
            assert _same(value, payload["edata"][e])
        versions = {
            ("v", v): ver
            for v, ver in zip(owned, flat["v_version"].tolist())
        }
        versions.update(
            (("e", a, b), ver)
            for (a, b), ver in zip(edges, flat["e_version"].tolist())
        )
        assert versions == payload["versions"]
        assert any(versions.values())

    @pytest.mark.parametrize("kind", KINDS)
    def test_journal_values_are_detached_from_the_columns(self, kind):
        g = small_graph(kind)
        store, _plan = _store(g)
        flat = store.journal_flat()
        v = store.owned_vertices[0]
        before = _copy(flat["v_value"][0])
        store.set_vertex_data(v, _bump(kind, store.vertex_data(v)))
        assert _same(flat["v_value"][0], before)

    @pytest.mark.parametrize("kind", KINDS)
    def test_restore_overwrites_held_and_skips_unheld(self, kind):
        g = small_graph(kind)
        store, plan = _store(g)
        csr = g.compiled
        vertex_ids, edge_keys = csr.vertex_ids, csr.edge_keys
        # Dirty state the restore must clear.
        for v in store.owned_vertices[:3]:
            store.set_vertex_data(v, _bump(kind, store.vertex_data(v)))
        assert store.dirty_count > 0
        # Copies: a typed (2,) row read is a live view of the column.
        before_v = {v: _copy(store.vertex_data(v)) for v in g.vertices()}
        before_e = {e: _copy(store.edge_data(*e)) for e in g.edges()}
        # A whole-graph state with fresh values and distinct versions.
        V, E = len(vertex_ids), len(edge_keys)
        new_v = [_bump(kind, _bump(kind, _value(kind, i))) for i in range(V)]
        new_e = [_bump(kind, _bump(kind, _value(kind, -s))) for s in range(E)]
        typed = kind != "object"
        state = {
            "v_index": np.arange(V, dtype=np.int32),
            "v_value": np.array(new_v) if typed else new_v,
            "v_version": np.arange(V, dtype=np.int64) + 7,
            "e_slot": np.arange(E, dtype=np.int32),
            "e_value": np.array(new_e) if typed else new_e,
            "e_version": np.arange(E, dtype=np.int64) + 11,
        }
        store.restore_flat(state)
        assert store.dirty_count == 0
        held = [v for v in g.vertices() if store.has_vertex(v)]
        assert set(store.ghost_vertices) and set(store.owned_vertices)
        assert set(held) == (
            set(store.owned_vertices) | set(store.ghost_vertices)
        )
        for i, v in enumerate(vertex_ids):
            if store.has_vertex(v):
                assert _same(store.vertex_data(v), new_v[i])
                assert store.version(("v", v)) == i + 7
            else:
                assert _same(store.vertex_data(v), before_v[v])
        unheld_edges = 0
        for s, (a, b) in enumerate(edge_keys):
            if store.version(("e", a, b)) >= 0:
                assert _same(store.edge_data(a, b), new_e[s])
                assert store.version(("e", a, b)) == s + 11
            else:
                unheld_edges += 1
                assert _same(store.edge_data(a, b), before_e[(a, b)])
        assert unheld_edges > 0

        # The id-keyed wrapper restores the same state.
        other, _ = _store(g)
        payload = {"vdata": {}, "edata": {}, "versions": {}}
        for i, v in enumerate(vertex_ids):
            payload["vdata"][v] = new_v[i]
            payload["versions"][("v", v)] = i + 7
        for s, (a, b) in enumerate(edge_keys):
            payload["edata"][(a, b)] = new_e[s]
            payload["versions"][("e", a, b)] = s + 11
        other.restore_checkpoint(payload)
        for v in vertex_ids:
            assert _same(other.vertex_data(v), store.vertex_data(v))
            assert other.version(("v", v)) == store.version(("v", v))
        for (a, b) in edge_keys:
            assert _same(other.edge_data(a, b), store.edge_data(a, b))
            assert other.version(("e", a, b)) == store.version(("e", a, b))


def _complete(directory, mode=None):
    for sid in directory.snapshot_ids():
        if not directory.is_complete(sid):
            continue
        meta = directory.read_meta(sid)
        if mode is None or meta["mode"] == mode:
            yield sid, meta


def _assert_partition(directory, num_workers, g, mode=None):
    csr = g.compiled
    checked = 0
    for sid, _meta in _complete(directory, mode):
        journals = [
            directory.read_journal(sid, w) for w in range(num_workers)
        ]
        merged = merge_journals(journals)
        assert sorted(merged["v_index"].tolist()) == list(
            range(len(csr.vertex_ids))
        )
        assert sorted(merged["e_slot"].tolist()) == list(
            range(len(csr.edge_keys))
        )
        assert len(merged["v_value"]) == len(csr.vertex_ids)
        assert len(merged["e_value"]) == len(csr.edge_keys)
        checked += 1
    return checked


def flood_max(scope):
    best = scope.data
    for u in scope.neighbors:
        best = max(best, scope.neighbor(u))
    if best != scope.data:
        scope.data = best
        return [(u, best) for u in scope.neighbors]


class TestMergedJournalsPartition:
    @pytest.mark.parametrize("typed", [True, False])
    def test_chromatic_sync(self, tmp_path, typed):
        g = power_law_web_graph(60, out_degree=3, seed=11, typed=typed)
        RuntimeChromaticEngine(
            g, PAGERANK, num_workers=3, transport="inproc",
            max_sweeps=6, snapshot_every=2, snapshot_dir=str(tmp_path),
        ).run(initial=g.vertices())
        assert _assert_partition(SnapshotDirectory(str(tmp_path)), 3, g) >= 3

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_locking(self, tmp_path, mode):
        g = power_law_web_graph(60, out_degree=3, seed=11)
        RuntimeLockingEngine(
            g, PAGERANK, num_workers=3, transport="inproc",
            snapshot_every=2, snapshot_mode=mode,
            snapshot_dir=str(tmp_path),
        ).run(initial=g.vertices())
        directory = SnapshotDirectory(str(tmp_path))
        assert _assert_partition(directory, 3, g, mode=mode) >= 1

    def test_locking_async_object_values(self, tmp_path):
        g = small_graph("object", n=30)
        for v in g.vertices():
            g.set_vertex_data(v, float(v))
        RuntimeLockingEngine(
            g, flood_max, num_workers=2, transport="inproc",
            snapshot_every=1, snapshot_mode="async",
            snapshot_dir=str(tmp_path),
        ).run(initial=g.vertices())
        directory = SnapshotDirectory(str(tmp_path))
        assert _assert_partition(directory, 2, g, mode="async") >= 1


def stamp(scope):
    """Set the ``(2,)`` row to ``[n, n]`` on the n-th update of this
    vertex and reschedule itself, up to 40 updates: every write bumps
    the version by one, so a consistent journal row equals its
    version."""
    n = int(scope.data[0]) + 1
    scope.data = np.array([n, n], dtype=np.float64)
    if n < 40:
        return [scope.vertex]


def stamp_chain(n=30):
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=None)
    for i in range(n - 1):
        g.add_edge(i, i + 1, data=None)
    return g.finalize(vertex_dtype=np.float64, vertex_shape=(2,))


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_journaled_rows_equal_their_versions(tmp_path, mode):
    """Regression: the async snapshot used to journal live views of
    typed rows, so writes after the mark leaked into the cut."""
    g = stamp_chain()
    RuntimeLockingEngine(
        g, stamp, num_workers=2, transport="inproc", snapshot_every=2,
        round_budget=4, snapshot_mode=mode, snapshot_dir=str(tmp_path),
    ).run(initial=g.vertices())
    directory = SnapshotDirectory(str(tmp_path))
    rows = 0
    for sid, _meta in _complete(directory, mode):
        for w in range(2):
            journal = directory.read_journal(sid, w)
            for value, version in zip(
                journal["v_value"], journal["v_version"].tolist()
            ):
                assert value.tolist() == [version, version]
                rows += 1
    assert rows > 0
    assert all(g.vertex_data(v).tolist() == [40, 40] for v in g.vertices())


class TestChromaticRecoveryBitIdentical:
    @pytest.mark.parametrize("typed", [True, False])
    def test_kill_recovery_matches_unkilled(self, typed):
        def run(kill):
            g = power_law_web_graph(80, out_degree=3, seed=5, typed=typed)
            engine = RuntimeChromaticEngine(
                g, PAGERANK, num_workers=3, transport="inproc",
                max_sweeps=12, snapshot_every=3, recovery_backoff=0.0,
            )
            if kill:
                engine.transport.schedule_kill(2, 20)
            result = engine.run(initial=g.vertices())
            vdata = [g.vertex_data(v) for v in g.vertices()]
            edata = [g.edge_data(a, b) for (a, b) in g.edges()]
            return vdata, edata, result

        clean_v, clean_e, clean = run(kill=False)
        got_v, got_e, result = run(kill=True)
        assert result.extra["recoveries"] == 1
        assert [float(x).hex() for x in got_v] == [
            float(x).hex() for x in clean_v
        ]
        assert got_e == clean_e
        assert result.updates_per_vertex == clean.updates_per_vertex


class TestResumeGuard:
    def _crashed_run(self, tmp_path):
        g = power_law_web_graph(60, out_degree=3, seed=11)
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=1,
            snapshot_dir=str(tmp_path), max_recoveries=0,
        )
        engine.transport.schedule_kill(1, 6)
        with pytest.raises(WorkerFailure):
            engine.run(initial=g.vertices())

    def test_resume_on_a_different_graph_raises(self, tmp_path):
        self._crashed_run(tmp_path)
        other = power_law_web_graph(60, out_degree=3, seed=12)
        engine = RuntimeChromaticEngine(
            other, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=1,
        )
        with pytest.raises(SnapshotError, match="different graph structure"):
            engine.run(initial=other.vertices(), resume_from=str(tmp_path))
        assert engine.transport.rounds_completed == 0

    def test_resume_from_an_id_keyed_snapshot_raises(self, tmp_path):
        """A directory in the old per-vertex journal format (no format
        marker in its meta record) is refused, not misrestored."""
        g = power_law_web_graph(60, out_degree=3, seed=11)
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=1,
        )
        owner = engine.owner
        journals = [
            {"vdata": {}, "edata": {}, "versions": {}, "counts": {}}
            for _ in range(2)
        ]
        for v in g.vertices():
            journals[owner[v]]["vdata"][v] = g.vertex_data(v)
            journals[owner[v]]["versions"][("v", v)] = 0
        for (a, b) in g.edges():
            journals[owner[a]]["edata"][(a, b)] = g.edge_data(a, b)
            journals[owner[a]]["versions"][("e", a, b)] = 0
        manager = CheckpointManager(str(tmp_path), 2)
        manager.write(manager.next_id(), journals, {
            "engine": "chromatic", "mode": "sync", "sweeps": 0,
            "total_updates": 0, "updates_per_worker": {},
            "globals": {}, "rounds_saved": 0,
            "mask": np.arange(len(g.compiled.vertex_ids)),
        })
        with pytest.raises(SnapshotError, match="journal format"):
            engine.run(initial=g.vertices(), resume_from=str(tmp_path))
        assert engine.transport.rounds_completed == 0
