"""The coordinator lifecycle contract, identical for both runtime engines.

Both :class:`RuntimeChromaticEngine` and :class:`RuntimeLockingEngine`
inherit one launch / recover / serve / collect lifecycle from
:class:`~repro.runtime.coordinator.RuntimeCoordinator`, so every rule
here is checked on both:

* an engine is single-use across ``run`` and ``open_service``;
* ``resume_from`` needs ``snapshot_every``;
* ``close_service`` needs an open service;
* a temporary checkpoint root never outlives the run or the service;
* a failed launch leaves the transport shut down and no temporary root;
* serving rejects stop conditions instead of silently ignoring them.
"""

import glob
import os
import tempfile

import pytest

from repro.errors import EngineError
from repro.runtime import (
    InprocTransport,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    WorkerFailure,
)
from repro.runtime.transport import FAULT_ENV
from repro.serve import GraphService, build_serving_graph

from tests.helpers import grid_graph

ENGINES = {
    "chromatic": RuntimeChromaticEngine,
    "locking": RuntimeLockingEngine,
}


@pytest.fixture(autouse=True)
def _clear_fault_env(monkeypatch):
    """An ambient REPRO_FAULT kill schedule must not add extra kills."""
    monkeypatch.delenv(FAULT_ENV, raising=False)


@pytest.fixture
def scratch_tmp(tmp_path, monkeypatch):
    """Route ``tempfile.mkdtemp`` into a per-test directory."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def flood_max(scope):
    best = scope.data
    for u in scope.neighbors:
        best = max(best, scope.neighbor(u))
    if best != scope.data:
        scope.data = best
        return [(u, best) for u in scope.neighbors]


def seeded_grid():
    g = grid_graph(3, 3)
    for i, v in enumerate(g.vertices()):
        g.set_vertex_data(v, float(i))
    return g


def build(name, graph, transport="inproc", **kw):
    return ENGINES[name](
        graph, flood_max, num_workers=2, transport=transport, **kw
    )


def ckpt_dirs(root):
    return glob.glob(os.path.join(str(root), "repro-ckpt-*"))


def assert_flooded(graph):
    top = max(graph.vertex_data(v) for v in graph.vertices())
    assert all(graph.vertex_data(v) == top for v in graph.vertices())


def assert_shut_down(transport):
    with pytest.raises(EngineError, match="not running"):
        transport.round([("collect", {})] * transport.num_workers)


@pytest.mark.parametrize("name", sorted(ENGINES))
class TestSingleUse:
    def test_run_then_run(self, name):
        g = seeded_grid()
        engine = build(name, g)
        assert engine.run(initial=g.vertices()).converged
        with pytest.raises(EngineError, match="single-use"):
            engine.run(initial=g.vertices())

    def test_run_then_open_service(self, name):
        g = seeded_grid()
        engine = build(name, g)
        engine.run(initial=g.vertices())
        with pytest.raises(EngineError, match="single-use"):
            engine.open_service(g.vertices())

    def test_open_service_then_run(self, name):
        g = seeded_grid()
        engine = build(name, g)
        engine.open_service(g.vertices())
        with pytest.raises(EngineError, match="single-use"):
            engine.run(initial=g.vertices())
        # The rejected run left the open service intact.
        result = engine.close_service()
        assert result.converged
        assert_flooded(g)


@pytest.mark.parametrize("name", sorted(ENGINES))
class TestPreconditions:
    def test_resume_from_requires_snapshot_every(self, name, tmp_path):
        g = seeded_grid()
        engine = build(name, g)
        with pytest.raises(EngineError, match="resume_from"):
            engine.run(initial=g.vertices(), resume_from=str(tmp_path))

    def test_close_service_without_open_service(self, name):
        engine = build(name, seeded_grid())
        with pytest.raises(EngineError, match="no open service"):
            engine.close_service()

    def test_close_service_twice(self, name):
        g = seeded_grid()
        engine = build(name, g)
        engine.open_service(g.vertices())
        engine.close_service()
        with pytest.raises(EngineError, match="no open service"):
            engine.close_service()


@pytest.mark.parametrize("name", sorted(ENGINES))
class TestTemporaryCheckpointRoot:
    def test_removed_after_run(self, name, scratch_tmp):
        g = seeded_grid()
        engine = build(name, g, snapshot_every=1)
        result = engine.run(initial=g.vertices())
        root = engine._ckpt.dir.root
        assert root.startswith(str(scratch_tmp))
        assert result.extra["snapshots"] >= 1
        assert not os.path.exists(root)
        assert ckpt_dirs(scratch_tmp) == []

    def test_removed_after_close_service(self, name, scratch_tmp):
        g = seeded_grid()
        engine = build(name, g, snapshot_every=1)
        engine.open_service(g.vertices())
        root = engine._ckpt.dir.root
        assert os.path.isdir(root)
        result = engine.close_service()
        assert result.extra["snapshots"] >= 2  # baseline + final
        assert not os.path.exists(root)
        assert ckpt_dirs(scratch_tmp) == []

    @pytest.mark.parametrize("entry", ["run", "open_service"])
    def test_launch_failure_cleans_up(self, name, entry, scratch_tmp):
        g = seeded_grid()
        transport = InprocTransport(2)
        transport.schedule_kill(0, "launch")
        engine = build(name, g, transport=transport, snapshot_every=1)
        with pytest.raises(WorkerFailure) as info:
            if entry == "run":
                engine.run(initial=g.vertices())
            else:
                engine.open_service(g.vertices())
        assert info.value.phase == "launch"
        assert_shut_down(transport)
        assert transport.data_plane is None
        assert ckpt_dirs(scratch_tmp) == []
        # A failed launch never opened a service.
        with pytest.raises(EngineError, match="no open service"):
            engine.close_service()


class TestServingRejectsStopConditions:
    """Serving pumps to quiescence between bursts, so a stop condition
    would be silently ignored (or park the service short of
    convergence); both engines reject one before launching."""

    @pytest.mark.parametrize("stop", ["max_sweeps", "max_updates"])
    def test_chromatic_open_service(self, stop):
        g = seeded_grid()
        engine = build("chromatic", g, **{stop: 3})
        with pytest.raises(EngineError, match=stop):
            engine.open_service(g.vertices())
        assert engine.transport.rounds_completed == 0
        # Run mode still honours the condition on a fresh engine.
        assert build("chromatic", g, **{stop: 3}).run(
            initial=g.vertices()
        ).num_updates > 0

    @pytest.mark.parametrize("stop", ["max_updates", "max_rounds"])
    def test_locking_through_graph_service(self, stop):
        graph = build_serving_graph(12, seed=3)
        service = GraphService(
            graph, engine="locking", num_workers=2, telemetry=False,
            **{stop: 5},
        )
        with pytest.raises(EngineError, match=stop):
            service.start()
