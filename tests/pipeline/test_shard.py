"""Dispatch-mapping invariants of repro.pipeline.shard, and the rank
projection every timeline feed applies."""

from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
from repro.mpi.memory import RegionInfo, RegionKind
from repro.mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind
from repro.obs.timeline import Timeline
from repro.pipeline import TraceReader, dispatch_event

NRANKS = 4
REGION = RegionInfo(RegionKind.WINDOW, True)


def _access(type=AccessType.LOCAL_WRITE, origin=0):
    return MemoryAccess(Interval(0, 8), type, DebugInfo("f.c", 1),
                        origin, 0, 0)


def _local(rank):
    return LocalEvent(1, rank, _access(), REGION)


def _rma(origin, target):
    return RmaEvent(1, origin, "put", target, 0,
                    _access(AccessType.RMA_READ, origin),
                    _access(AccessType.RMA_WRITE, origin),
                    REGION, REGION, 8)


def shards_of(event, nranks):
    """The rank lanes a replayed event lands in, ascending."""
    timeline = Timeline()
    timeline.record_event_fanout(event, nranks)
    return tuple(timeline.lanes())


class TestShardsOf:
    """The projection forensics rely on: which ranks an event concerns."""

    def test_local_goes_to_own_rank(self):
        for rank in range(NRANKS):
            assert shards_of(_local(rank), NRANKS) == (rank,)

    def test_rma_goes_to_origin_and_target(self):
        assert shards_of(_rma(0, 3), NRANKS) == (0, 3)

    def test_self_targeted_rma_not_duplicated(self):
        assert shards_of(_rma(2, 2), NRANKS) == (2,)

    def test_sync_replicated_to_every_shard(self):
        for kind in SyncKind:
            event = SyncEvent(1, -1, kind, wid=0)
            assert shards_of(event, NRANKS) == tuple(range(NRANKS))

    def test_every_recorded_event_is_routed(self, minivite_trace):
        reader = TraceReader(minivite_trace)
        for event in reader:
            shards = shards_of(event, reader.nranks)
            assert shards, event
            assert all(0 <= s < reader.nranks for s in shards)
            assert len(set(shards)) == len(shards)


class _Recorder:
    """Fake detector that logs which hook each event landed on."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)

        def hook(*args):
            self.calls.append((name, args))

        return hook


class TestDispatchEvent:
    def test_local_event(self):
        det = _Recorder()
        event = _local(2)
        dispatch_event(det, event, NRANKS)
        assert det.calls == [("on_local", (2, event.access, event.region))]

    def test_rma_event(self):
        det = _Recorder()
        event = _rma(1, 3)
        dispatch_event(det, event, NRANKS)
        (name, args), = det.calls
        assert name == "on_rma"
        assert args[:4] == ("put", 1, 3, 0)

    def test_sync_hook_mapping(self):
        expected = {
            SyncKind.WIN_CREATE: "on_win_create",
            SyncKind.WIN_FREE: "on_win_free",
            SyncKind.LOCK_ALL: "on_epoch_start",
            SyncKind.UNLOCK_ALL: "on_epoch_end",
            SyncKind.FLUSH: "on_flush",
            SyncKind.FLUSH_ALL: "on_flush",
            SyncKind.FENCE: "on_fence",
            SyncKind.BARRIER: "on_barrier",
        }
        for kind, hook in expected.items():
            det = _Recorder()
            dispatch_event(det, SyncEvent(1, 0, kind, wid=5), NRANKS)
            assert [name for name, _ in det.calls] == [hook], kind

    def test_win_create_window_shape(self):
        det = _Recorder()
        dispatch_event(det, SyncEvent(1, -1, SyncKind.WIN_CREATE, wid=7),
                       NRANKS)
        (_, (window,)), = det.calls
        assert window.wid == 7
        assert len(window.regions) == NRANKS

    def test_fence_carries_nranks(self):
        det = _Recorder()
        dispatch_event(det, SyncEvent(1, -1, SyncKind.FENCE, wid=2), NRANKS)
        assert det.calls == [("on_fence", (2, NRANKS))]
