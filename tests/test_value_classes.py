"""The value classes an analysis or the daemon loads are plain classes
that behave as the dataclasses they replaced.

Each class derives from :class:`repro._fields.Fields` instead of being
a ``@dataclass`` (see that module).  For one sample of each, these
tests pin what callers, artifacts and checkpoints rely on: equality
and hashing (unhashable where the dataclass was), ``Interval``
ordering, ``AttributeError`` on assignment to a frozen one, ``repr``
text, ``replace``, and pickling — ``pickle.dumps(x, 4)`` must equal
the bytes the dataclasses produced (the literals below were generated
from them), so checkpoints written before the change still load.
"""

import copy
import pickle

import pytest

from repro._fields import Fields
from repro.aliasing.filter import AliasFilter, FilterPolicy
from repro.bst.stats import TreeStats
from repro.core.report import RaceReport
from repro.detectors.base import NodeStats
from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
from repro.mpi.memory import Region, RegionInfo, RegionKind
from repro.mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceEvent
from repro.pipeline.checkpoint import CheckpointPlan
from repro.pipeline.engine import PipelineResult, ShardStats
from repro.serve.scheduler import Job
from repro.serve.server import ServeConfig


def samples():
    iv = Interval(0, 4)
    dbg = DebugInfo("mv.c", 12)
    acc = MemoryAccess(Interval(8, 16), AccessType.RMA_WRITE, dbg, 1, 3, 2,
                       "sum", 5)
    plain = MemoryAccess(iv, AccessType.LOCAL_READ)
    info = RegionInfo(RegionKind.HEAP, True)
    stats = TreeStats(comparisons=7, inserts=2, max_size=2)
    stats.note_query(3)
    report = RaceReport(0, 1, plain, acc, "Our Contribution", {"k": 1})
    return {
        "Interval": iv,
        "DebugInfo": dbg,
        "MemoryAccess": acc,
        "MemoryAccess-defaults": plain,
        "RegionInfo": info,
        "Region": Region("buf", RegionKind.WINDOW, 4096, 8, 1, None, True),
        "TraceEvent": TraceEvent(1, 2),
        "LocalEvent": LocalEvent(3, 0, plain, info),
        "RmaEvent": RmaEvent(4, 0, "put", 1, 0, plain, acc, info),
        "SyncEvent": SyncEvent(5, -1, SyncKind.BARRIER),
        "AliasFilter": AliasFilter(FilterPolicy.TSAN, 5, 3),
        "TreeStats": stats,
        "RaceReport": report,
        "NodeStats": NodeStats(3, 2, {0: 3}, 10, 1),
        "ShardStats": ShardStats(-1, 10, 1, 3, 8, [report]),
        "PipelineResult": PipelineResult("our", 4, 10, 0.5, [{"a": 1}],
                                         [ShardStats(-1)]),
        "CheckpointPlan": CheckpointPlan("/tmp/ck", 2, None, 512, True),
        "Job": Job("j000001", "t", "our", "ab" * 8, "/tmp/t.trace",
                   resumed=[{"lane": "serial"}]),
        "ServeConfig": ServeConfig("/tmp/svc", port=8787),
    }


#: ``pickle.dumps(sample, 4)`` of each sample under the dataclasses
PICKLES = {
    'Interval': b'\x80\x04\x955\x00\x00\x00\x00\x00\x00\x00\x8c\x18repro.intervals.interval\x94\x8c\x08Interval\x94\x93\x94)\x81\x94]\x94(K\x00K\x04eb.',
    'DebugInfo': b'\x80\x04\x959\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.intervals.access\x94\x8c\tDebugInfo\x94\x93\x94)\x81\x94]\x94(\x8c\x04mv.c\x94K\x0ceb.',
    'MemoryAccess': b'\x80\x04\x95\xad\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.intervals.access\x94\x8c\x0cMemoryAccess\x94\x93\x94)\x81\x94]\x94(\x8c\x18repro.intervals.interval\x94\x8c\x08Interval\x94\x93\x94)\x81\x94]\x94(K\x08K\x10ebh\x00\x8c\nAccessType\x94\x93\x94K\x03\x85\x94R\x94h\x00\x8c\tDebugInfo\x94\x93\x94)\x81\x94]\x94(\x8c\x04mv.c\x94K\x0cebK\x01K\x03K\x02\x8c\x03sum\x94K\x05eb.',
    'MemoryAccess-defaults': b'\x80\x04\x95\xac\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.intervals.access\x94\x8c\x0cMemoryAccess\x94\x93\x94)\x81\x94]\x94(\x8c\x18repro.intervals.interval\x94\x8c\x08Interval\x94\x93\x94)\x81\x94]\x94(K\x00K\x04ebh\x00\x8c\nAccessType\x94\x93\x94K\x00\x85\x94R\x94h\x00\x8c\tDebugInfo\x94\x93\x94)\x81\x94]\x94(\x8c\t<unknown>\x94K\x00ebK\x00K\x00K\x00NNeb.',
    'RegionInfo': b'\x80\x04\x95H\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.mpi.memory\x94\x8c\nRegionInfo\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\nRegionKind\x94\x93\x94\x8c\x04heap\x94\x85\x94R\x94\x88eb.',
    'Region': b'\x80\x04\x95\x8e\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.mpi.memory\x94\x8c\x06Region\x94\x93\x94)\x81\x94}\x94(\x8c\x04name\x94\x8c\x03buf\x94\x8c\x04kind\x94h\x00\x8c\nRegionKind\x94\x93\x94\x8c\x06window\x94\x85\x94R\x94\x8c\x04base\x94M\x00\x10\x8c\x04size\x94K\x08\x8c\x04rank\x94K\x01\x8c\x04data\x94N\x8c\rmay_alias_rma\x94\x88ub.',
    'TraceEvent': b'\x80\x04\x95;\x00\x00\x00\x00\x00\x00\x00\x8c\x0frepro.mpi.trace\x94\x8c\nTraceEvent\x94\x93\x94)\x81\x94}\x94(\x8c\x03seq\x94K\x01\x8c\x04rank\x94K\x02ub.',
    'LocalEvent': b'\x80\x04\x95?\x01\x00\x00\x00\x00\x00\x00\x8c\x0frepro.mpi.trace\x94\x8c\nLocalEvent\x94\x93\x94)\x81\x94}\x94(\x8c\x03seq\x94K\x03\x8c\x04rank\x94K\x00\x8c\x06access\x94\x8c\x16repro.intervals.access\x94\x8c\x0cMemoryAccess\x94\x93\x94)\x81\x94]\x94(\x8c\x18repro.intervals.interval\x94\x8c\x08Interval\x94\x93\x94)\x81\x94]\x94(K\x00K\x04ebh\x08\x8c\nAccessType\x94\x93\x94K\x00\x85\x94R\x94h\x08\x8c\tDebugInfo\x94\x93\x94)\x81\x94]\x94(\x8c\t<unknown>\x94K\x00ebK\x00K\x00K\x00NNeb\x8c\x06region\x94\x8c\x10repro.mpi.memory\x94\x8c\nRegionInfo\x94\x93\x94)\x81\x94]\x94(h\x1c\x8c\nRegionKind\x94\x93\x94\x8c\x04heap\x94\x85\x94R\x94\x88ebub.',
    'RmaEvent': b'\x80\x04\x95\xef\x01\x00\x00\x00\x00\x00\x00\x8c\x0frepro.mpi.trace\x94\x8c\x08RmaEvent\x94\x93\x94)\x81\x94}\x94(\x8c\x03seq\x94K\x04\x8c\x04rank\x94K\x00\x8c\x02op\x94\x8c\x03put\x94\x8c\x06target\x94K\x01\x8c\x03wid\x94K\x00\x8c\rorigin_access\x94\x8c\x16repro.intervals.access\x94\x8c\x0cMemoryAccess\x94\x93\x94)\x81\x94]\x94(\x8c\x18repro.intervals.interval\x94\x8c\x08Interval\x94\x93\x94)\x81\x94]\x94(K\x00K\x04ebh\x0c\x8c\nAccessType\x94\x93\x94K\x00\x85\x94R\x94h\x0c\x8c\tDebugInfo\x94\x93\x94)\x81\x94]\x94(\x8c\t<unknown>\x94K\x00ebK\x00K\x00K\x00NNeb\x8c\rtarget_access\x94h\x0e)\x81\x94]\x94(h\x13)\x81\x94]\x94(K\x08K\x10ebh\x17K\x03\x85\x94R\x94h\x1b)\x81\x94]\x94(\x8c\x04mv.c\x94K\x0cebK\x01K\x03K\x02\x8c\x03sum\x94K\x05eb\x8c\rorigin_region\x94\x8c\x10repro.mpi.memory\x94\x8c\nRegionInfo\x94\x93\x94)\x81\x94]\x94(h+\x8c\nRegionKind\x94\x93\x94\x8c\x04heap\x94\x85\x94R\x94\x88eb\x8c\rtarget_region\x94h-)\x81\x94]\x94(h1\x8c\x06window\x94\x85\x94R\x94\x88eb\x8c\x06nbytes\x94K\x00ub.',
    'SyncEvent': b'\x80\x04\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x0frepro.mpi.trace\x94\x8c\tSyncEvent\x94\x93\x94)\x81\x94}\x94(\x8c\x03seq\x94K\x05\x8c\x04rank\x94J\xff\xff\xff\xff\x8c\x04kind\x94h\x00\x8c\x08SyncKind\x94\x93\x94\x8c\x07barrier\x94\x85\x94R\x94\x8c\x03wid\x94J\xff\xff\xff\xffub.',
    'AliasFilter': b'\x80\x04\x95j\x00\x00\x00\x00\x00\x00\x00\x8c\x15repro.aliasing.filter\x94\x8c\x0bAliasFilter\x94\x93\x94)\x81\x94}\x94(\x8c\x06policy\x94h\x00\x8c\x0cFilterPolicy\x94\x93\x94\x8c\x04tsan\x94\x85\x94R\x94\x8c\x04seen\x94K\x05\x8c\x04kept\x94K\x03ub.',
    'TreeStats': b'\x80\x04\x95\xd0\x00\x00\x00\x00\x00\x00\x00\x8c\x0frepro.bst.stats\x94\x8c\tTreeStats\x94\x93\x94)\x81\x94}\x94(\x8c\x0bcomparisons\x94K\x07\x8c\trotations\x94K\x00\x8c\x07inserts\x94K\x02\x8c\x08removals\x94K\x00\x8c\x08max_size\x94K\x02\x8c\x07queries\x94K\x01\x8c\nquery_hits\x94K\x03\x8c\nmax_fanout\x94K\x03\x8c\x06fanout\x94]\x94(K\x00K\x00K\x01K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00K\x00eub.',
    'RaceReport': b'\x80\x04\x95n\x01\x00\x00\x00\x00\x00\x00\x8c\x11repro.core.report\x94\x8c\nRaceReport\x94\x93\x94)\x81\x94}\x94(\x8c\x04rank\x94K\x00\x8c\x06window\x94K\x01\x8c\x06stored\x94\x8c\x16repro.intervals.access\x94\x8c\x0cMemoryAccess\x94\x93\x94)\x81\x94]\x94(\x8c\x18repro.intervals.interval\x94\x8c\x08Interval\x94\x93\x94)\x81\x94]\x94(K\x00K\x04ebh\x08\x8c\nAccessType\x94\x93\x94K\x00\x85\x94R\x94h\x08\x8c\tDebugInfo\x94\x93\x94)\x81\x94]\x94(\x8c\t<unknown>\x94K\x00ebK\x00K\x00K\x00NNeb\x8c\x03new\x94h\n)\x81\x94]\x94(h\x0f)\x81\x94]\x94(K\x08K\x10ebh\x13K\x03\x85\x94R\x94h\x17)\x81\x94]\x94(\x8c\x04mv.c\x94K\x0cebK\x01K\x03K\x02\x8c\x03sum\x94K\x05eb\x8c\x08detector\x94\x8c\x10Our Contribution\x94\x8c\tforensics\x94}\x94\x8c\x01k\x94K\x01sub.',
    'NodeStats': b'\x80\x04\x95\xa3\x00\x00\x00\x00\x00\x00\x00\x8c\x14repro.detectors.base\x94\x8c\tNodeStats\x94\x93\x94)\x81\x94}\x94(\x8c\x0ftotal_max_nodes\x94K\x03\x8c\x13total_current_nodes\x94K\x02\x8c\x12max_nodes_per_rank\x94}\x94K\x00K\x03s\x8c\x12accesses_processed\x94K\n\x8c\x11accesses_filtered\x94K\x01ub.',
    'ShardStats': b'\x80\x04\x95\xe9\x01\x00\x00\x00\x00\x00\x00\x8c\x15repro.pipeline.engine\x94\x8c\nShardStats\x94\x93\x94)\x81\x94}\x94(\x8c\x05shard\x94J\xff\xff\xff\xff\x8c\x06events\x94K\n\x8c\x05races\x94K\x01\x8c\npeak_nodes\x94K\x03\x8c\tprocessed\x94K\x08\x8c\x07reports\x94]\x94\x8c\x11repro.core.report\x94\x8c\nRaceReport\x94\x93\x94)\x81\x94}\x94(\x8c\x04rank\x94K\x00\x8c\x06window\x94K\x01\x8c\x06stored\x94\x8c\x16repro.intervals.access\x94\x8c\x0cMemoryAccess\x94\x93\x94)\x81\x94]\x94(\x8c\x18repro.intervals.interval\x94\x8c\x08Interval\x94\x93\x94)\x81\x94]\x94(K\x00K\x04ebh\x14\x8c\nAccessType\x94\x93\x94K\x00\x85\x94R\x94h\x14\x8c\tDebugInfo\x94\x93\x94)\x81\x94]\x94(\x8c\t<unknown>\x94K\x00ebK\x00K\x00K\x00NNeb\x8c\x03new\x94h\x16)\x81\x94]\x94(h\x1b)\x81\x94]\x94(K\x08K\x10ebh\x1fK\x03\x85\x94R\x94h#)\x81\x94]\x94(\x8c\x04mv.c\x94K\x0cebK\x01K\x03K\x02\x8c\x03sum\x94K\x05eb\x8c\x08detector\x94\x8c\x10Our Contribution\x94\x8c\tforensics\x94}\x94\x8c\x01k\x94K\x01subaub.',
    'PipelineResult': b'\x80\x04\x95w\x01\x00\x00\x00\x00\x00\x00\x8c\x15repro.pipeline.engine\x94\x8c\x0ePipelineResult\x94\x93\x94)\x81\x94}\x94(\x8c\x08detector\x94\x8c\x03our\x94\x8c\x06nranks\x94K\x04\x8c\x0cevents_total\x94K\n\x8c\x0cwall_seconds\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x08verdicts\x94]\x94}\x94\x8c\x01a\x94K\x01sa\x8c\x0bshard_stats\x94]\x94h\x00\x8c\nShardStats\x94\x93\x94)\x81\x94}\x94(\x8c\x05shard\x94J\xff\xff\xff\xff\x8c\x06events\x94K\x00\x8c\x05races\x94K\x00\x8c\npeak_nodes\x94K\x00\x8c\tprocessed\x94K\x00\x8c\x07reports\x94]\x94uba\x8c\x07salvage\x94N\x8c\x07partial\x94\x89\x8c\x11analyzed_fraction\x94N\x8c\ncheckpoint\x94N\x8c\x03obs\x94N\x8c\tforensics\x94]\x94\x8c\x0e_timeline_snap\x94N\x8c\x0e_timeline_live\x94Nub.',
    'CheckpointPlan': b'\x80\x04\x95{\x00\x00\x00\x00\x00\x00\x00\x8c\x19repro.pipeline.checkpoint\x94\x8c\x0eCheckpointPlan\x94\x93\x94)\x81\x94}\x94(\x8c\x03dir\x94\x8c\x07/tmp/ck\x94\x8c\x05every\x94K\x02\x8c\x0bdeadline_at\x94N\x8c\nmax_rss_mb\x94M\x00\x02\x8c\x06resume\x94\x88ub.',
    'Job': b'\x80\x04\x95V\x01\x00\x00\x00\x00\x00\x00\x8c\x15repro.serve.scheduler\x94\x8c\x03Job\x94\x93\x94)\x81\x94}\x94(\x8c\x02id\x94\x8c\x07j000001\x94\x8c\x06tenant\x94\x8c\x01t\x94\x8c\x08detector\x94\x8c\x03our\x94\x8c\ttrace_sha\x94\x8c\x10abababababababab\x94\x8c\ntrace_path\x94\x8c\x0c/tmp/t.trace\x94\x8c\x05state\x94\x8c\x06queued\x94\x8c\x08attempts\x94K\x00\x8c\x0csubmitted_at\x94G\x00\x00\x00\x00\x00\x00\x00\x00\x8c\nupdated_at\x94G\x00\x00\x00\x00\x00\x00\x00\x00\x8c\x06reason\x94N\x8c\x06cached\x94\x89\x8c\x05races\x94N\x8c\x06events\x94N\x8c\x0cwall_seconds\x94N\x8c\x0cresumed_from\x94N\x8c\rprefix_chunks\x94K\x00\x8c\x07resumed\x94]\x94}\x94\x8c\x04lane\x94\x8c\x06serial\x94saub.',
    'ServeConfig': b'\x80\x04\x95\xfd\x00\x00\x00\x00\x00\x00\x00\x8c\x12repro.serve.server\x94\x8c\x0bServeConfig\x94\x93\x94)\x81\x94}\x94(\x8c\tstate_dir\x94\x8c\x08/tmp/svc\x94\x8c\x04host\x94\x8c\t127.0.0.1\x94\x8c\x04port\x94MS"\x8c\x07workers\x94K\x02\x8c\tmax_queue\x94K\x10\x8c\ntenant_cap\x94K\x04\x8c\x07retries\x94K\x02\x8c\ndeadline_s\x94N\x8c\nmax_rss_mb\x94N\x8c\nckpt_every\x94N\x8c\x07drain_s\x94G@$\x00\x00\x00\x00\x00\x00\x8c\x0bmax_body_mb\x94M\x00\x01\x8c\tcache_max\x94M\x00\x01\x8c\x05quiet\x94\x88ub.',
}

#: ``repr(sample)`` under the dataclasses
REPRS = {
    'Interval':
        'Interval(lo=0, hi=4)',
    'DebugInfo':
        "DebugInfo(filename='mv.c', line=12)",
    'MemoryAccess':
        "MemoryAccess(interval=Interval(lo=8, hi=16), type=<AccessType.RMA_WRITE: 3>, debug=DebugInfo(filename='mv.c', line=12), origin=1, seq=3, flush_gen=2, accum_op='sum', excl_epoch=5)",
    'MemoryAccess-defaults':
        "MemoryAccess(interval=Interval(lo=0, hi=4), type=<AccessType.LOCAL_READ: 0>, debug=DebugInfo(filename='<unknown>', line=0), origin=0, seq=0, flush_gen=0, accum_op=None, excl_epoch=None)",
    'RegionInfo':
        "RegionInfo(kind=<RegionKind.HEAP: 'heap'>, may_alias_rma=True)",
    'Region':
        "Region(name='buf', kind=<RegionKind.WINDOW: 'window'>, base=4096, size=8, rank=1, may_alias_rma=True)",
    'TraceEvent':
        'TraceEvent(seq=1, rank=2)',
    'LocalEvent':
        "LocalEvent(seq=3, rank=0, access=MemoryAccess(interval=Interval(lo=0, hi=4), type=<AccessType.LOCAL_READ: 0>, debug=DebugInfo(filename='<unknown>', line=0), origin=0, seq=0, flush_gen=0, accum_op=None, excl_epoch=None), region=RegionInfo(kind=<RegionKind.HEAP: 'heap'>, may_alias_rma=True))",
    'RmaEvent':
        "RmaEvent(seq=4, rank=0, op='put', target=1, wid=0, origin_access=MemoryAccess(interval=Interval(lo=0, hi=4), type=<AccessType.LOCAL_READ: 0>, debug=DebugInfo(filename='<unknown>', line=0), origin=0, seq=0, flush_gen=0, accum_op=None, excl_epoch=None), target_access=MemoryAccess(interval=Interval(lo=8, hi=16), type=<AccessType.RMA_WRITE: 3>, debug=DebugInfo(filename='mv.c', line=12), origin=1, seq=3, flush_gen=2, accum_op='sum', excl_epoch=5), origin_region=RegionInfo(kind=<RegionKind.HEAP: 'heap'>, may_alias_rma=True), target_region=RegionInfo(kind=<RegionKind.WINDOW: 'window'>, may_alias_rma=True), nbytes=0)",
    'SyncEvent':
        "SyncEvent(seq=5, rank=-1, kind=<SyncKind.BARRIER: 'barrier'>, wid=-1)",
    'AliasFilter':
        "AliasFilter(policy=<FilterPolicy.TSAN: 'tsan'>, seen=5, kept=3)",
    'TreeStats':
        'TreeStats(comparisons=7, rotations=0, inserts=2, removals=0, max_size=2, queries=1, query_hits=3, max_fanout=3, fanout=[0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])',
    'RaceReport':
        "RaceReport(rank=0, window=1, stored=MemoryAccess(interval=Interval(lo=0, hi=4), type=<AccessType.LOCAL_READ: 0>, debug=DebugInfo(filename='<unknown>', line=0), origin=0, seq=0, flush_gen=0, accum_op=None, excl_epoch=None), new=MemoryAccess(interval=Interval(lo=8, hi=16), type=<AccessType.RMA_WRITE: 3>, debug=DebugInfo(filename='mv.c', line=12), origin=1, seq=3, flush_gen=2, accum_op='sum', excl_epoch=5), detector='Our Contribution', forensics={'k': 1})",
    'NodeStats':
        'NodeStats(total_max_nodes=3, total_current_nodes=2, max_nodes_per_rank={0: 3}, accesses_processed=10, accesses_filtered=1)',
    'ShardStats':
        'ShardStats(shard=-1, events=10, races=1, peak_nodes=3, processed=8)',
    'PipelineResult':
        "PipelineResult(detector='our', nranks=4, events_total=10, wall_seconds=0.5, verdicts=[{'a': 1}], shard_stats=[ShardStats(shard=-1, events=0, races=0, peak_nodes=0, processed=0)], salvage=None, partial=False, analyzed_fraction=None, checkpoint=None, obs=None, forensics=[])",
    'CheckpointPlan':
        "CheckpointPlan(dir='/tmp/ck', every=2, deadline_at=None, max_rss_mb=512, resume=True)",
    'Job':
        "Job(id='j000001', tenant='t', detector='our', trace_sha='abababababababab', trace_path='/tmp/t.trace', state='queued', attempts=0, submitted_at=0.0, updated_at=0.0, reason=None, cached=False, races=None, events=None, wall_seconds=None, resumed_from=None, prefix_chunks=0, resumed=[{'lane': 'serial'}])",
    'ServeConfig':
        "ServeConfig(state_dir='/tmp/svc', host='127.0.0.1', port=8787, workers=2, max_queue=16, tenant_cap=4, retries=2, deadline_s=None, max_rss_mb=None, ckpt_every=None, drain_s=10.0, max_body_mb=256, cache_max=256, quiet=True)",
}

#: the frozen classes: hashable, and assignment raises AttributeError
FROZEN = {"Interval", "DebugInfo", "MemoryAccess", "MemoryAccess-defaults",
          "RegionInfo", "TraceEvent", "LocalEvent", "RmaEvent", "SyncEvent",
          "RaceReport", "CheckpointPlan", "ServeConfig"}

#: per sample, one field and another valid value for it
TWEAK = {
    "Interval": ("hi", 5),
    "DebugInfo": ("line", 13),
    "MemoryAccess": ("seq", 4),
    "MemoryAccess-defaults": ("origin", 1),
    "RegionInfo": ("may_alias_rma", False),
    "Region": ("size", 16),
    "TraceEvent": ("rank", 3),
    "LocalEvent": ("seq", 9),
    "RmaEvent": ("nbytes", 8),
    "SyncEvent": ("wid", 2),
    "AliasFilter": ("kept", 4),
    "TreeStats": ("inserts", 3),
    "RaceReport": ("detector", "rma"),
    "NodeStats": ("accesses_filtered", 2),
    "ShardStats": ("races", 2),
    "PipelineResult": ("partial", True),
    "CheckpointPlan": ("every", 3),
    "Job": ("state", "done"),
    "ServeConfig": ("workers", 1),
}

NAMES = sorted(PICKLES)


@pytest.fixture(params=NAMES)
def sample(request):
    return request.param, samples()[request.param]


def test_every_class_is_plain(sample):
    name, obj = sample
    assert isinstance(obj, Fields)
    assert not hasattr(type(obj), "__dataclass_fields__")


def test_pickle_bytes_match_the_dataclasses(sample):
    name, obj = sample
    assert pickle.dumps(obj, 4) == PICKLES[name]


def test_dataclass_pickles_load_equal(sample):
    name, obj = sample
    back = pickle.loads(PICKLES[name])
    assert type(back) is type(obj)
    assert repr(back) == repr(obj)
    if name != "Region":  # its data field is compared as is
        assert back == obj


def test_pickle_and_copy_round_trip(sample):
    name, obj = sample
    for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                 copy.deepcopy(obj)):
        assert repr(back) == repr(obj)
        assert back == obj


def test_repr_is_the_dataclass_repr(sample):
    name, obj = sample
    assert repr(obj) == REPRS[name]


def test_equality_is_by_fields_and_class(sample):
    name, obj = sample
    twin = samples()[name]
    assert twin == obj and not (twin != obj)
    field, value = TWEAK[name]
    assert obj.replace(**{field: value}) != obj
    assert obj != object() and obj != tuple(getattr(obj, f) for f in obj._fields)


def test_hashing(sample):
    name, obj = sample
    if name in FROZEN:
        assert hash(obj) == hash(samples()[name])
        assert {obj: 1}[samples()[name]] == 1
    else:
        with pytest.raises(TypeError):
            hash(obj)


def test_assignment(sample):
    name, obj = sample
    field = obj._fields[0]
    if name in FROZEN:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
    else:
        setattr(obj, field, "x")
        assert getattr(obj, field) == "x"


def test_replace_keeps_other_fields(sample):
    name, obj = sample
    field, value = TWEAK[name]
    other = obj.replace(**{field: value})
    assert type(other) is type(obj) and getattr(other, field) == value
    for kept in obj._fields:
        if kept != field:
            assert getattr(other, kept) is getattr(obj, kept)
    with pytest.raises(TypeError):
        obj.replace(no_such_field=1)


def test_interval_order_and_validation():
    a, b, c = Interval(0, 4), Interval(0, 8), Interval(2, 3)
    assert a < b < c and c > b > a and a <= a and a >= a
    assert sorted([c, b, a]) == [a, b, c]
    with pytest.raises(TypeError):
        a < (0, 4)
    with pytest.raises(ValueError):
        Interval(4, 4)
    with pytest.raises(ValueError):
        Interval(-1, 4)
    with pytest.raises(TypeError):
        Interval(0.0, 4)


def test_race_report_forensics_stay_out_of_eq_and_hash():
    report = samples()["RaceReport"]
    bare = report.replace(forensics=None)
    assert bare == report and hash(bare) == hash(report)
    assert "forensics={'k': 1}" in repr(report)


def test_events_of_different_kinds_never_compare_equal():
    assert TraceEvent(1, 0) != SyncEvent(1, 0, SyncKind.BARRIER)
    assert SyncEvent(1, 0, SyncKind.BARRIER) == SyncEvent(1, 0,
                                                          SyncKind.BARRIER)


@pytest.mark.parametrize("make, field", [
    (TreeStats, "fanout"),
    (NodeStats, "max_nodes_per_rank"),
    (lambda: ShardStats(0), "reports"),
    (lambda: Job("j", "t", "our", "s", "p"), "resumed"),
], ids=["TreeStats", "NodeStats", "ShardStats", "Job"])
def test_mutable_defaults_are_per_instance(make, field):
    assert getattr(make(), field) is not getattr(make(), field)
