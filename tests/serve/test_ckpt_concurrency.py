"""Concurrent checkpointing: per-job directories must never collide.

The daemon runs several checkpointed analyses at once against one
shared checkpoint base.  Isolation comes from :func:`job_ckpt_dir`
keying each job's subdirectory by trace content hash + detector —
these tests pin that contract and exercise `CheckpointStore` from
many threads at once.
"""

import threading

from repro.pipeline.checkpoint import CheckpointStore
from repro.serve import job_ckpt_dir


def test_job_ckpt_dirs_are_distinct(tmp_path):
    a = job_ckpt_dir(tmp_path, "a" * 64, "our")
    b = job_ckpt_dir(tmp_path, "b" * 64, "our")
    c = job_ckpt_dir(tmp_path, "a" * 64, "rma")
    assert len({a, b, c}) == 3
    # identical trace + detector maps to the same directory, so a
    # resubmitted job reuses its own resumable state
    assert job_ckpt_dir(tmp_path, "a" * 64, "our") == a


def test_concurrent_stores_in_separate_job_dirs(tmp_path):
    """N threads checkpoint concurrently; each lane recovers its own state."""
    nthreads, writes = 8, 6
    errors = []
    barrier = threading.Barrier(nthreads)

    def work(i):
        try:
            sha = f"{i:02x}" * 32
            store = CheckpointStore(job_ckpt_dir(tmp_path, sha, "our"))
            barrier.wait(timeout=30)
            for seq in range(writes):
                store.write({"cursor": i * 1000 + seq}, {"owner": i,
                                                         "seq": seq})
            header, state = store.load_latest()
            assert state["owner"] == i
            assert state["seq"] == writes - 1
            assert header["meta"]["cursor"] == i * 1000 + writes - 1
            assert store.quarantined == []
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((i, exc))

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert errors == []
    # every job dir pruned independently down to its keep-window
    for i in range(nthreads):
        d = job_ckpt_dir(tmp_path, f"{i:02x}" * 32, "our")
        kept = sorted(d.glob("serial-*.ckpt"))
        assert len(kept) == 2  # keep=2 generations


def test_same_dir_same_lane_is_still_last_writer_wins(tmp_path):
    """Control: *without* per-job dirs, lanes interleave — the hazard
    job_ckpt_dir exists to rule out."""
    shared = tmp_path / "shared"
    a = CheckpointStore(shared)
    b = CheckpointStore(shared)
    a.write({"cursor": 1}, {"owner": "a"})
    b.write({"cursor": 2}, {"owner": "b"})
    _, state = a.load_latest()
    assert state["owner"] == "b"  # a's recovery would get b's state
