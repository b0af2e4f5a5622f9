"""``repro serve``: run the crash-safe analysis daemon."""

from __future__ import annotations

import sys

from ..exitcodes import EX_ERROR


def _serve_arguments(srv) -> None:
    srv.description = ("Serve trace analysis over HTTP with a durable "
                       "(journaled, fsync'd) job queue: after a hard kill, "
                       "a restart replays the journal and resumes every "
                       "in-flight analysis from its last checkpoint.")
    srv.add_argument("--state", required=True, metavar="DIR",
                     help="daemon state directory (journal, traces, "
                          "checkpoints, verdict cache, serve.json)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=0, metavar="P",
                     help="listen port (default 0 = ephemeral; the "
                          "chosen port is published in serve.json)")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="analysis worker threads (default 2)")
    srv.add_argument("--max-queue", type=int, default=16, metavar="N",
                     help="admission bound on queued+running jobs; past "
                          "it submissions get 429 (default 16)")
    srv.add_argument("--tenant-cap", type=int, default=4, metavar="N",
                     help="concurrent live jobs per tenant (default 4)")
    srv.add_argument("--retries", type=int, default=2, metavar="R",
                     help="retries before a repeatedly failing job is "
                          "quarantined as poison (default 2)")
    srv.add_argument("--deadline-s", type=float, default=None, metavar="SEC",
                     help="per-job wall-clock budget (checkpoint + fail "
                          "past it; default: none)")
    srv.add_argument("--max-rss-mb", type=int, default=None, metavar="MB",
                     help="memory budget: a job stops (failed, "
                          "guard:memory) when the daemon's current RSS "
                          "exceeds it at a chunk boundary (default: none)")
    srv.add_argument("--ckpt-every", type=int, default=None, metavar="N",
                     help="pin each job's checkpoint cadence to every N "
                          "trace chunks (default: amortized; a finished "
                          "job always keeps its final checkpoint)")
    srv.add_argument("--drain-s", type=float, default=10.0, metavar="SEC",
                     help="graceful-drain budget on SIGTERM (default 10)")
    srv.add_argument("--cache-max", type=int, default=256, metavar="N",
                     help="verdict-cache entries kept before LRU eviction "
                          "(0 = unbounded; default %(default)s)")
    srv.add_argument("--max-body-mb", type=int, default=256, metavar="MB",
                     help="largest accepted trace upload (default 256)")
    srv.add_argument("--verbose", action="store_true",
                     help="log every HTTP request")


def _serve(args) -> int:
    from ..serve import ServeConfig, serve_forever

    try:
        config = ServeConfig(
            state_dir=args.state, host=args.host, port=args.port,
            workers=args.workers, max_queue=args.max_queue,
            tenant_cap=args.tenant_cap, retries=args.retries,
            deadline_s=args.deadline_s, max_rss_mb=args.max_rss_mb,
            ckpt_every=args.ckpt_every, drain_s=args.drain_s,
            max_body_mb=args.max_body_mb,
            cache_max=args.cache_max if args.cache_max > 0 else None,
            quiet=not args.verbose,
        )
        return serve_forever(config)
    except (OSError, ValueError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return EX_ERROR


COMMANDS = {"serve": (_serve_arguments, _serve)}
