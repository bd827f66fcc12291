"""``python -m repro serve`` — the multi-tenant HTTP serving endpoint.

Examples
--------
Serve on the default port with four workers::

    python -m repro serve

Serve CPU-bound traffic on a process worker pool (one worker process per
worker, scaling with cores; artefacts stay byte-identical)::

    python -m repro serve --executor process --workers 8

Size the worker pool and the backpressure bound::

    python -m repro serve --workers 8 --max-queue 256

Every tenant gets its own session (its own kernel caches and counters); the
engine has no per-tenant settings.

Submit work with ``examples/serve_client.py`` or any HTTP client: ``POST
/jobs`` a ``repro/job-request-v1`` payload, poll ``GET /jobs/<id>``, read
the ``result`` field (a ``repro/run-result-v1`` payload, byte-identical to
a bare session run) once ``status`` is ``done``.
"""

from __future__ import annotations

import argparse
import signal
from typing import Sequence

from ..config import ServeConfig
from .server import HttpFrontend, Server


class _GracefulShutdown(BaseException):
    """Raised out of ``serve_forever`` by the SIGTERM handler.

    ``HTTPServer.shutdown()`` deadlocks when called from the thread running
    ``serve_forever`` (it blocks until that loop acknowledges), and signal
    handlers run on the main thread — so the handler raises instead, which
    unwinds ``serve_forever`` exactly like ``KeyboardInterrupt`` does for
    Ctrl-C, and the ``finally`` block performs the bounded drain.  Like
    ``KeyboardInterrupt`` it derives from ``BaseException``: ``socketserver``
    handles a request under ``except Exception`` and would otherwise log the
    signal as a request error and keep serving.
    """


def build_serve_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``serve`` subcommand.

    Executor-related defaults come from :meth:`ServeConfig.from_env`
    (``REPRO_SERVE_EXECUTOR``/``REPRO_SERVE_WORKERS``/``REPRO_SERVE_WARMUP``/
    ``REPRO_SERVE_START_METHOD``); explicit flags always win.
    """
    defaults = ServeConfig.from_env()
    parser = argparse.ArgumentParser(
        prog="repro-infine serve",
        description="Serve FD discovery/validation/profiling jobs over HTTP "
        "with one isolated engine session per tenant.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8750, help="bind port (0 picks an ephemeral port)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=defaults.workers,
        help=f"job-queue workers (default: {defaults.workers})",
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default=defaults.executor,
        help="where jobs run: 'thread' = in-process worker threads "
        "(GIL-bound), 'process' = one worker process per worker "
        "(CPU-bound jobs scale with cores; artefacts are byte-identical "
        f"either way) (default: {defaults.executor})",
    )
    parser.add_argument(
        "--warmup",
        action=argparse.BooleanOptionalAction,
        default=defaults.warmup,
        help="start and ping every worker process at boot instead of "
        "lazily on first use (process executor only)",
    )
    parser.add_argument(
        "--start-method",
        choices=("spawn", "fork", "forkserver"),
        default=defaults.start_method,
        help="multiprocessing start method of the process executor "
        f"(default: {defaults.start_method})",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=defaults.processes,
        help="worker-process pool size of the process executor; queue "
        "workers share the pool (M:N, work stealing). 0 = one process "
        f"per worker (default: {defaults.processes})",
    )
    parser.add_argument(
        "--max-jobs-per-worker",
        type=int,
        default=defaults.max_jobs_per_worker,
        help="recycle each worker process after this many jobs "
        "(bounds per-worker memory growth); 0 = never "
        f"(default: {defaults.max_jobs_per_worker})",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="backpressure bound on waiting jobs; submissions "
        "beyond it receive HTTP 429 (default: 64)",
    )
    parser.add_argument(
        "--max-inflight-per-tenant",
        type=int,
        default=1,
        help="fairness cap on one tenant's concurrently running "
        "jobs (default: 1, which also serialises each tenant's "
        "work on its session)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="LRU cap on pooled tenant sessions (default: 64)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default queue-wait timeout in seconds; jobs still "
        "queued past it are cancelled (default: none)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=defaults.max_attempts,
        help="total tries per job for infra failures (killed worker, "
        "broken pipe); application failures never retry "
        f"(default: {defaults.max_attempts})",
    )
    parser.add_argument(
        "--restart-budget",
        type=int,
        default=defaults.restart_budget,
        help="process-worker respawns tolerated per rolling window "
        "before the executor reports degraded and /healthz turns 503 "
        f"(default: {defaults.restart_budget})",
    )
    parser.add_argument(
        "--restart-window",
        type=float,
        default=defaults.restart_window,
        metavar="SECONDS",
        help="length of the rolling respawn-budget window "
        f"(default: {defaults.restart_window:g})",
    )
    parser.add_argument(
        "--degraded-fallback",
        action=argparse.BooleanOptionalAction,
        default=defaults.degraded_fallback,
        help="while degraded, run jobs inline in the server process "
        "instead of on crash-looping workers (artefacts stay "
        "byte-identical)",
    )
    parser.add_argument(
        "--drain-deadline",
        type=float,
        default=defaults.drain_deadline,
        metavar="SECONDS",
        help="on SIGTERM/Ctrl-C, bound on waiting for running jobs; "
        "overrunning process workers are terminated past it "
        f"(default: {defaults.drain_deadline:g})",
    )
    parser.add_argument(
        "--faults",
        default=defaults.faults,
        metavar="SPEC",
        help="arm deterministic fault injection (chaos testing), e.g. "
        "'seed=7;process.kill:kill:p=0.05' — see repro.serve.faults "
        "(default: $REPRO_FAULTS)",
    )
    parser.add_argument(
        "--registry-dir",
        default=defaults.registry_dir,
        metavar="PATH",
        help="directory of the persistent content-addressed relation "
        "registry behind PUT /relations and relation_ref jobs; without "
        "it an in-memory registry is used (no restart survival) "
        "(default: $REPRO_REGISTRY_DIR)",
    )
    parser.add_argument("--verbose", action="store_true", help="log every HTTP request to stderr")
    return parser


def main_serve(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro serve`` (blocks until interrupted)."""
    args = build_serve_parser().parse_args(argv)
    server = Server(
        workers=args.workers,
        max_queue=args.max_queue,
        max_inflight_per_tenant=args.max_inflight_per_tenant,
        default_timeout=args.timeout,
        max_sessions=args.max_sessions,
        executor=args.executor,
        warmup=args.warmup,
        start_method=args.start_method,
        max_attempts=args.max_attempts,
        restart_budget=args.restart_budget,
        restart_window=args.restart_window,
        degraded_fallback=args.degraded_fallback,
        drain_deadline=args.drain_deadline,
        faults=args.faults,
        registry=args.registry_dir,
        processes=args.processes,
        max_jobs_per_worker=args.max_jobs_per_worker,
    )
    frontend = HttpFrontend(server, host=args.host, port=args.port, verbose=args.verbose)
    host, port = frontend.address
    banner = (
        f"serving on http://{host}:{port} (executor={args.executor}, "
        f"workers={args.workers}, max-queue={args.max_queue})"
    )
    def _on_sigterm(signum, frame):  # pragma: no cover - signal path, tested via subprocess
        raise _GracefulShutdown

    # Installed before the banner prints: the banner is the "ready" signal
    # scripts and tests synchronise on, so SIGTERM must already be graceful
    # by then — and the banner prints inside the try so a signal landing
    # right after it is caught, not raised between statements.
    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        print(banner, flush=True)
        frontend.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("shutting down")
    except _GracefulShutdown:
        # Stop accepting connections first, then drain: running jobs get up
        # to --drain-deadline seconds, queued ones are cancelled.
        print(f"SIGTERM: draining (deadline {args.drain_deadline:g}s)", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        frontend.stop()
        server.close()
        print("drained", flush=True)
    return 0
