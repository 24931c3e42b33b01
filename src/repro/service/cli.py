"""CLI verbs for the simulation service.

Reachable both as ``python -m repro.service <verb>`` and through the
experiments front door (``python -m repro.experiments serve|submit|...``
delegates here).  Verbs:

* ``serve``   — run the resident daemon (drains gracefully on SIGTERM)
* ``submit``  — admit a job; ``--wait`` polls it to completion
* ``status``  — one job's lifecycle state
* ``result``  — fetch a done job's deterministic result payload
* ``stats``   — daemon introspection (uptime, queue, cache hit rates)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path

from repro.workloads.tracecache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR

#: Verbs the experiments __main__ forwards to this module.
SERVICE_VERBS = ("serve", "submit", "status", "result", "stats")

#: Window used by ``submit --smoke`` (mirrors the sweep CLI's smoke run).
SMOKE_WINDOW = 2_000


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR),
        help=f"shared cache + service directory"
             f" (default ${CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service: resident daemon and client.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    serve = sub.add_parser("serve", help="run the resident daemon")
    _add_common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; published in endpoint.json)",
    )
    serve.add_argument(
        "--worker-budget", type=int, default=None,
        help="max worker processes one request may ask for"
             " (default: CPU count); larger requests are rejected",
    )
    serve.add_argument(
        "--store", metavar="DIR", default=None,
        help="content-addressed result store directory (default"
             " <cache-dir>/store); give each daemon of a sharded fleet"
             " its own store and union them with 'shard-merge'",
    )

    submit = sub.add_parser("submit", help="admit a job to the daemon")
    _add_common(submit)
    submit.add_argument(
        "kind", help="request kind (see 'list': simulate, sweep, trace)"
    )
    submit.add_argument(
        "target", nargs="?", default=None,
        help="workload name (simulate/trace kinds)",
    )
    submit.add_argument("--window", type=int, default=None)
    submit.add_argument(
        "--smoke", action="store_true",
        help=f"use the smoke window ({SMOKE_WINDOW}) unless --window is set",
    )
    submit.add_argument(
        "--config", default=None,
        help="PFM configuration label (paper notation)",
    )
    submit.add_argument(
        "--workloads", default=None,
        help="comma list of workloads (sweep kind; default: all)",
    )
    submit.add_argument(
        "--configs", default=None,
        help="semicolon list of config labels (sweep kind; default grid)",
    )
    submit.add_argument(
        "--shard", metavar="I/N", default=None,
        help="run only shard I of N of the sweep grid into the daemon's"
             " result store (sweep kind; see 'shard-merge')",
    )
    submit.add_argument("--ring", type=int, default=None,
                        help="telemetry ring capacity (trace kind)")
    submit.add_argument("--sample-period", type=int, default=None,
                        help="sampler cadence in cycles (trace kind)")
    submit.add_argument("--jobs", type=int, default=1,
                        help="worker processes for this job (default 1)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes, then print/"
                             "write the result")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds (default 600)")
    submit.add_argument("--json", metavar="FILE", default=None,
                        help="with --wait: write the result payload to FILE")

    for verb, help_text in (
        ("status", "one job's lifecycle state"),
        ("result", "fetch a done job's result payload"),
    ):
        p = sub.add_parser(verb, help=help_text)
        _add_common(p)
        p.add_argument("job_id")
        if verb == "result":
            p.add_argument("--json", metavar="FILE", default=None,
                           help="write the result payload to FILE")

    stats = sub.add_parser("stats", help="daemon introspection snapshot")
    _add_common(stats)

    return parser


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #


async def _serve(args) -> int:
    from repro.service.server import ServiceConfig, SimulationService

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        worker_budget=args.worker_budget,
        store_dir=args.store,
    )
    service = SimulationService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, service.request_shutdown)
        except NotImplementedError:  # pragma: no cover - non-posix loops
            pass
    print(
        f"repro service listening on {config.host}:{service.port}"
        f" (cache {args.cache_dir})",
        flush=True,
    )
    await service.serve_until_shutdown()
    print("repro service drained and stopped", flush=True)
    return 0


# --------------------------------------------------------------------- #
# client verbs
# --------------------------------------------------------------------- #


def _build_request(args) -> tuple[str, dict]:
    """Translate submit flags into a wire request payload."""
    window = args.window
    if window is None and args.smoke:
        window = SMOKE_WINDOW
    request: dict = {}
    if window is not None:
        request["window"] = window
    if args.jobs != 1:
        request["jobs"] = args.jobs
    kind = args.kind
    if kind == "simulate":
        if not args.target:
            raise SystemExit("submit simulate needs a workload name")
        request["workload"] = args.target
        if args.config:
            request["config"] = args.config
    elif kind == "trace":
        if args.target:
            request["target"] = args.target
        if args.config:
            request["config"] = args.config
        if args.ring is not None:
            request["ring"] = args.ring
        if args.sample_period is not None:
            request["sample_period"] = args.sample_period
    elif kind == "sweep":
        if args.workloads:
            request["workloads"] = [
                part for part in args.workloads.replace(",", " ").split()
                if part
            ]
        if args.configs:
            request["configs"] = [
                part.strip() for part in args.configs.split(";") if part.strip()
            ]
        if args.shard:
            request["shard"] = args.shard  # "I/N"; validated server-side
    return kind, request


def _client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(cache_dir=args.cache_dir)


def _submit(args) -> int:
    from repro.service.client import ServiceError

    kind, request = _build_request(args)
    client = _client(args)
    try:
        admitted = client.submit(kind, request)
    except ServiceError as exc:
        print(f"rejected: {exc.reason}", file=sys.stderr)
        return 1
    job_id = admitted["job_id"]
    print(f"{job_id} queued (depth {admitted['queue_depth']})")
    if not args.wait:
        return 0
    status = client.wait(job_id, timeout=args.timeout)
    if status["state"] != "done":
        print(
            f"{job_id} {status['state']}:"
            f" {status.get('error', 'no error recorded')}",
            file=sys.stderr,
        )
        return 1
    data = client.result(job_id)
    if args.json:
        Path(args.json).write_bytes(data)
        print(f"{job_id} done; result written to {args.json}")
    else:
        sys.stdout.write(data.decode())
    return 0


def _status(args) -> int:
    print(json.dumps(_client(args).status(args.job_id), sort_keys=True,
                     indent=2))
    return 0


def _result(args) -> int:
    from repro.service.client import ServiceError

    try:
        data = _client(args).result(args.job_id)
    except ServiceError as exc:
        print(f"{args.job_id}: {exc.reason}", file=sys.stderr)
        return 1
    if args.json:
        Path(args.json).write_bytes(data)
        print(f"result written to {args.json}")
    else:
        sys.stdout.write(data.decode())
    return 0


def _stats(args) -> int:
    print(json.dumps(_client(args).stats(), sort_keys=True, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "serve":
        return asyncio.run(_serve(args))
    from repro.service.client import ServiceUnavailable

    handler = {
        "submit": _submit,
        "status": _status,
        "result": _result,
        "stats": _stats,
    }[args.verb]
    try:
        return handler(args)
    except ServiceUnavailable as exc:
        print(exc.reason, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
