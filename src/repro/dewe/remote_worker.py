"""Standalone worker-daemon process.

Run one DEWE v2 worker daemon in its own OS process, connected to a
:class:`~repro.mq.tcpbroker.BrokerServer` — the deployment shape of the
paper, where every node runs a worker daemon whose only configuration is
the broker address::

    python -m repro.dewe.remote_worker --host 127.0.0.1 --port 5672 \
        --name node-7 --slots 32

The process exits on SIGTERM/SIGINT or after ``--idle-exit`` seconds
without executing a job (useful for tests and elastic scale-in).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.dewe.config import DeweConfig
from repro.dewe.executors import CallableExecutor, NullExecutor, SubprocessExecutor
from repro.dewe.worker import WorkerDaemon
from repro.liveness import LeaseConfig
from repro.mq.tcpbroker import RemoteBroker

EXECUTORS = {
    "callable": CallableExecutor,
    "subprocess": SubprocessExecutor,
    "null": NullExecutor,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker", description="Run a DEWE v2 worker daemon."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--name", default="remote-worker")
    parser.add_argument("--slots", type=int, default=0,
                        help="concurrent jobs; 0 = one per CPU")
    parser.add_argument("--executor", choices=sorted(EXECUTORS), default="subprocess")
    parser.add_argument("--idle-exit", type=float, default=0.0,
                        help="exit after this many idle seconds (0 = run forever)")
    parser.add_argument("--heartbeat", type=float, default=0.0,
                        help="renew the liveness lease this often in seconds "
                             "(0 = no heartbeats; docs/FAULTS.md)")
    args = parser.parse_args(argv)

    lease = LeaseConfig(heartbeat_interval=args.heartbeat) if args.heartbeat else None
    config = DeweConfig(max_concurrent_jobs=args.slots, liveness=lease)
    broker = RemoteBroker(args.host, args.port)
    worker = WorkerDaemon(
        broker, EXECUTORS[args.executor](), config, name=args.name
    ).start()
    print(f"worker {args.name} connected to {args.host}:{args.port}", flush=True)

    last_progress = time.monotonic()
    seen = 0
    try:
        while True:
            # Condition-wait on the worker's progress counters instead of
            # polling them (lint CL008); wakes on every job outcome.
            done = worker.wait_progress(seen, timeout=0.25)
            if done > seen:
                seen = done
                last_progress = time.monotonic()
            if args.idle_exit > 0 and time.monotonic() - last_progress > args.idle_exit:
                break
    except KeyboardInterrupt:
        pass
    finally:
        worker.stop()
        broker.close()
    print(f"worker {args.name} exiting after {seen} jobs", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
