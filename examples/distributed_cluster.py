#!/usr/bin/env python
"""A real multi-process DEWE v2 cluster on one machine.

Topology (paper §III.B, with TCP in place of RabbitMQ):

* this process runs the broker server and the master daemon;
* N worker daemons run as separate OS processes, each knowing nothing
  but the broker address (`python -m repro.dewe.remote_worker`);
* the submission application hands over a workflow whose jobs are argv
  commands, and the stateless workers race for them.
"""

import subprocess
import sys

from repro import DeweConfig, MasterDaemon, submit_workflow
from repro.mq.tcpbroker import BrokerServer, RemoteBroker
from repro.workflow import Workflow

N_WORKERS = 3


def build_workflow() -> Workflow:
    """A two-level fan of tiny shell jobs."""
    wf = Workflow("distributed-demo")
    for i in range(12):
        wf.new_job(f"fan_{i:02d}", "fan", action=["true"])
    wf.new_job("collect", "collect", action=["true"])
    for i in range(12):
        wf.add_dependency(f"fan_{i:02d}", "collect")
    return wf


def main() -> None:
    config = DeweConfig(default_timeout=30.0)
    with BrokerServer() as server:
        host, port = server.address
        print(f"broker listening on {host}:{port}")

        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.dewe.remote_worker",
                    "--host", host, "--port", str(port),
                    "--name", f"node-{k}", "--slots", "4",
                    "--executor", "subprocess", "--idle-exit", "5",
                ]
            )
            for k in range(N_WORKERS)
        ]
        print(f"started {N_WORKERS} worker processes: "
              f"{[w.pid for w in workers]}")

        try:
            with RemoteBroker(host, port) as master_conn, RemoteBroker(
                host, port
            ) as submit_conn, MasterDaemon(master_conn, config) as master:
                wf = build_workflow()
                submit_workflow(submit_conn, wf)
                ok = master.wait(wf.name, timeout=60.0)
                _wf, snapshot = master.settled[wf.name]
                print(f"workflow completed: {ok} "
                      f"({snapshot.counts()['completed']}/{len(snapshot.job_ids)} jobs, "
                      f"{master.makespan(wf.name):.2f} s)")
                print("broker stats:", master_conn.stats())
        finally:
            for w in workers:
                w.terminate()
                w.wait(timeout=10)
    print("all worker processes terminated")


if __name__ == "__main__":
    main()
