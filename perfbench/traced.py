"""The traced per-layer run (`run.py --trace 1`).

The harness (harness/trace_harness.cpp) calls each layer's public entry
point in-process on the workload's inputs and records every call as a span.
This module adds the spans it times itself: cold CLI calls, to split CLI
overhead from planning, and a live daemon's connect and ping round trips.
All spans stay in memory until the run ends and then go, one JSON object a
line, to .bench_build/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time

import inputs
import run as bench
from oracle import check_plan

# Every per-layer metric, with its unit, in BENCHMARK.json's order.
UNITS = {
    "mixgraph.build_us": "us",
    "forest.build_ns_per_task": "ns/task",
    "forest.tasks_at_D": "count",
    "sched.srs_ms_at_D": "ms",
    "sched.srs_ns_per_task": "ns/task",
    "sched.mms_ns_per_task": "ns/task",
    "sched.storage_ns_per_task": "ns/task",
    "engine.plan_ms": "ms",
    "engine.eval_pass_ms_at_Dprime": "ms",
    "cli.overhead_ms": "ms",
    "report.serialize_us": "us",
    "report.plan_bytes": "bytes",
    "server.parse_canon_us": "us",
    "server.cache_get_us": "us",
    "server.handle_hit_us": "us",
    "server.handle_cold_ms": "ms",
    "server.ping_rtt_us": "us",
    "server.connect_us": "us",
    "server.vmsize_mb_end": "MB",
    "fleet.dispatch_ms": "ms",
    "fleet.plan_ms": "ms",
    "fleet.placement_ms": "ms",
    "fleet.placements": "count",
    "fleet.migrations": "count",
    "trace.wall_s": "s",
}
HARNESS_SHARE = 0.5  # of --seconds, for the in-process harness rounds
PROBES = 20


class Spans:
    """Spans timed from Python, in the harness's record format."""

    def __init__(self, first_id: int):
        self.records: list[dict] = []
        self.next_id = first_id
        self.origin = time.perf_counter_ns()

    def add(self, name: str, start_ns: int, end_ns: int, item: int) -> float:
        self.records.append({"id": self.next_id, "parent": 0, "name": name,
                             "start_ns": start_ns - self.origin,
                             "dur_ns": end_ns - start_ns, "round": 0,
                             "item": item})
        self.next_id += 1
        return (end_ns - start_ns) / 1e3


def plan_items(workload: str, seed: int) -> list[dict]:
    """The streaming requests the workload plans."""
    if workload == "serve-hot":
        return inputs.serve_working_set(seed)
    if workload == "fleet-wfq":
        return [dict(user, optimize=False)
                for mix in inputs.fleet_mixes(seed) for user in mix["users"]]
    return inputs.plan_requests(workload, seed)


def run(result: bench.Run) -> None:
    start_s = time.perf_counter()
    plans = plan_items(result.workload, result.seed)
    working_set = inputs.serve_working_set(result.seed)
    mixes = inputs.fleet_mixes(result.seed)
    out = bench.out_dir()
    stem = os.path.join(out, f"trace-{result.workload}-{result.seed}")
    with open(stem + ".input", "w") as spec:
        for p in plans:
            spec.write("plan %s %d %d %d\n" % (p["ratio"], p["demand"],
                                               p["cap"], p["optimize"]))
        for request in working_set:
            spec.write("serve " + inputs.serve_line(request, request["ratio"])
                       + "\n")
        for mix in mixes:
            spec.write("fleet %s %s\n" % (inputs.fleet_users_spec(mix["users"]),
                                          mix["kill"]))
    harness = os.path.join(bench.build_dir(), "harness", "perfbench_trace")
    done = subprocess.run(
        [harness, stem + ".input", str(result.seconds * HARNESS_SHARE),
         stem + ".jsonl", stem + ".plans"], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("traced harness failed: " + done.stderr[-500:])
    summary = json.loads(done.stdout)
    metrics = summary["metrics"]
    rounds = summary["rounds"]
    result.attempted += rounds * (len(plans) + len(working_set) + len(mixes))

    with open(stem + ".plans") as lines:
        checked = 0
        for line in lines:
            entry = json.loads(line)
            for problem in check_plan(entry["plan"], entry["ratio"],
                                      entry["demand"], entry["cap"]):
                result.error(f"harness plan {entry['ratio']} "
                             f"D={entry['demand']}: {problem}")
            checked += 1
    if checked != len(plans):
        result.error(f"harness wrote {checked} of {len(plans)} plans")

    with open(stem + ".jsonl") as spans_file:
        last_id = sum(1 for _ in spans_file)
    spans = Spans(last_id + 1)

    # CLI overhead: a cold CLI call less in-process planning of the same
    # request.
    overhead = []
    for i, p in enumerate(plans):
        start = time.perf_counter_ns()
        _, code, _, err, _ = bench.spawn(bench.stream_argv(p))
        elapsed_us = spans.add("cli.stream", start, time.perf_counter_ns(), i)
        result.attempted += 1
        if code != 0:
            raise RuntimeError("stream failed: " + err.decode()[-300:])
        overhead.append(elapsed_us / 1e3 - summary["plan_ms_by_item"][i])
    metrics["cli.overhead_ms"] = statistics.median(overhead)

    daemon = bench.Daemon()
    try:
        connect, ping = [], []
        for i in range(PROBES):
            start = time.perf_counter_ns()
            with daemon.connect() as sock:
                sock.sendall(b'{"op":"ping"}\n')
                bench.read_line(sock)
            connect.append(spans.add("server.connect_ping", start,
                                     time.perf_counter_ns(), i))
        with daemon.connect() as sock:
            sock.sendall(b'{"op":"ping"}\n')
            bench.read_line(sock)
            for i in range(PROBES // 2):
                start = time.perf_counter_ns()
                sock.sendall(b'{"op":"ping"}\n')
                bench.read_line(sock)
                ping.append(spans.add("server.ping", start,
                                      time.perf_counter_ns(), i))
        result.attempted += len(connect) + len(ping) + 1
        metrics["server.connect_us"] = statistics.median(connect)
        metrics["server.ping_rtt_us"] = statistics.median(ping)
        metrics["server.vmsize_mb_end"] = daemon.status("VmSize")
    finally:
        daemon.stop()

    with open(stem + ".jsonl", "a") as spans_file:
        for record in spans.records:
            spans_file.write(json.dumps(record) + "\n")
    metrics["trace.wall_s"] = time.perf_counter() - start_s
    for name, unit in UNITS.items():
        result.metric(name, metrics[name], unit)
