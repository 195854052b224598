"""Benchmark of dmfstream: the planner, the plan daemon and the fleet.

  python3 perfbench/run.py --workload stream-curve --seed 1 --seconds 25 \
      --trace 0

Run from the repository root. A run first builds `dmfstream`, and a traced
run also the traced harness, under .bench_build/. With --trace 0 a run
times one workload through the program's user-facing entry points and
prints every end-to-end metric; with --trace 1 it runs the traced
per-layer harness instead (see traced.py). The last stdout line is one
JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Workloads, metrics and reference figures: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
from oracle import check_plan  # noqa: E402

WORKLOADS = ["stream-curve", "optimize-sweep", "serve-hot", "fleet-wfq"]
CONNECTIONS = min(4, os.cpu_count() or 1)
MAX_ERRORS = 20
TRIVIAL = {"ratio": "2:1:1:1:1:1:9", "demand": 2, "cap": 4}
TRIVIAL_CALLS = 5  # back to back, before each round of a CLI workload


class BuildError(RuntimeError):
    pass


def build_dir() -> str:
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def _cmake(args: list[str], log) -> bool:
    return subprocess.run(["cmake", *args], stdout=log, stderr=log).returncode == 0


def build(harness: bool) -> None:
    """Builds dmfstream, and with `harness` the traced harness, from this
    checkout."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BuildError("run from the root of a dmfstream checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    root = build_dir()
    os.makedirs(root, exist_ok=True)
    targets = [("dmfstream", ".", "dmfstream")]
    if harness:
        targets.append(("harness", "perfbench/harness", "perfbench_trace"))
    with open(os.path.join(root, "build.log"), "a") as log:
        for name, source, target in targets:
            tree = os.path.join(root, name)
            if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")) and \
                    not _cmake(["-S", source, "-B", tree,
                                "-DCMAKE_BUILD_TYPE=Release"], log):
                raise BuildError(f"configuring {name} failed; see build.log")
            if not _cmake(["--build", tree, "--target", target, "-j", jobs],
                          log):
                raise BuildError(f"building {name} failed; see build.log")


def dmfstream() -> str:
    return os.path.join(build_dir(), "dmfstream", "tools", "dmfstream")


def out_dir() -> str:
    path = os.path.join(build_dir(), "out")
    os.makedirs(path, exist_ok=True)
    return path


class Run:
    """Counters, samples and check results of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.setup_s = None
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0  # wall time of the timed rounds
        self.peak_rss_kb = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def error(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)
        elif len(self.errors) == MAX_ERRORS:
            self.errors.append("... further errors suppressed")

    def timed_rounds(self, round_fn, setup_probe) -> None:
        """Runs whole rounds until the next would overrun --seconds (at
        least one). Before each round, and outside its time,
        `setup_probe()` times one cold set-up of the program; setup_s is
        the fastest of them."""
        start = time.perf_counter()
        setups = []
        while True:
            setups.append(setup_probe())
            round_start = time.perf_counter()
            round_fn()
            now = time.perf_counter()
            self.timed_s += now - round_start
            if (now - start) * (len(setups) + 1) / len(setups) > self.seconds:
                break
        self.setup_s = min(setups)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def pooled_metrics(self, latencies: list[float]) -> None:
        """Time metrics over every operation of the timed rounds."""
        self.metric("throughput_ops_s", len(latencies) / self.timed_s,
                    "ops/s")
        self._latency_metrics(latencies)

    def best_of_rounds_metrics(self, per_op: list[list[float]]) -> None:
        """Time metrics over each operation's fastest round.

        Every CLI operation is a fresh process, so nothing one round leaves
        behind slows a later one, and a slower program slows every round.
        The shared host does not: its vCPUs run the same call ~1.6x slower
        in spells of seconds, so a round's time depends on when it ran.
        Throughput is one closed-loop client's, at those times."""
        best = [min(times) for times in per_op if times]
        self.metric("throughput_ops_s", len(best) / sum(best), "ops/s")
        self._latency_metrics(best)

    def _latency_metrics(self, seconds: list[float]) -> None:
        ms = [s * 1e3 for s in seconds]
        self.metric("latency_p50_ms", statistics.median(ms), "ms")
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
        self.metric("latency_p90_ms", p90, "ms")
        self.metric("peak_rss_mb", self.peak_rss_kb / 1024, "MB")

    def model_metrics(self, plans: list[tuple[dict, int]],
                      makespans: list[int] | None = None) -> None:
        """Mean over the round's plans of the paper's Tc/D and I/D."""
        self.metric("model_cycles_per_droplet", statistics.fmean(
            p["totalCycles"] / d for p, d in plans), "cycles/droplet")
        self.metric("reactant_per_droplet", statistics.fmean(
            p["totalInput"] / d for p, d in plans), "droplets/droplet")
        if makespans is None:
            makespans = [p["totalCycles"] for p, _ in plans]
        self.metric("makespan_cycles", statistics.fmean(makespans), "cycles")

    def result(self) -> dict:
        if self.setup_s is not None:
            self.metric("setup_s", self.setup_s, "s")
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def spawn(argv: list[str]) -> tuple[float, int, bytes, bytes, int]:
    """Runs one CLI call; returns (seconds, exit code, stdout, stderr,
    peak RSS in KiB) of that child alone, reaping it with wait4."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    # stderr is short (one error line at most), so reading stdout to its
    # end first cannot block the child.
    out = child.stdout.read()
    err = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    child.stderr.close()
    return elapsed, child.returncode, out, err, usage.ru_maxrss


def stream_argv(request: dict) -> list[str]:
    argv = [dmfstream(), "stream", "--ratio", request["ratio"],
            "--demand", str(request["demand"]),
            "--storage", str(request["cap"]), "--jobs", "1", "--json"]
    if request.get("optimize"):
        argv.append("--optimize")
    return argv


def trivial_calls(run: Run):
    """The set-up probe of the CLI workloads: the fastest of a few trivial
    `stream --demand 2` calls, the fixed cost every CLI call pays. The
    first answer is checked by the oracle; later ones must repeat it."""
    first = []

    def probe() -> float:
        times = []
        for _ in range(TRIVIAL_CALLS):
            elapsed, code, out, err, _ = spawn(stream_argv(TRIVIAL))
            if code != 0:
                raise RuntimeError("trivial stream failed: "
                                   + err.decode()[-300:])
            times.append(elapsed)
            if not first:
                first.append(out)
                for problem in check_plan(json.loads(out), TRIVIAL["ratio"],
                                          TRIVIAL["demand"], TRIVIAL["cap"]):
                    run.error("trivial stream: " + problem)
            elif out != first[0]:
                run.error("trivial stream: output differs between calls")
        return min(times)

    return probe


def timed_cli(run: Run, argvs: list[list[str]]) -> list:
    """Closed loop of one CLI process per operation, whole rounds of
    `argvs`, with the trivial set-up calls before each round. Returns each
    operation's stdout from the first round; later rounds must reproduce it
    byte for byte."""
    outputs: list = [None] * len(argvs)
    per_op: list[list[float]] = [[] for _ in argvs]

    def one_round():
        for i, argv in enumerate(argvs):
            run.attempted += 1
            elapsed, code, out, err, rss = spawn(argv)
            if code != 0:
                run.failed += 1
                outputs[i] = outputs[i] or b""
                continue
            per_op[i].append(elapsed)
            run.peak_rss_kb = max(run.peak_rss_kb, rss)
            if outputs[i] is None:
                outputs[i] = out
            elif outputs[i] != out:
                run.error(f"operation {i}: output differs between rounds")

    run.timed_rounds(one_round, trivial_calls(run))
    run.best_of_rounds_metrics(per_op)
    return outputs


def plan_workload(run: Run) -> None:
    """stream-curve and optimize-sweep: one cold `dmfstream stream` per
    request."""
    requests = inputs.plan_requests(run.workload, run.seed)
    outputs = timed_cli(run, [stream_argv(r) for r in requests])
    plans = []
    for request, out in zip(requests, outputs):
        if not out:
            continue
        plan = json.loads(out)
        for problem in check_plan(plan, request["ratio"], request["demand"],
                                  request["cap"]):
            run.error(f"{request}: {problem}")
        plans.append((plan, request["demand"]))
        if request["optimize"]:
            plain = dict(request, optimize=False)
            _, code, out, err, _ = spawn(stream_argv(plain))
            if code != 0:
                run.error(f"{plain}: plain planner failed")
                continue
            bound = json.loads(out)["totalCycles"]
            if plan["totalCycles"] > bound:
                run.error(f"{request}: optimized totalCycles "
                          f"{plan['totalCycles']} > plain {bound}")
    run.model_metrics(plans)


class Daemon:
    """A `dmfstream serve --jobs 1` daemon whose stderr is drained."""

    def __init__(self):
        self.process = subprocess.Popen(
            [dmfstream(), "serve", "--port", "0", "--jobs", "1",
             "--log-level", "warn"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        self.port = None
        ready = threading.Event()
        self.log: list[bytes] = []

        def drain():
            for line in self.process.stderr:
                if self.port is None and line.startswith(b"listening on "):
                    self.port = int(line.split(b":")[-1])
                    ready.set()
                elif len(self.log) < 100:
                    self.log.append(line)
            ready.set()

        self.drainer = threading.Thread(target=drain, daemon=True)
        self.drainer.start()
        if not ready.wait(30) or self.port is None:
            self.stop()
            raise RuntimeError("serve did not start: "
                               + b"".join(self.log).decode()[-300:])

    def connect(self) -> socket.socket:
        return socket.create_connection(("127.0.0.1", self.port), timeout=30)

    def request(self, line: str) -> bytes:
        """One request on a fresh connection, which has no Nagle stall.

        The connection is closed with a reset: a graceful close leaves the
        client's port in TIME_WAIT for a minute, and a few thousand of those
        slow every later connect."""
        with self.connect() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.sendall(line.encode() + b"\n")
            return read_line(sock)

    def status(self, field: str) -> float:
        """A VmXxx field of /proc/<pid>/status, in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError(f"no {field} in daemon status")

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.request('{"op":"shutdown"}')
                self.process.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        self.drainer.join(timeout=5)
        self.process.stderr.close()


def read_line(sock: socket.socket) -> bytes:
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        data += chunk
    return data


def plan_bytes(response: bytes) -> bytes:
    """The plan object of a response line, byte for byte."""
    return response[response.index(b'"plan":') + 7:-2]


class Client:
    """One closed-loop connection that reconnects every few requests."""

    def __init__(self, daemon: Daemon):
        self.daemon = daemon
        self.sock = None
        self.left = 0
        self.index = -1
        self.sent = 0.0
        self.buffer = b""

    def send(self, index: int, line: bytes) -> socket.socket:
        if self.left == 0:
            if self.sock is not None:
                self.sock.close()
            self.sock = self.daemon.connect()
            self.left = inputs.SERVE_RECONNECT_EVERY
        self.left -= 1
        self.index = index
        self.buffer = b""
        self.sent = time.perf_counter()
        self.sock.sendall(line)
        return self.sock


def warmed_daemon(warm_lines: list[tuple[str, str]]):
    """Launches a daemon and warms it with every key, then its alias, each
    on its own connection. Returns the daemon, its set-up time (launch until
    listening, plus the warm-up) and the warm-up answers."""
    start = time.perf_counter()
    daemon = Daemon()
    try:
        warm = [(daemon.request(key), daemon.request(alias))
                for key, alias in warm_lines]
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start, warm


def serve_hot(run: Run) -> None:
    """Cache hits over the socket from CONNECTIONS closed-loop clients."""
    working_set = inputs.serve_working_set(run.seed)
    round_ = inputs.serve_round(run.seed, working_set)
    warm_lines = [(inputs.serve_line(request, request["ratio"]),
                   inputs.serve_line(request, inputs.alias(request["ratio"])))
                  for request in working_set]
    daemon, _, warm = warmed_daemon(warm_lines)
    clients = []
    try:
        keys, cold = [], []
        for request, (response, aliased) in zip(working_set, warm):
            reply = json.loads(response)
            if reply.get("source") != "planned":
                raise RuntimeError(f"warm-up of {request}: {response[:200]}")
            keys.append(reply["key"])
            cold.append(plan_bytes(response))
            for problem in check_plan(reply["plan"], request["ratio"],
                                      request["demand"], request["cap"]):
                run.error(f"{request}: {problem}")
            reply = json.loads(aliased)
            if (reply.get("source") != "cache" or reply["key"] != keys[-1]
                    or plan_bytes(aliased) != cold[-1]):
                run.error(f"alias of {request}: {aliased[:200]}")
        lines = [(inputs.serve_line(working_set[i], spelling) + "\n").encode()
                 for i, spelling in round_]
        clients = [Client(daemon) for _ in range(CONNECTIONS)]
        responses: list[bytes] = []
        latencies: list[float] = []

        def setup_probe() -> float:
            """A fresh daemon's set-up, which must answer as the first."""
            probe, elapsed, answers = warmed_daemon(warm_lines)
            probe.stop()
            if answers != warm:
                run.error("a fresh daemon's warm-up answers differ")
            return elapsed

        def one_round():
            selector = selectors.DefaultSelector()
            pending = iter(range(len(lines)))
            active = 0
            for client in clients:
                index = next(pending, None)
                if index is not None:
                    selector.register(client.send(index, lines[index]),
                                      selectors.EVENT_READ, client)
                    active += 1
            while active:
                for key, _ in selector.select():
                    client = key.data
                    chunk = client.sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("daemon closed a connection")
                    client.buffer += chunk
                    if not client.buffer.endswith(b"\n"):
                        continue
                    latencies.append(time.perf_counter() - client.sent)
                    run.attempted += 1
                    responses.append(client.buffer)
                    selector.unregister(client.sock)
                    index = next(pending, None)
                    if index is None:
                        active -= 1
                    else:
                        selector.register(client.send(index, lines[index]),
                                          selectors.EVENT_READ, client)
            selector.close()

        run.timed_rounds(one_round, setup_probe)
        run.peak_rss_kb = daemon.status("VmHWM") * 1024
    finally:
        for client in clients:
            if client.sock is not None:
                client.sock.close()
        daemon.stop()

    # Responses arrive in completion order; match them by key.
    by_key = {key: (i, plan) for i, (key, plan) in enumerate(zip(keys, cold))}
    for response in responses:
        reply = json.loads(response)
        if not reply.get("ok"):
            run.failed += 1
            continue
        entry = by_key.get(reply.get("key"))
        if reply.get("source") != "cache" or entry is None:
            run.error(f"timed response is not a cache hit: {response[:200]}")
        elif plan_bytes(response) != entry[1]:
            run.error(f"hit for {reply['key']} differs from its cold plan")
    run.pooled_metrics(latencies)
    run.model_metrics([(json.loads(cold[i]), working_set[i]["demand"])
                       for i, _ in round_])


def fleet_argv(mix: dict, kill: bool) -> list[str]:
    argv = [dmfstream(), "fleet", "--users",
            inputs.fleet_users_spec(mix["users"]),
            "--fleet", str(inputs.FLEET_CHIPS), "--policy", "wfq",
            "--jobs", "1"]
    if kill:
        return argv + ["--json", "--placement", "--kill", mix["kill"]]
    return argv + ["--plans-only"]


def check_fleet(run: Run, mix: dict, result: dict, plain: dict) -> None:
    where = f"fleet mix of {len(mix['users'])} users, kill {mix['kill']}"
    completed = {}
    for record in result["placement"]:
        if record["completed"]:
            slot = (record["user"], record["pass"])
            completed[slot] = completed.get(slot, 0) + 1
    planned = {(u, p) for u, user in enumerate(result["users"])
               for p in range(len(user["plan"]["passes"]))}
    if set(completed) != planned or any(n != 1 for n in completed.values()):
        run.error(f"{where}: passes not completed exactly once")
    busy = [chip["busyCycles"] for chip in result["chips"]]
    service = sum(user["serviceCycles"] for user in result["users"])
    if sum(busy) != service:
        run.error(f"{where}: chip busy {sum(busy)} != user service {service}")
    summary = result["summary"]
    if summary["migrations"] < 1:
        run.error(f"{where}: the kill migrated nothing")
    if summary["makespan"] < max(busy):
        run.error(f"{where}: makespan below a chip's busy cycles")
    plans = [user["plan"] for user in result["users"]]
    if plans != [user["plan"] for user in plain["users"]]:
        run.error(f"{where}: plans differ with and without the kill")
    for user, plan in zip(mix["users"], plans):
        for problem in check_plan(plan, user["ratio"], user["demand"],
                                  user["cap"]):
            run.error(f"{where}: user {user}: {problem}")


def fleet_wfq(run: Run) -> None:
    """One `dmfstream fleet` dispatch with a chip kill per operation."""
    mixes = inputs.fleet_mixes(run.seed)
    outputs = timed_cli(run, [fleet_argv(m, True) for m in mixes])
    plans, makespans = [], []
    for mix, out in zip(mixes, outputs):
        if not out:
            continue
        result = json.loads(out)
        _, code, plain, err, _ = spawn(fleet_argv(mix, False))
        if code != 0:
            run.error(f"fleet without kill failed: {err.decode()[-200:]}")
            continue
        check_fleet(run, mix, result, json.loads(plain))
        plans += [(user["plan"], spec["demand"])
                  for user, spec in zip(result["users"], mix["users"])]
        makespans.append(result["summary"]["makespan"])
    run.model_metrics(plans, makespans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    run = Run(args.workload, args.seed, args.seconds)
    try:
        build(harness=bool(args.trace))
        if args.trace:
            import traced
            traced.run(run)
        else:
            {"stream-curve": plan_workload, "optimize-sweep": plan_workload,
             "serve-hot": serve_hot, "fleet-wfq": fleet_wfq}[args.workload](run)
    except (BuildError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for message in run.errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
