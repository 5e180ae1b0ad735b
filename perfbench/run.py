"""The repository benchmark: one command, every workload, checked.

Run from the repository root::

    python3 perfbench/run.py --workload strict-hotpath --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` runs the workload twice, untraced and then
with timing wrappers on every layer, and prints the per-layer table,
the layer-sum coverage and the tracing overhead.  Every run checks the
program's decisions against an oracle; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) and the exit code is nonzero when a check fails.

Workload definitions, rate ladders and latency limits live in
``BENCHMARK.json``; see ``perfbench/README.md`` for what each number
means and which layer it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_S, kernel_seconds  # noqa: E402

WORKLOADS = ("strict-hotpath", "bank-tiered-open", "wire-v2-audited")
#: Whole-run budget; the contract allows 180 s per run.
RUN_BUDGET_S = 170.0
#: Requests in one strict-hotpath closed-loop pass (fresh PDP each pass).
STRICT_PASS = 4000
#: Decisions between host-speed probes in the in-process closed loops
#: (about 0.1 s for strict-hotpath, 0.2 s for the bank).
CLOSED_CHUNK = 500
#: Requests per segment of the wire closed loop; each runs to its last
#: answer and a host-speed probe follows.
WIRE_SEGMENT = 500
#: One-at-a-time requests per wire run, for the served decision's
#: service time (``decide_p50_ms``).
WIRE_SEQUENTIAL = 600
#: Rounds of closed loop then reference phase in an untraced wire run
#: (the traced run keeps one round, so one window holds its reference
#: phase).
WIRE_ROUNDS = 3
#: Set-ups timed per run (the reported set-up time is their median);
#: the bank's three, with their 200k-record preloads, are about half of
#: its run time.
SETUPS = {"strict-hotpath": 5, "bank-tiered-open": 3, "wire-v2-audited": 5}
#: Shares of the measured time: closed loop, the whole ladder, the
#: reference phase (open loop at the reference rate, where an open-loop
#: workload reports p50/p99) and the policy-swap phase (bank only).
SHARES = {
    "strict-hotpath": (0.7, 0.3, 0.0, 0.0),
    "bank-tiered-open": (0.3, 0.35, 0.25, 0.1),
    "wire-v2-audited": (0.6, 0.2, 0.2, 0.0),
}
#: Closed-loop decisions per measured second, used to size the
#: fixed-count phases of the open-loop workloads (about the capacity
#: measured when the benchmark was defined: a faster program finishes
#: the same work sooner, and every phase starts on the same store state).
NOMINAL_CLOSED_RPS = {"bank-tiered-open": 2500, "wire-v2-audited": 1100}
#: Unmeasured decisions before the closed loop (hot tier, SQLite index).
WARMUP = {"bank-tiered-open": 1000, "wire-v2-audited": 1000}
#: Requests in flight on the wire closed loop (one pipelined connection):
#: the pipelined v2 run of benchmarks/bench_serving.py (8 clients x 32 on
#: one connection), and the top of a 1..256 sweep (perfbench/README.md).
WIRE_CALLERS = 256
WIRE_SHARDS = 2
AUDIT_KEY = "audit-trail-key"
#: Decisions after each policy swap whose latency forms post_swap_p99.
POST_SWAP_WINDOW = 200


class BenchError(Exception):
    """A job failed to run (not a wrong decision: that is ``correct``)."""


class Context:
    def __init__(self, root: str, workload: str, seed: int, seconds: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        from workloads import load_spec

        self.spec = load_spec(os.path.join(root, "BENCHMARK.json"), workload)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.jobs = 0
        self.children: list[subprocess.Popen] = []

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def spans_path(self, name: str) -> str:
        """Span dumps outlive the run, for inspection: ``_traces/<workload>/``."""
        folder = os.path.join(HERE, "_traces", self.workload)
        os.makedirs(folder, exist_ok=True)
        return os.path.join(folder, name)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("run budget exhausted")
        return left

    def job(self, role: str, **config) -> dict:
        """Run one worker process to completion; return its result."""
        self.jobs += 1
        tag = f"{self.jobs:02d}-{role}"
        config.setdefault("seed", self.seed)
        config["out"] = self.path(f"{tag}.json")
        config_path = self.path(f"{tag}.config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        command = [sys.executable, os.path.join(HERE, "worker.py"), role, config_path]
        before = kernel_seconds(wall=True)
        spawned = time.monotonic()
        with open(self.path(f"{tag}.log"), "wb") as log:
            try:
                completed = subprocess.run(
                    command, cwd=self.root, env=self.env, stdout=log,
                    stderr=subprocess.STDOUT, timeout=self.remaining(),
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{role} timed out") from exc
        if completed.returncode != 0:
            raise BenchError(f"{role} exited {completed.returncode}: {self._tail(tag)}")
        with open(config["out"], encoding="utf-8") as handle:
            result = json.load(handle)
        if "ready" in result:
            raw = result["ready"] - spawned - result["setup_probe_s"]
            result.update(setup_raw_s=raw, setup_s=scaled_setup(raw, [before] + result["setup_kernel_s"]))
        return result

    def _tail(self, tag: str) -> str:
        with open(self.path(f"{tag}.log"), "rb") as handle:
            return handle.read()[-1500:].decode(errors="replace")

    # -- the served workload -------------------------------------------
    def start_server(self, name: str, spans: str | None = None) -> dict:
        """Start ``repro serve`` through the launcher; wait until it
        accepts connections.  Returns the server's handles and set-up time."""
        files = {
            "db": self.path(f"{name}.db"),
            "audit": self.path(f"{name}-audit"),
            "report": self.path(f"{name}-report.json"),
            "log": self.path(f"{name}.log"),
        }
        cpu = server_cpu()
        command = [sys.executable, os.path.join(HERE, "serve.py"), files["report"], "-" if cpu is None else str(cpu)]
        if spans:
            command.append(spans)
        command += [
            "--", "serve", self.path("policy.xml"),
            "--store", f"sqlite:{files['db']}",
            "--port", "0", "--shards", str(WIRE_SHARDS), "--relaxed",
            "--audit-dir", files["audit"], "--audit-key", AUDIT_KEY,
        ]
        before = kernel_seconds(wall=True)
        spawned = time.monotonic()
        log = open(files["log"], "wb")
        process = subprocess.Popen(
            command, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=log,
        )
        log.close()
        self.children.append(process)
        port = None
        buffer = b""
        limit = time.monotonic() + min(60.0, self.remaining())
        while port is None:
            if process.poll() is not None or time.monotonic() > limit:
                raise BenchError(f"server {name} did not start")
            ready, _, _ = select.select([process.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(process.stdout.fileno(), 4096)
                buffer += chunk
                for line in buffer.decode(errors="replace").splitlines():
                    if line.startswith("serving MSoD decisions on "):
                        port = int(line.split()[4].rsplit(":", 1)[1])
        raw = time.monotonic() - spawned
        setup = scaled_setup(raw, [before, kernel_seconds(wall=True)])
        return dict(files, process=process, port=port, setup_raw_s=raw, setup_s=setup)

    def stop_server(self, server: dict) -> dict:
        process = server["process"]
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=min(60.0, self.remaining()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise BenchError("server did not drain after SIGTERM")
        self.children.remove(process)
        if process.returncode != 0:
            raise BenchError(f"server exited {process.returncode}")
        with open(server["report"], encoding="utf-8") as handle:
            return json.load(handle)

    def close(self) -> None:
        for process in self.children:
            if process.poll() is None:
                process.kill()
            process.wait()
        self.children.clear()
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metrics helpers
# ---------------------------------------------------------------------------
def server_cpu() -> int | None:
    """The CPU the wire's server is pinned to (the client takes the
    others), or None on a single-CPU machine."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1] if len(cpus) > 1 else None


def scaled_setup(raw: float, kernel: list[float]) -> float:
    """A set-up time scaled to the reference host speed by the median
    of the wall-clock host-speed probes around and inside it.  A set-up
    is a cold start (process launch, imports from disk, the bank's
    preload), so it is scaled whole, by wall-clock probes that see the
    same stolen time: in three ten-run sets on the host the benchmark
    was defined on, its median moved 5% at most this way, against 18%
    unscaled."""
    return raw * REFERENCE_S / statistics.median(kernel)



def open_phases(run: dict) -> list[dict]:
    """The run's open-loop phases in the order they ran, labelled."""
    phases = []
    if "reference" in run:
        phases.append(dict(run["reference"], rate=f"ref {run['reference']['rate']:g}"))
    if "swapping" in run:
        phases.append(dict(run["swapping"], rate=f"swap {run['swapping']['rate']:g}"))
    return phases + run["steps"]


def slo_rate(steps: list[dict]) -> float:
    """Achieved rate of the highest ladder step meeting the limit with
    no failure and no growing backlog (the ladder stops at a miss)."""
    passed = [step["achieved_rps"] for step in steps if step["passed"]]
    return passed[-1] if passed else 0.0


def closed_seconds(ctx: Context) -> float:
    return ctx.seconds * SHARES[ctx.workload][0]


def step_seconds(ctx: Context) -> float:
    return ctx.seconds * SHARES[ctx.workload][1] / len(ctx.spec.ladder)


def reference_count(ctx: Context) -> int:
    return max(100, int(ctx.spec.reference * ctx.seconds * SHARES[ctx.workload][2]))


def swap_count(ctx: Context) -> int:
    return max(30, int(ctx.spec.reference * ctx.seconds * SHARES[ctx.workload][3]))


def closed_count(ctx: Context) -> int:
    return int(closed_seconds(ctx) * NOMINAL_CLOSED_RPS[ctx.workload])


def wire_closed_count(ctx: Context) -> int:
    """The wire's closed-loop count: whole segments, the same number in
    each round."""
    per_round = max(1, round(closed_count(ctx) / (WIRE_ROUNDS * WIRE_SEGMENT)))
    return per_round * WIRE_ROUNDS * WIRE_SEGMENT


def end_to_end(throughput, latency, steps, setups, rss) -> dict:
    """The gated end-to-end metrics (``BENCHMARK.json``)."""
    return {
        "throughput_rps": (throughput, "1/s"),
        "decide_p50_ms": (latency["p50_ms"], "ms"),
        "slo_rate_rps": (slo_rate(steps), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }


def printed_only(run: dict, latency: dict, raw: dict, windowed: bool = True) -> dict:
    """End-to-end figures printed for every run but not gated: p99 (on a
    shared two-core host its run-to-run spread exceeds any bound the
    benchmark may set), two figures that are 0 on a healthy in-memory
    run, the gated timings before host-speed scaling and the host's
    median kernel time.  An open-loop p99 is the windowed one; a
    closed-loop p99 pools every pass."""
    attempted = max(run["attempted"], 1)
    return {
        "decide_p99_ms": (latency["p99_windowed_ms" if windowed else "p99_ms"], "ms"),
        "failed_ratio": (run["failed"] / attempted, "ratio"),
        "disk_bytes_per_decision": (run.get("disk_bytes", 0) / attempted, "B"),
        "throughput_rps.unscaled": (raw["throughput"], "1/s"),
        "decide_p50_ms.unscaled": (raw["p50_ms"], "ms"),
        "setup_s.unscaled": (statistics.median(raw["setups"]), "s"),
        **({"decide_p50_ms.reference": (raw["reference_p50_ms"], "ms")} if "reference_p50_ms" in raw else {}),
        "host.kernel_ms": (statistics.median(run["kernel_s"]) * 1e3, "ms"),
    }


# ---------------------------------------------------------------------------
# strict-hotpath
# ---------------------------------------------------------------------------
def strict_config(ctx: Context, trace: bool) -> dict:
    steps = step_seconds(ctx)
    stream = max([STRICT_PASS] + [int(rate * steps) for rate in ctx.spec.ladder])
    return {
        "spec": ctx.spec.__dict__,
        "stream_length": stream,
        "pass_length": STRICT_PASS,
        "chunk": CLOSED_CHUNK,
        "calibrate": not trace,
        "closed_seconds": closed_seconds(ctx),
        "step_seconds": steps,
        "trace": trace,
        "spans": ctx.spans_path("strict.spans"),
    }


def strict_checks(ctx: Context, runs: list[dict]) -> list[str]:
    marks = sorted({STRICT_PASS} | {step["sent"] for run in runs for step in run["steps"]})
    oracle = ctx.job("strict-oracle", marks=marks)["digests"]
    problems = []
    for run in runs:
        for number, one in enumerate(run["passes"]):
            if one["digest"] != oracle[str(STRICT_PASS)]:
                problems.append(f"closed pass {number}: effect digest differs from the memory oracle")
        for step in run["steps"]:
            if step["digest"] != oracle[str(step["sent"])]:
                problems.append(f"{step['rate']} rps step: effect digest differs from the memory oracle")
    return problems


def strict_hotpath(ctx: Context, trace: bool) -> dict:
    if not trace:
        setups = [ctx.job("strict-setup") for _ in range(SETUPS[ctx.workload] - 1)]
        run = ctx.job("strict-run", **strict_config(ctx, False))
        setups.append(run)
        throughput = statistics.median(one["scaled_rps"] for one in run["passes"])
        raw = {
            "throughput": statistics.median(one["rps"] for one in run["passes"]),
            "p50_ms": run["closed"]["p50_ms"],
            "setups": [one["setup_raw_s"] for one in setups],
        }
        return {
            "runs": [run],
            "problems": strict_checks(ctx, [run]),
            "metrics": end_to_end(throughput, run["closed_scaled"], run["steps"],
                                  [one["setup_s"] for one in setups], run["peak_rss_mib"]),
            "printed": printed_only(run, run["closed"], raw, windowed=False),
            "notes": [f"throughput: median of {len(run['passes'])} closed-loop passes of {STRICT_PASS} decisions, "
                      f"host-speed probes every {CLOSED_CHUNK}"],
        }
    plain = ctx.job("strict-run", **strict_config(ctx, False))
    traced = ctx.job("strict-run", **strict_config(ctx, True))
    from tracing import load_spans, summarize

    summary = summarize([load_spans(ctx.spans_path("strict.spans"))], tuple(traced["closed_window"]))
    layers = layer_metrics(
        summary,
        counters=traced["counters"],
        e2e_mean_ms=traced["closed"]["mean_ms"],
        untraced_mean_ms=plain["closed"]["mean_ms"],
        wait_ms=0.0,
        run=traced,
    )
    return {"runs": [plain, traced], "problems": strict_checks(ctx, [plain, traced]), "metrics": layers}


# ---------------------------------------------------------------------------
# bank-tiered-open
# ---------------------------------------------------------------------------
def bank_config(ctx: Context, name: str, trace: bool) -> dict:
    return {
        "spec": ctx.spec.__dict__,
        "db": ctx.path(f"{name}.db"),
        "warmup": WARMUP[ctx.workload],
        "closed_chunk": CLOSED_CHUNK,
        "closed_chunks": 3 * max(1, round(closed_count(ctx) / CLOSED_CHUNK / 3)),
        "calibrate": not trace,
        "reference_count": reference_count(ctx),
        "swap_count": swap_count(ctx),
        "step_seconds": step_seconds(ctx),
        "post_swap_window": POST_SWAP_WINDOW,
        "trace": trace,
        "spans": ctx.spans_path("bank.spans"),
    }


def _remove_db(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def bank_checks(ctx: Context, run: dict) -> list[str]:
    oracle = ctx.job("bank-oracle", attempted=run["attempted"], swap_at=run["swap_at"])
    problems = []
    if len(run["swap_at"]) < 2:
        problems.append("the swap phase made no policy swaps")
    if run["effects"] != oracle["effects"]:
        problems.append("decision-effect digest differs from the memory oracle")
    if run["fingerprint"] != oracle["fingerprint"]:
        problems.append("final store fingerprint differs from the memory oracle")
    return problems


def bank_tiered_open(ctx: Context, trace: bool) -> dict:
    if not trace:
        setups = []
        for number in range(SETUPS[ctx.workload] - 1):
            config = bank_config(ctx, f"setup{number}", False)
            setups.append(ctx.job("bank-setup", **config))
            _remove_db(config["db"])
        run = ctx.job("bank-run", **bank_config(ctx, "run", False))
        _remove_db(ctx.path("run.db"))
        setups.append(run)
        metrics = end_to_end(
            run["closed_scaled_rps"], run["closed_scaled"], run["steps"],
            [one["setup_s"] for one in setups], run["peak_rss_mib"])
        raw = {
            "throughput": run["closed_rps"],
            "p50_ms": run["closed"]["p50_ms"],
            "reference_p50_ms": run["reference"]["latency"]["p50_ms"],
            "setups": [one["setup_raw_s"] for one in setups],
        }
        return {
            "runs": [run],
            "problems": bank_checks(ctx, run),
            "metrics": metrics,
            "printed": printed_only(run, run["reference"]["latency"], raw),
            "notes": [
                f"throughput: decisions over the time of {run['closed_chunks']} closed-loop chunks of "
                f"{CLOSED_CHUNK}, one SQLite transaction per decision, a host-speed probe after each chunk",
                "p50: per-decision service time in the closed loop, scaled chunk by chunk; the open-loop "
                f"p50 at {ctx.spec.reference} rps is printed as decide_p50_ms.reference",
                f"p99: open loop at {ctx.spec.reference} rps, timed from the scheduled send; "
                "the two policy swaps follow in their own phase at the same rate",
            ],
        }
    plain = ctx.job("bank-run", **bank_config(ctx, "plain", False))
    _remove_db(ctx.path("plain.db"))
    traced = ctx.job("bank-run", **bank_config(ctx, "traced", True))
    _remove_db(ctx.path("traced.db"))
    problems = bank_checks(ctx, plain) + bank_checks(ctx, traced)
    from tracing import load_spans, summarize

    step, plain_step = traced["reference"], plain["reference"]
    summary = summarize([load_spans(ctx.spans_path("bank.spans"))], tuple(step["window"]))
    layers = layer_metrics(
        summary,
        counters=traced["counters"],
        e2e_mean_ms=step["latency"]["mean_ms"],
        untraced_mean_ms=plain_step["latency"]["mean_ms"],
        wait_ms=step["wait_mean_ms"],
        run=traced,
    )
    return {"runs": [plain, traced], "problems": problems, "metrics": layers}


# ---------------------------------------------------------------------------
# wire-v2-audited
# ---------------------------------------------------------------------------
def _write_policy(ctx: Context) -> None:
    from repro.xmlpolicy import write_policy_set_file
    from workloads import hotpath_policy_set

    write_policy_set_file(hotpath_policy_set(), ctx.path("policy.xml"))


def _dir_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
    return total


def wire_session(ctx: Context, name: str, trace: bool) -> dict:
    """One served run: start, drive, drain, check."""
    server = ctx.start_server(name, ctx.spans_path(f"{name}-server.spans") if trace else None)
    try:
        client = ctx.job(
            "wire-client",
            port=server["port"],
            server_pid=server["process"].pid,
            server_cpu=server_cpu(),
            spec=ctx.spec.__dict__,
            warmup=WARMUP[ctx.workload],
            closed_count=wire_closed_count(ctx),
            concurrency=WIRE_CALLERS,
            closed_segment=WIRE_SEGMENT,
            parts=1 if trace else WIRE_ROUNDS,
            sequential_count=WIRE_SEQUENTIAL,
            calibrate=not trace,
            reference_count=reference_count(ctx),
            step_seconds=step_seconds(ctx),
            trace=trace,
            spans=ctx.spans_path(f"{name}-client.spans"),
        )
    finally:
        report = ctx.stop_server(server)
    served = client["attempted"] - client["failed"]
    audit_bytes = _dir_bytes(server["audit"])
    store_bytes = sum(
        os.path.getsize(server["db"] + suffix)
        for suffix in ("", "-wal") if os.path.exists(server["db"] + suffix)
    )
    check = ctx.job(
        "wire-check", policy=ctx.path("policy.xml"), audit_dir=server["audit"],
        audit_key=AUDIT_KEY, db=server["db"],
    )
    problems = []
    if check["flips"]:
        problems.append(f"what-if replay of the served trail flips {check['flips']} decisions")
    if check["replayed"] != served:
        problems.append(f"audit trail replays {check['replayed']} decisions, server answered {served}")
    if check["violation_count"]:
        problems.append(f"{check['violation_count']} MMER breaches in the retained ADI: {check['violations']}")
    client.update(
        server_counters=report.get("counters", {}),
        server_setup={key: server[key] for key in ("setup_s", "setup_raw_s")},
        audit_bytes=audit_bytes,
        disk_bytes=audit_bytes + store_bytes,
        check=check,
        problems=problems,
    )
    shutil.rmtree(server["audit"], ignore_errors=True)
    _remove_db(server["db"])
    return client


def wire_v2_audited(ctx: Context, trace: bool) -> dict:
    _write_policy(ctx)
    if not trace:
        setups = []
        for number in range(SETUPS[ctx.workload] - 1):
            server = ctx.start_server(f"setup{number}")
            setups.append(server)
            ctx.stop_server(server)
            shutil.rmtree(server["audit"], ignore_errors=True)
            _remove_db(server["db"])
        run = wire_session(ctx, "run", False)
        setups.append(run.pop("server_setup"))
        metrics = end_to_end(
            run["closed_scaled_rps"], run["sequential_scaled"], run["steps"],
            [one["setup_s"] for one in setups], run["server_rss_mib"])
        raw = {
            "throughput": run["closed_rps"],
            "p50_ms": run["sequential"]["p50_ms"],
            "reference_p50_ms": run["reference"]["latency"]["p50_ms"],
            "setups": [one["setup_raw_s"] for one in setups],
        }
        return {
            "runs": [run],
            "problems": run["problems"],
            "metrics": metrics,
            "printed": printed_only(run, run["reference"]["latency"], raw),
            "notes": [
                f"throughput: decisions over the time of {run['closed_chunks']} closed-loop segments of "
                f"{WIRE_SEGMENT} requests, "
                f"{WIRE_CALLERS} requests in flight on one pipelined v2 connection, a host-speed probe after each",
                "closed-loop segments, decisions/s raw -> scaled: " + ", ".join(
                    f"{raw:.0f}->{scaled:.0f}" for raw, scaled in run["closed_segments"]),
                f"p50: {WIRE_SEQUENTIAL} requests sent one at a time in three rounds, each round scaled; the open-loop p50 at "
                f"{ctx.spec.reference} rps is printed as decide_p50_ms.reference",
                f"p99: open loop at {ctx.spec.reference} rps, timed from the scheduled send",
                "RSS: the server's peak before the ladder",
            ],
        }
    plain = wire_session(ctx, "plain", False)
    traced = wire_session(ctx, "traced", True)
    from tracing import load_spans, summarize

    step, plain_step = traced["reference"], plain["reference"]
    recorders = [load_spans(ctx.spans_path("traced-client.spans")), load_spans(ctx.spans_path("traced-server.spans"))]
    summary = summarize(recorders, tuple(step["window"]))
    counters = dict(traced["server_counters"])
    for key, value in traced["counters"].items():
        if key.startswith("wire."):
            counters[key] = value
    layers = layer_metrics(
        summary,
        counters=counters,
        e2e_mean_ms=step["latency"]["mean_ms"],
        untraced_mean_ms=plain_step["latency"]["mean_ms"],
        wait_ms=step["wait_mean_ms"],
        run=traced,
    )
    return {
        "runs": [plain, traced],
        "problems": plain["problems"] + traced["problems"],
        "metrics": layers,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: Layer keys, in blocking-path order, for the per-layer table.
LAYER_KEYS = (
    "workload", "server.protocol", "server.service", "api", "core.engine",
    "core.store", "core.policy_epoch", "audit", "runtime.gc",
)


def layer_metrics(summary: dict, *, counters: dict, e2e_mean_ms: float,
                  untraced_mean_ms: float, wait_ms: float, run: dict) -> dict:
    spans = summary["spans"]

    def span(name: str, field: str, scale: float = 1.0) -> float:
        return spans.get(name, {}).get(field, 0.0) * scale

    def count(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    decisions = max(count("engine.check"), 1)
    # Event-loop time outside every span; only the wire times its loops
    # (recorders: client, then server).
    client_loop, server_loop = summary["loop_other_s"] if len(summary["loop_other_s"]) == 2 else (0.0, 0.0)
    whole_run = max(counters.get("decisions", 0), 1)
    metrics = {
        "engine.check_self_us": (span("engine.check", "self_mean_s", 1e6), "us"),
        "engine.check_self_p99_us": (span("engine.check", "self_p99_s", 1e6), "us"),
        "engine.match_us": (span("engine.match", "mean_s", 1e6), "us"),
        "engine.policies_matched_per_decision": (counters.get("policies_matched", 0) / whole_run, "count"),
        "engine.grant_ratio": (counters.get("grants", 0) / whole_run, "ratio"),
        "store.view_reads_per_decision": (count("store.view_read") / decisions, "count"),
        "store.view_read_us": (span("store.view_read", "self_mean_s", 1e6), "us"),
        "store.apply_us": (span("store.apply", "mean_s", 1e6), "us"),
        "store.apply_p99_us": (span("store.apply", "p99_s", 1e6), "us"),
        "store.batch_commit_p99_ms": (span("store.batch_commit", "p99_s", 1e3), "ms"),
        "store.hydrations_per_decision": (count("store.hydrate") / decisions, "count"),
        "store.evictions_per_decision": (run.get("evictions", 0) / max(run["attempted"], 1), "count"),
        "store.hydrate_us": (span("store.hydrate", "mean_s", 1e6), "us"),
        "runtime.gc_gen2_count": (count("runtime.gc.gen2"), "count"),
        "policy.swap_ms": (statistics.fmean(run["swap_ms"]) if run.get("swap_ms") else 0.0, "ms"),
        "policy.post_swap_p99_ms": (run.get("post_swap", {}).get("p99_ms", 0.0), "ms"),
        "service.queue_wait_p50_ms": (span("service.queue_wait", "p50_s", 1e3), "ms"),
        "service.queue_wait_p99_ms": (span("service.queue_wait", "p99_s", 1e3), "ms"),
        "service.batch_mean": (counters.get("service.batched", 0) / max(counters.get("service.batches", 0), 1), "count"),
        "service.rejected": (counters.get("service.rejected", 0), "count"),
        "wire.frames_per_decision": (
            (counters.get("wire.frames_in", 0) + counters.get("wire.frames_out", 0)) / max(run["attempted"], 1), "count"),
        "wire.bytes_per_decision": (
            (counters.get("wire.bytes_in", 0) + counters.get("wire.bytes_out", 0)) / max(run["attempted"], 1), "B"),
        "wire.client_codec_us_per_decision": (span("wire.client_codec", "self_total_s", 1e6) / decisions, "us"),
        "wire.server_codec_us_per_decision": (span("wire.server_codec", "self_total_s", 1e6) / decisions, "us"),
        "wire.client_loop_us_per_decision": (client_loop * 1e6 / decisions, "us"),
        "wire.server_loop_us_per_decision": (server_loop * 1e6 / decisions, "us"),
        "audit.append_us": (span("audit.append", "mean_s", 1e6), "us"),
        "audit.append_p99_us": (span("audit.append", "p99_s", 1e6), "us"),
        "audit.bytes_per_decision": (run.get("audit_bytes", 0) / max(run["attempted"], 1), "B"),
        "disk.bytes_per_decision": (run.get("disk_bytes", 0) / max(run["attempted"], 1), "B"),
        "workload.gen_late_p99_ms": (max((step["gen_late_p99_ms"] for step in open_phases(run)), default=0.0), "ms"),
        "workload.invalid_steps": (sum(1 for step in open_phases(run) if not step["valid"]), "count"),
    }
    for generation in (0, 1, 2):
        name = f"runtime.gc.gen{generation}"
        metrics[f"runtime.gc_pause_max_ms.gen{generation}"] = (span(name, "max_s", 1e3), "ms")
        metrics[f"runtime.gc_pause_total_ms.gen{generation}"] = (span(name, "total_s", 1e3), "ms")
    # Layer self time per decision along the blocking path.
    per_layer = {key: 0.0 for key in LAYER_KEYS}
    for layer, total in summary["blocking"].items():
        per_layer[layer] = total * 1e6 / decisions
    per_layer["workload"] = wait_ms * 1e3
    attributed = sum(per_layer.values())
    e2e_us = e2e_mean_ms * 1e3
    for key in LAYER_KEYS:
        metrics[f"layer.{key}.self_us"] = (per_layer[key], "us")
    metrics["layer.e2e_mean_us"] = (e2e_us, "us")
    metrics["layer.unattributed_us"] = (e2e_us - attributed, "us")
    metrics["trace.layer_sum_coverage"] = (attributed / e2e_us if e2e_us else 0.0, "ratio")
    metrics["trace.overhead_pct"] = (
        (e2e_mean_ms / untraced_mean_ms - 1.0) * 100.0 if untraced_mean_ms else 0.0, "%")
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
RUNNERS = {
    "strict-hotpath": strict_hotpath,
    "bank-tiered-open": bank_tiered_open,
    "wire-v2-audited": wire_v2_audited,
}


def print_report(ctx: Context, outcome: dict, trace: bool) -> None:
    print(f"== {ctx.workload}  seed={ctx.seed}  seconds={ctx.seconds:g}  trace={int(trace)}")
    spec = ctx.spec
    print(f"   ladder {'/'.join(map(str, spec.ladder))} rps, reference {spec.reference} rps, "
          f"p99 limit {spec.limit_ms:g} ms")
    for number, run in enumerate(outcome["runs"]):
        label = "traced" if trace and number == 1 else "untraced"
        print(f"   [{label}] closed loop: {run['closed']['n']} decisions, "
              f"p50 {run['closed']['p50_ms']:.3f} ms, p99 {run['closed']['p99_ms']:.3f} ms")
        print("       rate   achieved     p50 ms     p99 ms  p99 win ms   drain ms  gen-late p99  verdict")
        phases = open_phases(run)
        for step in phases:
            verdict = ("pass" if step["passed"] else "MISS") + ("" if step["valid"] else " INVALID(generator late)")
            print(f"   {step['rate']:>8} {step['achieved_rps']:10.1f} {step['latency']['p50_ms']:10.3f} "
                  f"{step['latency']['p99_ms']:10.3f} {step['latency']['p99_windowed_ms']:11.3f} "
                  f"{step['drain_ms']:10.3f} {step['gen_late_p99_ms']:13.3f}  {verdict}")
        if "reference" in run:
            windows = ", ".join(f"{value:.3f}" for value in run["reference"]["latency"]["p99_windows_ms"])
            print(f"     reference p99 per window of 1000 requests: {windows} ms")
        if any(not step["valid"] for step in phases):
            print("   RUN INVALID: the load generator, not the program, ran late on a step above")
    for note in outcome.get("notes", ()):
        print(f"   note: {note}")
    print("   metrics:")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"     {name:44s} {value:14.4f} {unit}")
    for name, (value, unit) in outcome.get("printed", {}).items():
        print(f"     {name:44s} {value:14.4f} {unit}  (printed, not gated)")
    if trace:
        print("   per-layer self time per decision (reference window):")
        e2e = outcome["metrics"]["layer.e2e_mean_us"][0]
        for key in LAYER_KEYS:
            value = outcome["metrics"][f"layer.{key}.self_us"][0]
            share = value / e2e if e2e else 0.0
            print(f"     {key:20s} {value:10.1f} us  {share:6.1%}")
        unattributed = outcome["metrics"]["layer.unattributed_us"][0]
        print(f"     {'unattributed':20s} {unattributed:10.1f} us  {unattributed / e2e if e2e else 0.0:6.1%}")
        print(f"     coverage {outcome['metrics']['trace.layer_sum_coverage'][0]:.3f} of the "
              f"{e2e:.1f} us end-to-end mean; tracing overhead "
              f"{outcome['metrics']['trace.overhead_pct'][0]:+.1f}%")
    if outcome["problems"]:
        for problem in outcome["problems"]:
            print(f"   CHECK FAILED: {problem}")
    else:
        print("   checks: decisions match the oracle")


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ctx = Context(root, workload, seed, seconds)
    try:
        outcome = RUNNERS[workload](ctx, trace)
    finally:
        ctx.close()
    print_report(ctx, outcome, trace)
    return {
        "correct": not outcome["problems"],
        "attempted": sum(run["attempted"] for run in outcome["runs"]),
        "failed": sum(run["failed"] for run in outcome["runs"]),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    definition_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(root, "src", "repro")) or not os.path.isfile(definition_path):
        print("perfbench: run from the repository root (needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(definition_path, encoding="utf-8") as handle:
        seconds = args.seconds or json.load(handle)["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(root, name, args.seed, seconds, bool(args.trace))
        except (BenchError, KeyError, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 3
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in results.items() for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
