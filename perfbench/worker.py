"""One benchmark process: ``python3 perfbench/worker.py ROLE CONFIG.json``.

``run.py`` starts a worker per job so that each job's peak RSS is its
own and the measured program never shares a heap with an oracle.  The
worker reads its job from ``CONFIG.json``, writes its result to
``config["out"]`` and, when ``config["trace"]`` is set, installs the
timing wrappers before it builds anything and dumps its spans to
``config["spans"]`` at exit.

Roles
-----
``strict-setup`` / ``bank-setup``
    Start-up only: build the PDP (and preload), report the ready time.
``strict-run`` / ``bank-run``
    Start up, then measure the closed loop and the open-loop ladder.
``strict-oracle`` / ``bank-oracle``
    Replay the same requests on a plain in-memory engine.
``wire-client``
    Drive a running server over one pipelined v2 connection.
``wire-check``
    After the server stopped: replay its audit trail and check MMER.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter, sleep

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from hostspeed import Track, cpu_seconds_of, scaled_seconds, stolen_seconds  # noqa: E402
from tracing import SpanRecorder, install_wrappers, percentile  # noqa: E402


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _peak_rss_mib_of(pid: int) -> float:
    """Peak RSS so far of another process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


#: Samples per sub-window for the windowed p99 (ten beyond the p99).
P99_WINDOW = 1000


def _quantiles_ms(samples: list[float]) -> dict:
    """p50 and p99 in ms of latencies in seconds (nearest rank).

    ``p99_windowed_ms`` is the median, over consecutive sub-windows of
    ``P99_WINDOW`` samples in send order, of each sub-window's p99: one
    stall of the host moves one sub-window, not the figure.
    """
    if not samples:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "p99_windowed_ms": 0.0, "mean_ms": 0.0, "n": 0}
    ordered = sorted(samples)
    windows = max(1, len(samples) // P99_WINDOW)
    size = len(samples) // windows
    per_window = [
        percentile(sorted(samples[number * size:(number + 1) * size]), 0.99) * 1e3
        for number in range(windows)
    ]
    return {
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "p99_windowed_ms": statistics.median(per_window),
        "p99_windows_ms": per_window,
        "mean_ms": statistics.fmean(ordered) * 1e3,
        "n": len(ordered),
    }


class Digests:
    """Running sha256 of decision effects, read at chosen prefix lengths."""

    def __init__(self, marks) -> None:
        self._hash = hashlib.sha256()
        self._count = 0
        self._marks = set(marks)
        self.at: dict[int, str] = {}

    def add(self, decision) -> None:
        self._hash.update(workloads.effect_line(decision))
        self._count += 1
        if self._count in self._marks:
            self.at[self._count] = self._hash.hexdigest()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# ---------------------------------------------------------------------------
# In-process loops
# ---------------------------------------------------------------------------
def closed_loop(decide, requests, digests=None) -> tuple[list[float], float, float, int]:
    """One caller, back to back.  Returns latencies, start, end, failures."""
    latencies = []
    failed = 0
    started = perf_counter()
    for request in requests:
        began = perf_counter()
        try:
            decision = decide(request)
        except Exception:  # noqa: BLE001 - a failed decision is counted
            failed += 1
            continue
        latencies.append(perf_counter() - began)
        if digests is not None:
            digests.add(decision)
    return latencies, started, perf_counter(), failed


def calibrated_closed(decide, requests, chunk: int, digests=None, calibrate: bool = True) -> dict:
    """:func:`closed_loop` in chunks of ``chunk`` decisions, with the
    host-speed kernel timed before the first chunk and after each one
    (``hostspeed``).  Per chunk: decisions, seconds, scale factor (1
    uncalibrated); latencies raw and scaled, in order."""
    track = Track()
    chunks, latencies, scaled = [], [], []
    failed = 0
    started = perf_counter()
    if calibrate:
        track.probe(0)
    for number, first in enumerate(range(0, len(requests), chunk)):
        cpu, stolen = time.process_time(), stolen_seconds()
        lat, began, ended, lost = closed_loop(decide, requests[first:first + chunk], digests)
        cpu, stolen = time.process_time() - cpu, stolen_seconds() - stolen
        failed += lost
        factor = 1.0
        if calibrate:
            track.probe(first + chunk)
            wall = ended - began
            factor = scaled_seconds(track.segment_scale(number), wall, cpu, stolen) / wall
        chunks.append((len(lat), ended - began, factor))
        latencies.extend(lat)
        scaled.extend(value * factor for value in lat)
    return {
        "chunks": chunks,
        "latencies": latencies,
        "scaled": scaled,
        "failed": failed,
        "window": [started, perf_counter()],
        "kernel_s": [seconds for _, seconds in track.marks],
    }


def chunk_rates(chunks, scaled: bool) -> list[float]:
    return [count / (seconds * (factor if scaled else 1.0)) for count, seconds, factor in chunks]


def total_rate(chunks, scaled: bool) -> float:
    """Decisions over the time of every chunk: each run holds the same
    periodic stalls (WAL checkpoints, collections) at the same places,
    so the total counts them alike, where a median over chunks would
    flip between chunks with and without one."""
    return sum(count for count, _, _ in chunks) / sum(
        seconds * (factor if scaled else 1.0) for _, seconds, factor in chunks)


#: The generator sleeps until this close to a due time, then spins:
#: timer wake-ups on a shared host overshoot by milliseconds.
SPIN_S = 0.002


def wait_until(due: float) -> None:
    now = perf_counter()
    if due - now > SPIN_S:
        sleep(due - now - SPIN_S)
    while perf_counter() < due:
        pass


def open_loop(decide, requests, rate: float, digests=None, actions=None) -> dict:
    """Send ``requests`` at ``rate``/s on a fixed schedule, one caller.

    Latency runs from each request's scheduled send.  When the previous
    decision is still running at a request's due time, the wait is the
    program's; any further delay before the send is the generator's
    (``late``).  ``actions`` maps a request index to a callable run just
    before that request (policy swaps); its time counts against the
    decisions that wait behind it, as it would for a caller.
    """
    actions = actions or {}
    interval = 1.0 / rate
    latencies, late, waits = [], [], []
    failed = 0
    swap_times = []
    start = perf_counter() + 0.002
    previous_done = start
    for index, request in enumerate(requests):
        due = start + index * interval
        wait_until(due)
        action = actions.get(index)
        if action is not None:
            began = perf_counter()
            action()
            swap_times.append((index, perf_counter() - began))
        sent = perf_counter()
        late.append(max(0.0, sent - max(due, previous_done)))
        waits.append(sent - due)
        try:
            decision = decide(request)
        except Exception:  # noqa: BLE001 - a failed decision is counted
            failed += 1
            previous_done = perf_counter()
            continue
        previous_done = perf_counter()
        latencies.append(previous_done - due)
        if digests is not None:
            digests.add(decision)
    step = step_result(rate, len(requests), failed, start, previous_done, late, waits, latencies)
    step["swaps"] = swap_times
    return step


def step_result(rate: float, sent: int, failed: int, start: float, last_done: float,
                late: list[float], waits: list[float], latencies: list[float]) -> dict:
    """One open-loop phase's figures.  ``latencies`` are in send order,
    ``late`` is the generator's own delay per send and ``waits`` the
    whole delay from due time to send."""
    last_due = start + (sent - 1) / rate
    return {
        "rate": rate,
        "sent": sent,
        "failed": failed,
        "window": [start, last_done],
        "achieved_rps": sent / (last_done - start),
        "drain_ms": max(0.0, last_done - last_due) * 1e3,
        "gen_late_p99_ms": _quantiles_ms(late)["p99_ms"],
        "wait_mean_ms": statistics.fmean(waits) * 1e3,
        "latency": _quantiles_ms(latencies),
        "latencies": latencies,
    }


def merge_steps(parts: list[dict]) -> dict:
    """Open-loop phases at one rate, run apart, as one phase: latencies
    pooled, the worst drain and lateness, passed and valid only if
    every part was."""
    latencies = [latency for part in parts for latency in part["latencies"]]
    sent = sum(part["sent"] for part in parts)
    return {
        "rate": parts[0]["rate"],
        "sent": sent,
        "failed": sum(part["failed"] for part in parts),
        "window": [parts[0]["window"][0], parts[-1]["window"][1]],
        "achieved_rps": sent / sum(part["sent"] / part["achieved_rps"] for part in parts),
        "drain_ms": max(part["drain_ms"] for part in parts),
        "gen_late_p99_ms": max(part["gen_late_p99_ms"] for part in parts),
        "wait_mean_ms": sum(part["wait_mean_ms"] * part["sent"] for part in parts) / sent,
        "latency": _quantiles_ms(latencies),
        "latencies": latencies,
        "passed": all(part["passed"] for part in parts),
        "valid": all(part["valid"] for part in parts),
    }


#: A step that achieved under this share of its offered rate was plainly
#: beyond capacity; a stall costs a two-second step a few percent.
BEYOND_CAPACITY = 0.8


def _step_verdict(step: dict, limit_ms: float) -> dict:
    step["passed"] = (
        step["failed"] == 0
        and step["latency"]["p99_ms"] <= limit_ms
        and step["drain_ms"] <= limit_ms
    )
    # The generator, not the program, is to blame when it alone ran
    # late by more than half the limit: such a step is invalid.
    step["valid"] = step["gen_late_p99_ms"] <= limit_ms / 2
    return step


#: Measurements of one ladder step at most.  With two, a slow spell of
#: the host (the host stealing up to 40% of the vCPU for seconds) ended
#: two of ten strict runs at the rung below 3,600 rps.
STEP_ATTEMPTS = 3


def run_ladder(spec, step_seconds: float, measure) -> list[dict]:
    """Climb the fixed ladder; stop after the first step that misses
    the limit.  ``measure(rate, count)`` runs one open-loop step of
    ``count`` requests.  A step that is invalid, or misses without being
    plainly beyond capacity, is measured again, up to ``STEP_ATTEMPTS``
    times, and the last measurement stands, so a slow spell of the host
    does not end the climb."""
    steps = []
    for rate in spec.ladder:
        for _attempt in range(STEP_ATTEMPTS):
            step = _step_verdict(measure(rate, max(1, int(rate * step_seconds))), spec.limit_ms)
            beyond_capacity = step["achieved_rps"] < BEYOND_CAPACITY * step["rate"]
            if step["valid"] and (step["passed"] or beyond_capacity):
                break
        steps.append(step)
        if not step["passed"]:
            break
    return steps


def _recorder_for(config, role: str = "inprocess") -> SpanRecorder | None:
    if not config.get("trace"):
        return None
    recorder = SpanRecorder()
    install_wrappers(recorder, role=role)
    return recorder


def _finish(config, result, recorder) -> dict:
    if recorder is not None:
        recorder.dump(config["spans"])
        result["counters"] = dict(recorder.counters)
    for step in result.get("steps", []) + [result.get("reference", {}), result.get("swapping", {})]:
        step.pop("latencies", None)
    return result


def _ready(track: Track) -> dict:
    """Stamp the end of set-up, then time the host-speed kernel once
    more.  ``run.py`` scales the set-up time by the median of these
    probes and its own one before the start, after taking out
    ``setup_probe_s``, the time of the probes inside set-up."""
    ready = time.monotonic()
    inside = track.spent
    track.probe()
    return {"ready": ready, "setup_probe_s": inside, "setup_kernel_s": [seconds for _, seconds in track.marks]}


# ---------------------------------------------------------------------------
# strict-hotpath
# ---------------------------------------------------------------------------
def strict_setup(config) -> dict:
    from repro.api import open_pdp

    pdp = open_pdp(workloads.hotpath_policy_set(), "memory")
    ready = _ready(Track(wall=True))
    pdp.close()
    return ready


def strict_run(config) -> dict:
    recorder = _recorder_for(config)
    from repro.api import open_pdp

    policy_set = workloads.hotpath_policy_set()
    pdp = open_pdp(policy_set, "memory")
    ready = _ready(Track(wall=True))
    calibrate = config["calibrate"]
    spec = workloads.LoadSpec(**config["spec"])
    requests = list(workloads.hotpath_stream(config["stream_length"], config["seed"]))
    pass_length = config["pass_length"]

    # Closed loop: passes over the first ``pass_length`` requests, each on
    # a fresh PDP, until the phase time is spent; each pass in chunks
    # with the host-speed kernel timed between them.
    passes = []
    latencies, scaled = [], []
    kernel = []
    failed = 0
    deadline = perf_counter() + config["closed_seconds"]
    while perf_counter() < deadline or len(passes) < 3:
        pdp.close()
        pdp = open_pdp(policy_set, "memory")
        digests = Digests([pass_length])
        one = calibrated_closed(pdp.decide, requests[:pass_length], config["chunk"], digests, calibrate)
        failed += one["failed"]
        latencies.extend(one["latencies"])
        scaled.extend(one["scaled"])
        kernel.extend(one["kernel_s"])
        passes.append({
            "window": one["window"],
            "rps": pass_length / sum(seconds for _, seconds, _ in one["chunks"]),
            "scaled_rps": pass_length / sum(seconds * factor for _, seconds, factor in one["chunks"]),
            "digest": digests.hexdigest(),
        })

    # Open-loop ladder: each step on a fresh PDP over a stream prefix.
    step_digests: dict[int, Digests] = {}
    attempted = len(passes) * pass_length

    def measure(rate, count):
        nonlocal pdp, attempted, failed
        pdp.close()
        pdp = open_pdp(policy_set, "memory")
        step_digests[rate] = Digests([count])
        step = open_loop(pdp.decide, requests[:count], rate, digests=step_digests[rate])
        attempted += step["sent"]
        failed += step["failed"]
        return step

    # Peak memory before the ladder: how far it climbs depends on the
    # host's speed, and a higher step holds a longer stream.
    peak_rss = _peak_rss_mib()
    steps = run_ladder(spec, config["step_seconds"], measure)
    for step in steps:
        step["digest"] = step_digests[step["rate"]].hexdigest()
    pdp.close()
    result = {
        **ready,
        "passes": passes,
        "closed": _quantiles_ms(latencies),
        "closed_scaled": _quantiles_ms(scaled),
        "kernel_s": kernel,
        "closed_window": [passes[0]["window"][0], passes[-1]["window"][1]],
        "steps": steps,
        "attempted": attempted,
        "failed": failed,
        "disk_bytes": 0,
        "peak_rss_mib": peak_rss,
    }
    return _finish(config, result, recorder)


def strict_oracle(config) -> dict:
    """A bare engine over a fresh in-memory store, outside ``open_pdp``."""
    from repro.core import MSoDEngine
    from repro.core.retained_adi import InMemoryRetainedADIStore

    engine = MSoDEngine(workloads.hotpath_policy_set(), InMemoryRetainedADIStore())
    marks = config["marks"]
    digests = Digests(marks)
    for request in workloads.hotpath_stream(max(marks), config["seed"]):
        digests.add(engine.check(request))
    return {"digests": {str(mark): digests.at[mark] for mark in marks}}


# ---------------------------------------------------------------------------
# bank-tiered-open
# ---------------------------------------------------------------------------
def _bank_open(config, track: Track):
    from repro.api import open_pdp
    from repro.workload import bank_scale_policy_set

    bank = workloads.bank_config(config["seed"])
    path = config["db"]
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    pdp = open_pdp(
        bank_scale_policy_set(bank),
        f"tiered:sqlite:{path}?hot_users={workloads.BANK_HOT_USERS}",
    )
    # The preload is most of the set-up: time the host-speed kernel
    # every few chunks of it.
    preloaded = workloads.preload(
        pdp.store, bank, lambda chunks: track.probe() if chunks % PRELOAD_PROBE_EVERY == 0 else None)
    return pdp, bank, preloaded


def _disk_bytes(paths) -> int:
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


#: Rounds the bank's closed-loop chunks are split into.
CLOSED_ROUNDS = 3
#: Preload chunks between host-speed probes during the bank set-up.
PRELOAD_PROBE_EVERY = 4


def _setup_track() -> Track:
    track = Track(wall=True)
    track.probe()
    return track


def bank_setup(config) -> dict:
    track = _setup_track()
    pdp, _, preloaded = _bank_open(config, track)
    ready = _ready(track)
    pdp.close()
    return dict(ready, preloaded=preloaded)


def bank_run(config) -> dict:
    recorder = _recorder_for(config)
    from repro.workload import bank_scale_policy_set, bank_scale_request_stream

    track = _setup_track()
    pdp, bank, preloaded = _bank_open(config, track)
    ready = _ready(track)
    db_files = [config["db"] + suffix for suffix in ("", "-wal")]
    disk_before = _disk_bytes(db_files)
    spec = workloads.LoadSpec(**config["spec"])
    stream = bank_scale_request_stream(bank, 10**9)
    digests = Digests(())
    consumed = 0
    failed = 0

    def take(count):
        nonlocal consumed
        consumed += count
        return [next(stream) for _ in range(count)]

    # Warm-up fills the hot tier; then a fixed number of closed-loop
    # decisions, one caller, one SQLite transaction per decision (the
    # commit discipline of the open loop), in three rounds: before the
    # reference phase, before the swap phase and before the ladder, so
    # one slow spell of the host weighs on a third of them.  Fixed
    # counts keep the store in the same state when each phase starts.
    failed = closed_loop(pdp.decide, take(config["warmup"]), digests)[3]
    stats_before = pdp.store.stats()
    chunk = config["closed_chunk"]
    rounds = []

    def closed_round():
        nonlocal failed
        one = calibrated_closed(
            pdp.decide, take(config["closed_chunks"] // CLOSED_ROUNDS * chunk), chunk, digests,
            config["calibrate"])
        failed += one["failed"]
        rounds.append(one)

    closed_round()

    # Reference phase: the reference rate, steady state.
    reference = _step_verdict(
        open_loop(pdp.decide, take(config["reference_count"]), spec.reference, digests=digests),
        spec.limit_ms,
    )
    failed += reference["failed"]
    closed_round()

    # Swap phase: the reference rate again with two policy swaps
    # (base -> extended -> base) at one and two thirds.
    base = bank_scale_policy_set(bank)
    extended = workloads.bank_extended_policy_set(bank)
    count = config["swap_count"]
    swap_at = [consumed + count // 3, consumed + (2 * count) // 3]
    swapping = open_loop(
        pdp.decide,
        take(count),
        spec.reference,
        digests=digests,
        actions={
            count // 3: lambda: pdp.reload_policy(extended),
            (2 * count) // 3: lambda: pdp.reload_policy(base),
        },
    )
    swapping = _step_verdict(swapping, spec.limit_ms)
    failed += swapping["failed"]
    post_swap = []
    for index, _ in swapping["swaps"]:
        post_swap.extend(swapping["latencies"][index:index + config["post_swap_window"]])

    closed_round()

    # Peak memory before the ladder, whose climb depends on the host.
    peak_rss = _peak_rss_mib()
    steps = run_ladder(
        spec,
        config["step_seconds"],
        lambda rate, count: open_loop(pdp.decide, take(count), rate, digests=digests),
    )
    failed += sum(step["failed"] for step in steps)
    stats_after = pdp.store.stats()
    result = {
        **ready,
        "preloaded": preloaded,
        "closed_window": [rounds[0]["window"][0], rounds[-1]["window"][1]],
        "closed": _quantiles_ms([latency for one in rounds for latency in one["latencies"]]),
        "closed_scaled": _quantiles_ms([latency for one in rounds for latency in one["scaled"]]),
        "closed_rps": total_rate([part for one in rounds for part in one["chunks"]], False),
        "closed_scaled_rps": total_rate([part for one in rounds for part in one["chunks"]], True),
        "closed_chunks": sum(len(one["chunks"]) for one in rounds),
        "kernel_s": [seconds for one in rounds for seconds in one["kernel_s"]],
        "steps": steps,
        "reference": reference,
        "swapping": swapping,
        "swap_at": swap_at,
        "swap_ms": [seconds * 1e3 for _, seconds in swapping["swaps"]],
        "post_swap": _quantiles_ms(post_swap),
        "attempted": consumed,
        "failed": failed,
        "peak_rss_mib": peak_rss,
        "hydrations": stats_after["hydrations"] - stats_before["hydrations"],
        "evictions": stats_after["evictions"] - stats_before["evictions"],
    }
    result = _finish(config, result, recorder)
    result["disk_bytes"] = _disk_bytes(db_files) - disk_before
    result["effects"] = digests.hexdigest()
    result["fingerprint"] = workloads.store_fingerprint(pdp.store)
    pdp.close()
    return result


def bank_oracle(config) -> dict:
    from repro.core import MSoDEngine
    from repro.core.retained_adi import InMemoryRetainedADIStore
    from repro.workload import bank_scale_policy_set, bank_scale_request_stream

    bank = workloads.bank_config(config["seed"])
    base = bank_scale_policy_set(bank)
    extended = workloads.bank_extended_policy_set(bank)
    store = InMemoryRetainedADIStore()
    workloads.preload(store, bank)
    engine = MSoDEngine(base, store)
    # Swaps alternate base -> extended -> base, at the run's indices.
    swaps = {index: (extended, base)[order % 2] for order, index in enumerate(config["swap_at"])}
    digests = Digests(())
    stream = bank_scale_request_stream(bank, config["attempted"])
    for index, request in enumerate(stream):
        if index in swaps:
            engine.swap_policy(swaps[index])
        digests.add(engine.check(request))
    return {"effects": digests.hexdigest(), "fingerprint": workloads.store_fingerprint(store)}


# ---------------------------------------------------------------------------
# wire-v2-audited
# ---------------------------------------------------------------------------
async def _wire_closed(pdp, requests, concurrency: int) -> dict:
    """``concurrency`` callers, each sending its next request as soon as
    its previous one is answered, until ``requests`` are used up."""
    latencies = []
    failed = 0
    position = 0

    async def caller():
        nonlocal position, failed
        while position < len(requests):
            request = requests[position]
            position += 1
            began = perf_counter()
            try:
                await pdp.decide(request)
            except Exception:  # noqa: BLE001 - a failed decision is counted
                failed += 1
                continue
            latencies.append(perf_counter() - began)

    started = perf_counter()
    await asyncio.gather(*(caller() for _ in range(concurrency)))
    return {"window": [started, perf_counter()], "sent": position, "failed": failed, "latencies": latencies}


async def _wire_closed_segments(pdp, requests, concurrency: int, segment: int, calibrate: bool,
                                cpu: int | None, server_pid: int) -> dict:
    """The closed loop in segments of ``segment`` requests, each run to
    its last answer, with the host-speed kernel timed between segments
    on the server's CPU ``cpu`` (the pipeline is empty then, so the
    server is idle).  A segment is scaled by the server's CPU time in it
    and the time stolen from the server's CPU (the server is the
    bottleneck).  The rate is decisions over the
    segments' time, raw and scaled."""
    track = Track(cpu)
    if calibrate:
        track.probe(0)
    segments = []
    latencies = []
    failed = 0
    for number, first in enumerate(range(0, len(requests), segment)):
        server_cpu, stolen = cpu_seconds_of(server_pid), stolen_seconds(cpu)
        one = await _wire_closed(pdp, requests[first:first + segment], concurrency)
        server_cpu, stolen = cpu_seconds_of(server_pid) - server_cpu, stolen_seconds(cpu) - stolen
        failed += one["failed"]
        latencies.extend(one["latencies"])
        wall = one["window"][1] - one["window"][0]
        factor = 1.0
        if calibrate:
            track.probe(first + segment)
            factor = scaled_seconds(track.segment_scale(number), wall, server_cpu, stolen) / wall
        segments.append((len(one["latencies"]), wall, factor, one["window"]))
    return {
        "window": [segments[0][3][0], segments[-1][3][1]],
        "failed": failed,
        "chunk_list": [entry[:3] for entry in segments],
        "latencies": latencies,
        "kernel_s": [seconds for _, seconds in track.marks],
    }


async def _wire_sequential(pdp, requests, calibrate: bool, cpu: int | None, server_pid: int) -> dict:
    """One request at a time, each sent when the previous is answered:
    the served decision's service time.  Client and server take turns,
    so their CPU times add up to the CPU part of the segment's time; it
    is scaled like a closed-loop chunk (``hostspeed``), with the host's
    stolen time from every CPU dropped."""
    track = Track(cpu)
    if calibrate:
        track.probe()
    latencies = []
    failed = 0
    server_cpu, client_cpu, stolen = cpu_seconds_of(server_pid), time.process_time(), stolen_seconds()
    started = perf_counter()
    for request in requests:
        began = perf_counter()
        try:
            await pdp.decide(request)
        except Exception:  # noqa: BLE001 - a failed decision is counted
            failed += 1
            continue
        latencies.append(perf_counter() - began)
    wall = perf_counter() - started
    used = cpu_seconds_of(server_pid) - server_cpu + time.process_time() - client_cpu
    stolen = stolen_seconds() - stolen
    factor = 1.0
    if calibrate:
        track.probe()
        factor = scaled_seconds(track.segment_scale(0), wall, used, stolen) / wall
    return {"failed": failed, "latencies": latencies, "scaled": [value * factor for value in latencies]}


async def _wire_step(pdp, requests, rate: float) -> dict:
    """The open loop of :func:`open_loop` on the client's event loop:
    one task per request, created at its due time.  The generator shares
    the loop with the client library, so its lateness is simply send
    time minus due time."""
    loop = asyncio.get_running_loop()
    interval = 1.0 / rate
    latencies, late = [], []
    failed = 0
    last_done = 0.0

    async def one(index, request, due):
        nonlocal failed, last_done
        try:
            await pdp.decide(request)
        except Exception:  # noqa: BLE001 - a failed decision is counted
            failed += 1
            return
        done = perf_counter()
        last_done = max(last_done, done)
        latencies.append((index, done - due))

    tasks = []
    start = perf_counter() + 0.005
    for index, request in enumerate(requests):
        due = start + index * interval
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, perf_counter() - due))
        tasks.append(loop.create_task(one(index, request, due)))
    await asyncio.gather(*tasks)
    in_send_order = [latency for _, latency in sorted(latencies)]
    return step_result(rate, len(requests), failed, start, last_done or perf_counter(), late, late, in_send_order)


#: Idle time between the wire's closed loop and its reference phase.
SETTLE_S = 0.5


def wire_client(config) -> dict:
    """Warm-up; ``parts`` rounds of closed loop, reference rate and
    one-at-a-time requests; then the ladder (whose early stop cannot change what the phases
    before it saw).  The rounds spread both measurements over the run,
    so one slow spell of the host weighs on a third of each.  The counts
    are fixed, so periodic work of the server (SQLite WAL checkpoints,
    gen-2 collections) lands at the same place in every run."""
    recorder = _recorder_for(config, role="client")
    from repro.client.remote import AsyncRemotePDP

    if config["server_cpu"] is not None:
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {config["server_cpu"]})

    spec = workloads.LoadSpec(**config["spec"])
    stream = workloads.hotpath_stream(10**9, config["seed"])
    attempted = failed = 0

    def take(count):
        nonlocal attempted
        attempted += count
        return [next(stream) for _ in range(count)]

    def account(phase):
        nonlocal failed
        failed += phase["failed"]
        return phase

    concurrency = config["concurrency"]
    loop = asyncio.new_event_loop()
    run = loop.run_until_complete
    pdp = AsyncRemotePDP("127.0.0.1", config["port"], protocol_version="v2", timeout=30.0)
    try:
        account(run(_wire_closed(pdp, take(config["warmup"]), concurrency)))
        rounds, references, sequential = [], [], []
        parts = config["parts"]
        for _ in range(parts):
            rounds.append(account(run(_wire_closed_segments(
                pdp, take(config["closed_count"] // parts), concurrency, config["closed_segment"],
                config["calibrate"], config["server_cpu"], config["server_pid"]))))
            # Let the server settle after the saturating burst, so the
            # reference phase starts on a quiet server in every run.
            sleep(SETTLE_S)
            references.append(_step_verdict(
                account(run(_wire_step(pdp, take(config["reference_count"] // parts), spec.reference))),
                spec.limit_ms,
            ))
            sequential.append(account(run(_wire_sequential(
                pdp, take(config["sequential_count"] // parts), config["calibrate"], config["server_cpu"],
                config["server_pid"]))))
        reference = merge_steps(references)
        # The server's peak memory before the ladder, as in-process.
        server_rss = _peak_rss_mib_of(config["server_pid"])
        steps = run_ladder(
            spec,
            config["step_seconds"],
            lambda rate, count: account(run(_wire_step(pdp, take(count), rate))),
        )
    finally:
        run(pdp.close())
        loop.close()
    chunks = [chunk for one in rounds for chunk in one["chunk_list"]]
    result = {
        "closed": _quantiles_ms([latency for one in rounds for latency in one["latencies"]]),
        "closed_rps": total_rate(chunks, False),
        "closed_scaled_rps": total_rate(chunks, True),
        "closed_chunks": len(chunks),
        "closed_segments": [[raw, scaled] for raw, scaled in zip(chunk_rates(chunks, False), chunk_rates(chunks, True))],
        "kernel_s": [seconds for one in rounds for seconds in one["kernel_s"]],
        "closed_window": [rounds[0]["window"][0], rounds[-1]["window"][1]],
        "sequential": _quantiles_ms([latency for one in sequential for latency in one["latencies"]]),
        "sequential_scaled": _quantiles_ms([latency for one in sequential for latency in one["scaled"]]),
        "steps": steps,
        "reference": reference,
        "attempted": attempted,
        "failed": failed,
        "server_rss_mib": server_rss,
    }
    return _finish(config, result, recorder)


def wire_check(config) -> dict:
    """Zero what-if flips replaying the served trail under the served
    policy, and no MMER breach in the retained ADI the server left."""
    from repro.api import open_store, what_if
    from repro.xmlpolicy import parse_policy_set_file

    # The served set mixes MMER and MMEP, which only the relaxed parser
    # (serve --relaxed) accepts, so parse it here and pass the set.
    policy_set = parse_policy_set_file(config["policy"], strict=False)
    report = what_if(policy_set, config["audit_dir"], audit_key=config["audit_key"].encode())
    store = open_store(f"sqlite:{config['db']}")
    try:
        violations = workloads.mmer_violations(policy_set, store.records())
        records = store.count()
    finally:
        store.close()
    return {
        "flips": report.flip_count,
        "replayed": report.decisions_replayed,
        "violations": violations[:5],
        "violation_count": len(violations),
        "records": records,
    }


ROLES = {
    "strict-setup": strict_setup,
    "strict-run": strict_run,
    "strict-oracle": strict_oracle,
    "bank-setup": bank_setup,
    "bank-run": bank_run,
    "bank-oracle": bank_oracle,
    "wire-client": wire_client,
    "wire-check": wire_check,
}


def main(argv: list[str]) -> int:
    role, config_path = argv
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    result = ROLES[role](config)
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
