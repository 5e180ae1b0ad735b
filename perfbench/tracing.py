"""Span recording from outside the program.

A :class:`SpanRecorder` keeps spans (name, start, end, parent, request)
in flat arrays and writes them out when the run ends.  Spans come from
timing wrappers that :func:`install_wrappers` puts on public methods and
functions of the ``repro`` package *before* the program runs, so a
traced run executes the same shipped code as an untraced one plus the
wrappers.  Garbage-collector pauses are recorded from ``gc.callbacks``
as spans too, parented to whatever span they interrupted, so a pause
inside ``engine.check`` counts as runtime time, not engine time.

Only synchronous callables are wrapped: they run to completion without
interleaving, so one stack of open spans nests them correctly even in
an asyncio server.  The asyncio machinery itself (task steps, stream
protocol callbacks, futures) has no synchronous entry point to wrap, so
in the client and the server the event loop's selector is timed
instead: every wait in ``select()`` is a ``loop.idle`` span, and the
loop's busy time that no other span covers is what that machinery
costs (see :func:`summarize`).
"""

from __future__ import annotations

import functools
import gc
import json
import os
from array import array
from collections import Counter
from time import perf_counter

#: Span-name prefix -> layer (the layers are named after the modules).
LAYERS = (
    ("api.", "api"),
    ("engine.", "core.engine"),
    ("store.", "core.store"),
    ("policy.", "core.policy_epoch"),
    ("runtime.", "runtime.gc"),
    ("service.", "server.service"),
    ("wire.", "server.protocol"),
    ("audit.", "audit"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class SpanRecorder:
    """In-memory span store with a stack of currently open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("q")
        self.stack: list[int] = []
        self.request_id = -1
        self.counters: Counter = Counter()
        self._gc_started = 0.0

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(name_id)
        self.request.append(self.request_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def interval(self, name: str, start: float, end: float, parent: int = -1) -> None:
        """Record an already-finished span (queue waits, GC pauses)."""
        self.start.append(start)
        self.end.append(end)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.request.append(self.request_id)

    def __len__(self) -> int:
        return len(self.start)

    # -- garbage collector ----------------------------------------------
    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        ended = perf_counter()
        generation = info.get("generation", 0)
        self.interval(
            f"runtime.gc.gen{generation}",
            self._gc_started,
            ended,
            self.stack[-1] if self.stack else -1,
        )

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as five little-endian arrays plus a name table."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".names.json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": len(self)}, handle)
        with open(path, "wb") as handle:
            for column in (self.start, self.end, self.name, self.parent, self.request):
                column.tofile(handle)


def wrap_callable(recorder: SpanRecorder, owner, attr: str, name: str, on_result=None):
    """Replace ``owner.attr`` with a wrapper timing each call as a span."""
    original = getattr(owner, attr)
    name_id = recorder.name_id(name)
    open_span = recorder.open
    close_span = recorder.close

    if on_result is None:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(index)
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(index)
            on_result(args, result)
            return result

    setattr(owner, attr, wrapper)


class _TimedExit:
    """Context manager proxy that times only the wrapped ``__exit__``."""

    __slots__ = ("_inner", "_recorder", "_name_id")

    def __init__(self, inner, recorder: SpanRecorder, name_id: int) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        index = self._recorder.open(self._name_id)
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._recorder.close(index)


def install_wrappers(recorder: SpanRecorder, role: str = "inprocess") -> None:
    """Put timing wrappers on the public entry points of every layer.

    ``role`` is ``inprocess`` (an embedded PDP), ``server`` (the
    ``serve`` process) or ``client`` (a remote caller: codec only).
    Must run before the program builds its objects, so every instance
    (engine, store, service) is created from the wrapped classes.
    """
    if role in ("inprocess", "server"):
        _install_core_wrappers(recorder)
    if role == "server":
        _install_server_wrappers(recorder)
    if role == "client":
        _install_wire_wrappers(recorder, "wire.client_codec")
    if role in ("client", "server"):
        _install_loop_idle(recorder)
    gc.callbacks.append(recorder.gc_callback)


def _install_loop_idle(recorder: SpanRecorder) -> None:
    """Record each wait of the event loop in its selector as ``loop.idle``."""
    import selectors

    selector_class = selectors.DefaultSelector
    original = selector_class.select

    @functools.wraps(original)
    def select(self, timeout=None):
        began = perf_counter()
        try:
            return original(self, timeout)
        finally:
            recorder.interval("loop.idle", began, perf_counter())

    selector_class.select = select


def _install_core_wrappers(recorder: SpanRecorder) -> None:
    from repro.api import LocalPDP
    from repro.core.engine import MSoDEngine
    from repro.core.policy_epoch import CompiledPolicyMatcher
    from repro.core.retained_adi import (
        ADIViewSnapshot,
        RetainedADIStore,
        SQLiteRetainedADIStore,
    )

    wrap_callable(recorder, LocalPDP, "decide", "api.decide")
    _number_requests(recorder, LocalPDP, "decide")
    wrap_callable(recorder, LocalPDP, "reload_policy", "policy.swap")
    wrap_callable(recorder, MSoDEngine, "check", "engine.check", _count_decision(recorder))
    wrap_callable(recorder, CompiledPolicyMatcher, "matching", "engine.match", _count_matches(recorder))
    for method in ("has_context", "user_roles", "user_privilege_exercise_counts"):
        wrap_callable(recorder, ADIViewSnapshot, method, "store.view_read")
    wrap_callable(recorder, RetainedADIStore, "apply", "store.apply")
    # A tiered store reads its warm SQLite layer by user only to hydrate
    # a cold user, so every warm find_user under a decision is one
    # hydration.
    wrap_callable(recorder, SQLiteRetainedADIStore, "find_user", "store.hydrate")
    batch_id = recorder.name_id("store.batch_commit")
    original_batch = SQLiteRetainedADIStore.batch

    @functools.wraps(original_batch)
    def batch(self):
        return _TimedExit(original_batch(self), recorder, batch_id)

    SQLiteRetainedADIStore.batch = batch


def _number_requests(recorder: SpanRecorder, owner, attr: str) -> None:
    """Give every span under ``owner.attr`` the next request number."""
    inner = getattr(owner, attr)

    @functools.wraps(inner)
    def numbered(*args, **kwargs):
        recorder.request_id += 1
        return inner(*args, **kwargs)

    setattr(owner, attr, numbered)


def _count_decision(recorder: SpanRecorder):
    counters = recorder.counters

    def on_result(args, decision) -> None:
        counters["decisions"] += 1
        if decision.granted:
            counters["grants"] += 1

    return on_result


def _count_matches(recorder: SpanRecorder):
    counters = recorder.counters

    def on_result(args, matched) -> None:
        counters["policies_matched"] += len(matched)

    return on_result


def _install_wire_wrappers(recorder: SpanRecorder, name: str) -> None:
    """Time the v2 codec functions; count frames and bytes both ways."""
    from repro.server import protocol

    counters = recorder.counters

    def sent(args, data) -> None:
        counters["wire.frames_out"] += 1
        counters["wire.bytes_out"] += len(data)

    def received(args, frame) -> None:
        counters["wire.frames_in"] += 1
        counters["wire.bytes_in"] += protocol.V2_HEADER_BYTES + len(args[0])

    wrap_callable(recorder, protocol, "encode_frame_v2", name, sent)
    wrap_callable(recorder, protocol, "decode_frame_v2", name, received)
    for function in (
        "request_to_wire",
        "batch_requests_of",
        "decision_to_wire_delta",
        "decision_from_wire_delta",
    ):
        wrap_callable(recorder, protocol, function, name)


def _install_server_wrappers(recorder: SpanRecorder) -> None:
    """Service queueing, micro-batching and audit appends (server only)."""
    from repro.audit.trail import AuditTrailManager
    from repro.core.engine import MSoDEngine
    from repro.server.service import (
        AuthorizationService,
        ServiceOverloadedError,
    )

    _install_wire_wrappers(recorder, "wire.server_codec")
    wrap_callable(recorder, AuditTrailManager, "append", "audit.append")
    counters = recorder.counters
    submitted: dict[int, float] = {}
    original_submit = AuthorizationService.submit

    @functools.wraps(original_submit)
    def submit(self, request):
        try:
            future = original_submit(self, request)
        except ServiceOverloadedError:
            counters["service.rejected"] += 1
            raise
        submitted[id(request)] = perf_counter()
        return future

    AuthorizationService.submit = submit

    # The queue wait ends where the worker starts the engine check; it
    # is recorded as a finished span just before the check span opens.
    wrapped_check = MSoDEngine.check

    @functools.wraps(wrapped_check)
    def check(self, request):
        recorder.request_id += 1
        queued = submitted.pop(id(request), None)
        if queued is not None:
            recorder.interval("service.queue_wait", queued, perf_counter())
        return wrapped_check(self, request)

    MSoDEngine.check = check

    def batched(args, result) -> None:
        counters["service.batches"] += 1
        counters["service.batched"] += len(args[1])

    # The micro-batch: every decision in it waits for the whole batch
    # (later checks, audit appends and the one store commit) before its
    # reply can leave, which summarize() accounts for.
    wrap_callable(recorder, AuthorizationService, "_run_batch", "service.run_batch", batched)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def load_spans(path: str) -> SpanRecorder:
    """Read back a :meth:`SpanRecorder.dump`."""
    with open(path + ".names.json", encoding="utf-8") as handle:
        header = json.load(handle)
    recorder = SpanRecorder()
    for name in header["names"]:
        recorder.name_id(name)
    count = header["spans"]
    with open(path, "rb") as handle:
        for column in (recorder.start, recorder.end, recorder.name, recorder.parent, recorder.request):
            column.fromfile(handle, count)
    return recorder


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[round(fraction * (len(ordered) - 1))]


def summarize(recorders, window: tuple[float, float] | None = None) -> dict:
    """Per-name statistics over the spans that start inside ``window``.

    ``recorders`` may hold spans of several processes (client and
    server): the clock is the system-wide monotonic clock, so one window
    selects the same interval in each.  Self time is a span's duration
    minus the part its direct children cover.  Returns, per span name,
    count, mean/p50/p99/max duration and the self-time mean, p99 and
    total; and per layer, the self time weighted by the number of decisions it blocks (see
    :func:`_blocking_weights`), which is what the layer-sum check adds up.

    For a process whose event loop was timed (``loop.idle`` spans), the
    window's busy time outside every top-level span is the asyncio
    machinery of the client library or the server's protocol handler:
    ``loop_other_s`` lists it per recorder (0 without a timed loop) and
    it counts towards the ``server.protocol`` layer.  The queue wait is
    an interval the request spends waiting, not loop work, so it does
    not cover busy time.
    """
    per_name: dict[str, dict] = {}
    blocking: Counter = Counter()
    loop_other = []
    low, high = window if window is not None else (float("-inf"), float("inf"))
    for recorder in recorders:
        start, end, name, parent = recorder.start, recorder.end, recorder.name, recorder.parent
        chosen = [index for index in range(len(start)) if low <= start[index] <= high]
        loop_other.append(_loop_other(recorder, chosen, low, high))
        blocking["server.protocol"] += loop_other[-1]
        weight = _blocking_weights(recorder, chosen)
        child_time: dict[int, float] = {}
        for index in chosen:
            owner = parent[index]
            if owner >= 0:
                child_time[owner] = child_time.get(owner, 0.0) + (end[index] - start[index])
        durations: dict[str, list[float]] = {}
        selfs: dict[str, list[float]] = {}
        for index in chosen:
            label = recorder.names[name[index]]
            duration = end[index] - start[index]
            own = duration - child_time.get(index, 0.0)
            durations.setdefault(label, []).append(duration)
            selfs.setdefault(label, []).append(own)
            if label != "loop.idle":
                blocking[layer_of(label)] += own * weight.get(index, 1)
        for label, values in durations.items():
            merged = per_name.setdefault(label, {"durations": [], "selfs": []})
            merged["durations"].extend(values)
            merged["selfs"].extend(selfs[label])
    summary = {}
    for label, merged in per_name.items():
        values = sorted(merged["durations"])
        self_values = sorted(merged["selfs"])
        self_total = sum(self_values)
        summary[label] = {
            "count": len(values),
            "mean_s": sum(values) / len(values),
            "p50_s": percentile(values, 0.50),
            "p99_s": percentile(values, 0.99),
            "max_s": values[-1],
            "total_s": sum(values),
            "self_mean_s": self_total / len(values),
            "self_p99_s": percentile(self_values, 0.99),
            "self_total_s": self_total,
        }
    return {"spans": summary, "blocking": dict(blocking), "loop_other_s": loop_other}


def _loop_other(recorder: SpanRecorder, chosen: list[int], low: float, high: float) -> float:
    """Busy time of a timed event loop in ``[low, high]`` outside every
    top-level span (0 when the loop was not timed)."""
    idle_id = recorder._ids.get("loop.idle")
    if idle_id is None:
        return 0.0
    not_busy = {idle_id, recorder._ids.get("service.queue_wait")}
    start, end, name, parent = recorder.start, recorder.end, recorder.name, recorder.parent
    idle = covered = 0.0
    for index in chosen:
        if name[index] == idle_id:
            idle += end[index] - start[index]
        elif parent[index] < 0 and name[index] not in not_busy:
            covered += end[index] - start[index]
    return max(0.0, (high - low) - idle - covered)


def _blocking_weights(recorder: SpanRecorder, chosen: list[int]) -> dict[int, int]:
    """How many decisions each span inside a server micro-batch blocks.

    A reply leaves only when its whole batch is done, so decision k of
    a batch waits for every span from its own check to the batch end
    (and earlier spans of the batch are already part of its queue
    wait).  A direct child of the batch therefore blocks as many
    decisions as there are checks started at or before it; the batch's
    own time blocks all of them; deeper spans inherit their ancestor's
    weight.  Spans outside batches block one decision.
    """
    batch_id = recorder._ids.get("service.run_batch")
    if batch_id is None:
        return {}
    check_id = recorder._ids.get("engine.check")
    name, parent = recorder.name, recorder.parent
    children: dict[int, list[int]] = {}
    for index in chosen:
        children.setdefault(parent[index], []).append(index)
    weight: dict[int, int] = {}
    for index in chosen:
        if name[index] != batch_id:
            continue
        started = 0
        for child in sorted(children.get(index, ()), key=recorder.start.__getitem__):
            if name[child] == check_id:
                started += 1
            weight[child] = max(started, 1)
        weight[index] = max(started, 1)
    for index in chosen:
        owner = parent[index]
        if index not in weight and owner in weight and name[owner] != batch_id:
            weight[index] = weight[owner]
    return weight
