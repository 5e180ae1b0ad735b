"""The sans-IO protocol core of the remote PDP clients.

No sockets, threads or event loops: :class:`~repro.client.RemotePDP`
and :class:`~repro.client.AsyncRemotePDP` are IO shells around this
module, so the rules that must never differ between them live here once.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from typing import Any, Callable, NamedTuple

from repro.core.policy_epoch import PolicySwapReport, PolicyVersion
from repro.errors import (
    PDPConnectError,
    PDPFencedError,
    PDPNotPrimaryError,
    PDPOverloadedError,
    PDPUnavailableError,
    PolicyError,
    ProtocolError,
)
from repro.perf import NOOP, PerfRecorder
from repro.server import protocol

_FRAME_COUNTER = itertools.count(1)


def next_frame_id() -> str:
    return f"c-{next(_FRAME_COUNTER):08d}"


def error_to_exception(error) -> Exception:
    """Map a wire error object to the typed exception it represents.

    Shared by whole-frame (v1 and v2) and per-entry (``decide-batch``)
    error handling, so a fenced or overloaded entry inside a batch
    raises exactly what the same failure raises on a v1 round trip.
    """
    if not isinstance(error, dict):
        return ProtocolError("response is neither ok nor a valid error frame")
    kind = error.get("kind")
    detail = str(error.get("detail", ""))
    if kind == protocol.ERR_OVERLOADED:
        retry_after = error.get("retry_after")
        return PDPOverloadedError(
            f"remote PDP overloaded: {detail}",
            retry_after=float(retry_after) if retry_after else 0.0,
        )
    if kind == protocol.ERR_PROTOCOL:
        return ProtocolError(f"remote PDP rejected the frame: {detail}")
    if kind == protocol.ERR_FENCED:
        return PDPFencedError(f"remote PDP fenced the request: {detail}")
    if kind == protocol.ERR_NOT_PRIMARY:
        return PDPNotPrimaryError(f"remote PDP is not primary: {detail}")
    if kind == protocol.ERR_POLICY:
        # A rejected policy-reload: caller error, never retried (and the
        # server's active policy is untouched).
        return PolicyError(f"remote PDP rejected the policy: {detail}")
    return PDPUnavailableError(f"remote PDP error ({kind}): {detail}")


def check_response(frame: dict, frame_id: str) -> dict:
    """Validate a response envelope; raise the typed error it carries."""
    if frame.get("id") != frame_id:
        raise ProtocolError(
            f"response id {frame.get('id')!r} does not match request "
            f"id {frame_id!r} (connection used concurrently?)"
        )
    if frame.get("ok") is True:
        return frame
    raise error_to_exception(frame.get("error"))


def decode_line(line: bytes) -> dict:
    """Decode one JSON-lines response line."""
    if not line.endswith(b"\n"):
        raise PDPUnavailableError(
            "connection closed mid-response"
            if not line
            else "oversized or truncated response frame"
        )
    return protocol.decode_frame(line)


def connect_error(host: str, port: int, exc: Exception) -> PDPConnectError:
    return PDPConnectError(f"cannot connect to PDP at {host}:{port}: {exc}")


def no_response(timeout: float) -> PDPUnavailableError:
    return PDPUnavailableError(
        f"no response within {timeout}s; pipelined connection dropped"
    )


def _settle(future, decision: dict | None, error: Exception | None) -> None:
    """Resolve a caller's future (``concurrent.futures`` or ``asyncio``)."""
    if future.done():  # the caller timed out and gave up on it
        return
    if error is None:
        future.set_result(decision)
    else:
        future.set_exception(error)


class Pipeline:
    """One pipelined protocol-v2 connection's decides, without IO.

    Frames hold one fencing epoch, at most ``batch_max`` requests, and
    at most ``window`` are in flight; responses resolve the callers'
    futures by frame id, out of order.  On failure (:meth:`fail`) a
    decide still **queued** gets :class:`PDPConnectError` (nothing was
    sent: safe to retry), one in a **cut** frame the failure itself
    (the server may still commit it: never replayed).
    """

    def __init__(
        self, batch_max: int, window: int, perf: PerfRecorder = NOOP
    ) -> None:
        self._batch_max = batch_max
        self._window = window
        self._perf = perf
        self._queue: deque[tuple[Any, dict, int | None]] = deque()
        self._pending: dict[str, list] = {}
        self.dead: Exception | None = None

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def window_full(self) -> bool:
        return len(self._pending) >= self._window

    def submit(self, future, request: dict, epoch: int | None) -> None:
        if self.dead is not None:
            raise PDPConnectError(f"pipelined connection lost: {self.dead}")
        self._queue.append((future, request, epoch))

    def cut(self) -> bytes | None:
        """The next ``decide-batch`` frame, encoded; its decides now
        count as sent.  ``None`` when it cannot be encoded (those
        decides fail alone; the connection stays up)."""
        queue = self._queue
        batch = [queue.popleft()]
        epoch = batch[0][2]
        while queue and len(batch) < self._batch_max and queue[0][2] == epoch:
            batch.append(queue.popleft())
        frame_id = next_frame_id()
        frame: dict = {
            "op": protocol.OP_DECIDE_BATCH,
            "id": frame_id,
            "requests": [request for _, request, _ in batch],
        }
        if epoch is not None:
            frame["epoch"] = epoch
        try:
            payload = protocol.encode_frame_v2(frame)
        except ProtocolError as exc:
            for future, _, _ in batch:
                _settle(future, None, exc)
            return None
        self._pending[frame_id] = [future for future, _, _ in batch]
        perf = self._perf
        if perf.enabled:
            perf.incr("client.frames_out")
            perf.incr("client.bytes_out", len(payload))
            perf.observe_size("client.batch_size", len(batch))
        return payload

    def receive(self, payload: bytes) -> None:
        """Resolve the decides one response answers.  On a malformed
        frame they stay pending for the shell's :meth:`fail`."""
        frame = protocol.decode_frame_v2(payload)
        perf = self._perf
        if perf.enabled:
            perf.incr("client.frames_in")
            perf.incr("client.bytes_in", protocol.V2_HEADER_BYTES + len(payload))
        frame_id = frame.get("id")
        futures = self._pending.get(frame_id)
        if futures is None:
            raise ProtocolError(f"unsolicited response id {frame_id!r}")
        if frame.get("ok") is True:
            entries = protocol.batch_result_entries(frame, expected=len(futures))
        else:
            # Whole-frame error (e.g. shutting-down): every entry gets
            # the typed mapping a v1 round trip would get.
            entries = [{"error": frame.get("error")}] * len(futures)
        del self._pending[frame_id]
        for future, entry in zip(futures, entries):
            if entry.get("ok") is True:
                _settle(future, entry.get("decision"), None)
            else:
                _settle(future, None, error_to_exception(entry.get("error")))

    def fail(self, exc: Exception) -> None:
        """The connection died of ``exc``: resolve every decide left."""
        if isinstance(exc, ProtocolError):
            exc = PDPUnavailableError(f"protocol violation from server: {exc}")
        elif not isinstance(exc, PDPUnavailableError):
            exc = PDPUnavailableError(f"PDP transport failure: {exc}")
        if self.dead is None:
            self.dead = exc
        queued, self._queue = self._queue, deque()
        pending, self._pending = self._pending, {}
        unsent = PDPConnectError(f"pipelined connection lost before send: {exc}")
        for future, _, _ in queued:
            _settle(future, None, unsent)
        for futures in pending.values():
            for future in futures:
                _settle(future, None, exc)


class Call(NamedTuple):
    """One request/response exchange.  ``retriable``: may it be resent
    after a failure *after* the frame was written?  ``parse`` checks the
    response body and returns the result."""

    op: str
    fields: dict
    retriable: bool
    parse: Callable[[dict], Any]
    timeout: float | None = None


def verb(method: Callable[..., Call]) -> Callable[..., Any]:
    """Run the :class:`Call` ``method`` returns through the shell's
    ``_run``: a result (blocking) or an awaitable (asyncio)."""

    @functools.wraps(method)
    def run(self, *args, **kwargs):
        return self._run(method(self, *args, **kwargs))

    return run


def hello_version(response: dict) -> int:
    """The protocol version a checked ``hello`` response grants; a
    server that cannot speak v2 raises :class:`ProtocolError`."""
    version = protocol.hello_body_version(response.get("body"))
    if version < protocol.PROTOCOL_VERSION_2:
        raise ProtocolError(
            f"server negotiated protocol v{version}; v2 required"
        )
    return version


def body_or_empty(response: dict) -> Any:
    return response.get("body", {})


def checked_body(
    kind: type, malformed: str, error: type[Exception] = ProtocolError
) -> Callable[[dict], Any]:
    """A body check: the response body must be a ``kind``."""

    def parse(response: dict) -> Any:
        body = response.get("body")
        if not isinstance(body, kind):
            raise error(malformed)
        return body

    return parse


def policy_source_to_xml(policy) -> str:
    """Normalise a ``PolicySource`` to canonical wire XML.

    Accepts the same union as :func:`repro.api.open_pdp` (an
    :class:`MSoDPolicySet`, a path, or an XML string) and parses/
    validates it *locally* first, so a malformed source fails on the
    client without a round trip.
    """
    from repro.api import load_policy_source
    from repro.xmlpolicy import write_policy_set

    return write_policy_set(load_policy_source(policy), pretty=False)


def version_from_status_body(body) -> PolicyVersion:
    version = body.get("version") if isinstance(body, dict) else None
    try:
        return PolicyVersion.from_dict(version if isinstance(version, dict) else {})
    except PolicyError as exc:
        raise ProtocolError(f"invalid policy-status body: {exc}") from exc


def _report_from_reload_body(response: dict) -> PolicySwapReport:
    body = response.get("body")
    try:
        return PolicySwapReport.from_dict(body if isinstance(body, dict) else {})
    except PolicyError as exc:
        raise ProtocolError(f"invalid policy-reload body: {exc}") from exc


def policy_reload_call(
    policy,
    parse: Callable[[dict], Any],
    *,
    verify: bool,
    max_flips: int,
    force: bool,
    principal: str | None,
    **extra,
) -> Call:
    """The ``policy-reload`` exchange, for a node or a coordinator.

    Resending an unforced reload is a digest no-op; a forced one
    advances the epoch even for an identical set, so is never resent.
    """
    fields = dict(
        policy_xml=policy_source_to_xml(policy),
        verify=verify,
        max_flips=max_flips,
        force=force,
        **extra,
    )
    if principal is not None:
        fields["principal"] = principal
    return Call(protocol.OP_POLICY_RELOAD, fields, not force, parse)


class ClientCore:
    """Settings, negotiation state, retry rule and control verbs of
    both shells.  A shell supplies the IO (``_exchange``, ``_retrying``,
    ``decide``) and its semaphore and lock types."""

    _new_slots: Callable[[int], Any]
    _new_lock: Callable[[], Any]

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        timeout: float = 5.0,
        health_timeout: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.02,
        backoff_cap: float = 0.5,
        rng: random.Random | None = None,
        perf: PerfRecorder | None = None,
        protocol_version: str = "auto",
        batch_max: int = 32,
        pipeline_window: int = 8,
    ) -> None:
        if protocol_version not in ("auto", "v1", "v2"):
            raise ValueError(
                "protocol_version must be 'auto', 'v1' or 'v2', "
                f"got {protocol_version!r}"
            )
        self._host = host
        self._port = port
        self._timeout = timeout
        self._health_timeout = (
            health_timeout if health_timeout is not None else timeout
        )
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = rng if rng is not None else random.Random()
        self._perf = perf if perf is not None else NOOP
        self._protocol_version = protocol_version
        self._batch_max = batch_max
        self._pipeline_window = pipeline_window
        self._negotiated: int | None = 1 if protocol_version == "v1" else None
        self._closed = False
        # The v1 pool: at most pool_size exchanges at once, idle
        # connections reused (deque appends and pops are thread-safe).
        self._slots = self._new_slots(pool_size)
        self._idle: deque = deque()
        self._pipe = None
        self._pipe_lock = self._new_lock()

    @property
    def negotiated_protocol(self) -> int | None:
        """The decide protocol in use: 1, 2, or None before negotiation."""
        return self._negotiated

    def _take_idle(self):
        """An idle pooled connection, or None."""
        try:
            return self._idle.pop()
        except IndexError:
            return None

    def _hello_failed(self, exc: BaseException) -> None:
        """Raise, or fall back to v1 for the client's lifetime.

        A lost ``hello`` is side-effect free: a retriable connect error.
        A server that cannot speak v2 fails a ``"v2"`` client.
        """
        if isinstance(exc, PDPUnavailableError):
            raise PDPConnectError(f"handshake failed: {exc}") from exc
        if not isinstance(exc, ProtocolError) or self._protocol_version != "auto":
            raise exc
        self._negotiated = 1

    def _run(self, call: Call):
        """Perform ``call`` on a pooled connection, with retries."""
        return self._retrying(lambda: self._exchange(call), call.retriable)

    def _retry_delay(
        self, exc: PDPUnavailableError, attempt: int, retriable: bool
    ) -> float:
        """The backoff before the next attempt, or re-raise ``exc``.

        Connect failures and overload rejections never reached a shard;
        anything else may have, so it is resent only when ``retriable``.
        """
        perf = self._perf
        floor = 0.0
        if isinstance(exc, PDPOverloadedError):
            perf.incr("client.overload_rejections")
            floor = exc.retry_after
        else:
            perf.incr("client.transport_failures")
            if not retriable and not isinstance(exc, PDPConnectError):
                raise exc
        if attempt >= self._max_retries:
            raise exc
        perf.incr("client.retries")
        ceiling = min(self._backoff_cap, self._backoff_base * (2**attempt))
        return floor + self._rng.uniform(0.0, ceiling)

    def _decide_call(self, wire: dict, epoch: int | None) -> Call:
        """A v1 ``decide``: never resent once written (it may have
        committed a grant to the retained ADI)."""
        fields: dict = {"request": wire}
        if epoch is not None:
            fields["epoch"] = epoch
        return Call(
            protocol.OP_DECIDE,
            fields,
            False,
            lambda response: protocol.decision_from_wire(response.get("decision")),
        )

    # -- control verbs -------------------------------------------------
    @verb
    def healthz(self) -> dict:
        """The server's health snapshot (status + per-shard backlog).

        Uses the dedicated ``health_timeout`` (connect and read), so a
        probe against a hung node fails fast even when the decide
        timeout is generous.
        """
        return Call(
            protocol.OP_HEALTHZ, {}, True, body_or_empty, self._health_timeout
        )

    @verb
    def metrics(self) -> dict:
        """The server's metrics snapshot (perf counters + shard stats)."""
        return Call(protocol.OP_METRICS, {}, True, body_or_empty)

    @verb
    def metrics_text(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return Call(
            protocol.OP_METRICS,
            {"format": protocol.METRICS_FORMAT_PROMETHEUS},
            True,
            checked_body(str, "prometheus metrics body must be a string"),
        )

    @verb
    def slowlog(self) -> dict:
        """The server's slowest-decision traces (requires server tracing)."""
        return Call(protocol.OP_SLOWLOG, {}, True, body_or_empty)

    @verb
    def policy_status(self) -> dict:
        """The ``policy-status`` body: active version + reload count."""
        return Call(protocol.OP_POLICY_STATUS, {}, True, body_or_empty)

    @verb
    def policy_version(self) -> PolicyVersion:
        """The policy version the server currently decides under."""
        return Call(
            protocol.OP_POLICY_STATUS,
            {},
            True,
            lambda response: version_from_status_body(body_or_empty(response)),
        )

    @verb
    def reload_policy(
        self,
        policy,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        principal: str | None = None,
    ) -> PolicySwapReport:
        """Atomically swap the server's policy set (zero downtime).

        Same ``PolicySource`` union and semantics as
        :meth:`repro.api.LocalPDP.reload_policy`: the source is parsed
        and validated locally, shipped as canonical XML, and swapped in
        by the server between micro-batches.  A server-side rejection
        raises :class:`~repro.errors.PolicyError`, leaving the active
        policy untouched.

        An unforced reload is resent after a lost response: reloading
        an identical set is a digest no-op on the server.  A forced
        reload advances the epoch even for an identical set, so it is
        never resent once written; a lost response surfaces as
        :class:`~repro.errors.PDPUnavailableError`.

        ``verify=True`` runs the server-side verification gate first
        (static analysis plus, when the server records an audit trail,
        the differential what-if replay): error findings or more than
        ``max_flips`` flipped decisions refuse the swap; ``force=True``
        overrides the gate.

        ``principal`` names the acting operator; when the server's
        outgoing policy set carries admin-boundary constraints over the
        policy store, a principal with retained operational decisions
        is refused (``force`` does not override the boundary).
        """
        return policy_reload_call(
            policy,
            _report_from_reload_body,
            verify=verify,
            max_flips=max_flips,
            force=force,
            principal=principal,
        )

    @verb
    def verify_policy(self, policy) -> dict:
        """Server-side static verification of a candidate set.

        Returns the structured :class:`~repro.verify.static.VerifyReport`
        body (``{"ok", "counts", "findings"}``) without swapping
        anything.
        """
        return Call(
            protocol.OP_VERIFY,
            {"policy_xml": policy_source_to_xml(policy)},
            True,
            checked_body(dict, "verify body must be an object"),
        )

    @verb
    def what_if(self, policy) -> dict:
        """Differentially replay the server's audit trail under a candidate.

        Returns the :class:`~repro.verify.whatif.WhatIfReport` body.
        Raises :class:`~repro.errors.PolicyError` when the server holds
        no recorded trail.
        """
        return Call(
            protocol.OP_WHATIF,
            {"policy_xml": policy_source_to_xml(policy)},
            True,
            checked_body(dict, "whatif body must be an object"),
        )
