"""Remote PDP clients: the existing PEP, pointed at a network service.

:class:`RemotePDP` implements the
:class:`~repro.framework.pdp.PolicyDecisionPoint` protocol over the
wire protocol, so a
:class:`~repro.framework.pep.PolicyEnforcementPoint` works unchanged
whether its PDP is in-process or a socket away.  :class:`AsyncRemotePDP`
is the asyncio variant for async applications.

Both are thin IO shells (blocking sockets and threads; asyncio streams
and tasks) around one sans-IO protocol core, :mod:`repro.client._core`,
which owns negotiation, batching, correlation, failure classification,
the retry rule and the control verbs.

Retry discipline — only provably idempotent work is retried:

* *connect* failures (typed :class:`~repro.errors.PDPConnectError`):
  nothing reached the server, so every operation — ``decide``
  included — is retried with jittered exponential backoff.
* *overload* rejections: the server sheds load **before** queueing, so
  the request never entered a shard; retried after the server's
  ``retry_after`` hint (plus jitter).
* read-only verbs (``healthz``, ``metrics``, ``slowlog``,
  ``policy-status``, ``verify``, ``whatif``) and an unforced
  ``policy-reload`` (a digest no-op when repeated): retried on any
  transport error.
* a ``decide`` that failed **after** the request was written is *not*
  retried — the server may have committed the grant to the retained
  ADI, and replaying it could double-record history.  Nor is a forced
  ``policy-reload``, which advances the epoch even for an identical
  set.  The caller gets a typed
  :class:`~repro.errors.PDPUnavailableError` instead.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import random
import socket
import threading
import time
from typing import BinaryIO

from repro.client._core import (
    Call,
    ClientCore,
    Pipeline,
    check_response,
    connect_error,
    decode_line,
    hello_version,
    next_frame_id,
    no_response,
)
from repro.core.decision import Decision, DecisionRequest
from repro.errors import PDPUnavailableError, ProtocolError
from repro.framework.pdp import PolicyDecisionPoint
from repro.perf import PerfRecorder
from repro.server import protocol


# ---------------------------------------------------------------------------
# Synchronous client
# ---------------------------------------------------------------------------
class _PipelinedConnection:
    """One negotiated protocol-v2 connection: a blocking socket, a
    sender thread and a reader thread around a :class:`Pipeline`.

    Every :class:`Pipeline` call happens under ``_cond``; the sender
    waits on it for queued decides and window room.
    """

    def __init__(
        self,
        conn: tuple[socket.socket, BinaryIO],
        timeout: float,
        batch_max: int,
        window: int,
        perf: PerfRecorder,
    ) -> None:
        self._sock, self._file = conn
        self._timeout = timeout
        # Blocking IO from here on: caller waits enforce the timeout and
        # kill the socket when the server goes quiet, which unblocks
        # both threads.
        self._sock.settimeout(None)
        self._cond = threading.Condition()
        self.pipeline = Pipeline(batch_max, window, perf)
        for target, name in (
            (self._send_loop, "repro-pdp-sender"),
            (self._read_loop, "repro-pdp-reader"),
        ):
            threading.Thread(target=target, name=name, daemon=True).start()

    def decide(self, request: dict, epoch: int | None) -> dict | None:
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._cond:
            self.pipeline.submit(future, request, epoch)
            self._cond.notify()
        try:
            return future.result(self._timeout)
        except concurrent.futures.TimeoutError:
            # _fail resolves every decide the pipeline holds, this one
            # included, before it returns.
            self._fail(no_response(self._timeout))
            return future.result(0)

    def _send_loop(self) -> None:
        pipeline = self.pipeline
        while True:
            with self._cond:
                while pipeline.dead is None and (
                    not pipeline.queued or pipeline.window_full
                ):
                    self._cond.wait()
                if pipeline.dead is not None:
                    return
                payload = pipeline.cut()
            if payload is None:
                continue
            try:
                self._sock.sendall(payload)
            except OSError as exc:
                # sendall may have transmitted part of the frame: the
                # whole batch counts as sent (ambiguous on the server).
                self._fail(exc)
                return

    def _read_loop(self) -> None:
        try:
            while True:
                header = self._read_exactly(protocol.V2_HEADER_BYTES)
                payload = self._read_exactly(protocol.v2_payload_length(header))
                with self._cond:
                    self.pipeline.receive(payload)
                    self._cond.notify()  # the window has room again
        except (PDPUnavailableError, ProtocolError, OSError) as exc:
            self._fail(exc)
        finally:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass

    def _read_exactly(self, n: int) -> bytes:
        data = self._file.read(n)
        if data is None or len(data) != n:
            raise PDPUnavailableError("connection closed by server")
        return data

    def _fail(self, exc: Exception) -> None:
        with self._cond:
            self.pipeline.fail(exc)
            self._cond.notify_all()
        # shutdown (not file.close) unblocks a reader parked in read():
        # closing the buffered file here would block on the read lock
        # the reader holds.  The reader closes the file as it exits.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - already torn down
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    def close(self) -> None:
        self._fail(PDPUnavailableError("pipelined connection closed"))


class RemotePDP(ClientCore, PolicyDecisionPoint):
    """A :class:`PolicyDecisionPoint` backed by a remote MSoD server.

    Thread-safe: a bounded pool of pooled connections serves concurrent
    callers (each request has exclusive use of one connection for its
    round trip, preserving the one-frame-in-flight protocol invariant).

    Parameters
    ----------
    host, port:
        The server address.
    pool_size:
        Maximum concurrent connections (callers beyond it queue).
    timeout:
        Per-operation socket timeout, seconds.
    health_timeout:
        Socket timeout for ``healthz`` probes only; defaults to the
        general ``timeout``.  A cluster health checker sets this much
        lower than the decide timeout so a dead node is detected in
        probe-time, not decide-time (failover satellite).
    max_retries:
        Extra attempts for retriable failures (see module docstring).
    backoff_base, backoff_cap:
        Full-jitter exponential backoff parameters, seconds.
    rng:
        Injectable randomness source for deterministic tests.
    perf:
        Optional recorder for client-side counters (``client.calls``,
        ``client.retries``, ``client.overload_rejections``,
        ``client.transport_failures``) and the ``client.call``
        round-trip stage histogram.
    protocol_version:
        ``"auto"`` (default) negotiates protocol v2 on the first decide
        and falls back to v1 when the server rejects the ``hello``;
        ``"v2"`` requires v2 (raising
        :class:`~repro.errors.ProtocolError` against a v1-only server);
        ``"v1"`` pins the JSON-lines protocol.  Control verbs always
        use v1 pooled connections — only ``decide`` rides the
        pipelined binary transport.
    batch_max:
        Most decide requests coalesced into one ``decide-batch`` frame
        (v2 only).
    pipeline_window:
        Most correlated v2 frames in flight per connection before
        submission blocks (v2 only).
    """

    _new_slots = threading.BoundedSemaphore
    _new_lock = threading.Lock

    @property
    def perf(self) -> PerfRecorder:
        return self._perf

    def close(self) -> None:
        """Close every pooled connection.  Idempotent."""
        self._closed = True
        while (conn := self._take_idle()) is not None:
            self._close_conn(conn)
        with self._pipe_lock:
            pipe, self._pipe = self._pipe, None
        if pipe is not None:
            pipe.close()

    # -- JSON-lines connections ----------------------------------------
    def _connect(self, timeout: float) -> tuple[socket.socket, BinaryIO]:
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=timeout
            )
        except OSError as exc:
            raise connect_error(self._host, self._port, exc) from exc
        return sock, sock.makefile("rb")

    @staticmethod
    def _close_conn(conn: tuple[socket.socket, BinaryIO]) -> None:
        sock, stream = conn
        try:
            stream.close()
            sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    @staticmethod
    def _send_recv(conn, frame: dict, timeout: float) -> dict:
        """Write ``frame`` on ``conn``; read and decode the reply."""
        sock, stream = conn
        try:
            sock.settimeout(timeout)
            sock.sendall(protocol.encode_frame(frame))
            line = stream.readline(protocol.MAX_FRAME_BYTES + 1)
        except (OSError, EOFError) as exc:
            raise PDPUnavailableError(f"PDP transport failure: {exc}") from exc
        return decode_line(line)

    def _exchange(self, call: Call):
        """One request/response on one pooled connection."""
        frame_id = next_frame_id()
        frame = protocol.request_frame(call.op, frame_id, **call.fields)
        timeout = call.timeout if call.timeout is not None else self._timeout
        with self._slots:
            conn = self._take_idle() or self._connect(timeout)
            reusable = False
            try:
                reply = self._send_recv(conn, frame, timeout)
                reusable = True
            finally:
                if reusable and not self._closed:
                    self._idle.append(conn)
                else:
                    self._close_conn(conn)
        return call.parse(check_response(reply, frame_id))

    def _retrying(self, attempt_once, retriable: bool):
        """Run ``attempt_once`` under the retry rule; count one call."""
        perf = self._perf
        perf.incr("client.calls")
        attempt = 0
        while True:
            started = perf.start() if perf.enabled else 0.0
            try:
                result = attempt_once()
            except PDPUnavailableError as exc:
                time.sleep(self._retry_delay(exc, attempt, retriable))
                attempt += 1
                continue
            if perf.enabled:
                perf.stop("client.call", started)
            return result

    # -- the PolicyDecisionPoint protocol ------------------------------
    def decide(
        self, request: DecisionRequest, *, epoch: int | None = None
    ) -> Decision:
        """Evaluate one request on the remote PDP.

        Raises :class:`PDPUnavailableError` (or its
        :class:`PDPOverloadedError` subclass once the retry budget for
        overload rejections is exhausted) instead of socket errors.

        ``epoch``, when given, rides on the decide frame; a cluster
        node compares it against its own fencing epoch and answers
        ``fenced`` (:class:`~repro.errors.PDPFencedError`) when the
        client's routing table is stale.  Plain single-node servers
        ignore the field.
        """
        wire = protocol.request_to_wire(request)

        def attempt_once() -> Decision:
            pipe = self._pipeline()
            if pipe is None:  # v1: pinned, or fell back in negotiation
                return self._exchange(self._decide_call(wire, epoch))
            decision = pipe.decide(wire, epoch)
            return protocol.decision_from_wire_delta(decision, request)

        return self._retrying(attempt_once, retriable=False)

    def _pipeline(self) -> _PipelinedConnection | None:
        """The shared pipelined v2 connection, (re)establishing it;
        ``None`` when decides speak v1."""
        with self._pipe_lock:
            pipe = self._pipe
            if self._negotiated == 1 or (pipe and pipe.pipeline.dead is None):
                return pipe
            self._pipe = None
            if pipe is not None:
                pipe.close()
            conn = self._connect(self._timeout)
            frame_id = next_frame_id()
            try:
                hello = protocol.hello_frame(frame_id)
                reply = self._send_recv(conn, hello, self._timeout)
                version = hello_version(check_response(reply, frame_id))
            except BaseException as exc:
                self._close_conn(conn)
                return self._hello_failed(exc)
            self._negotiated = version
            self._pipe = _PipelinedConnection(
                conn,
                self._timeout,
                self._batch_max,
                self._pipeline_window,
                self._perf,
            )
            return self._pipe


# ---------------------------------------------------------------------------
# Asyncio client
# ---------------------------------------------------------------------------
class _AsyncPipelinedConnection:
    """One negotiated protocol-v2 connection: a stream pair, a flush
    task and a reader task around a :class:`Pipeline`."""

    def __init__(
        self,
        conn: tuple[asyncio.StreamReader, asyncio.StreamWriter],
        timeout: float,
        batch_max: int,
        window: int,
    ) -> None:
        self._stream_reader, self._writer = conn
        self._timeout = timeout
        self.pipeline = Pipeline(batch_max, window)
        self._window_open = asyncio.Event()
        self._flush_task: asyncio.Task | None = None
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    async def decide(self, request: dict, epoch: int | None) -> dict | None:
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.pipeline.submit(future, request, epoch)
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = loop.create_task(self._flush())
        try:
            return await asyncio.wait_for(future, timeout=self._timeout)
        except asyncio.TimeoutError:
            exc = no_response(self._timeout)
            self._fail(exc)
            raise exc from None

    async def _flush(self) -> None:
        # One event-loop tick lets concurrent decide() callers land in
        # the queue before the first frame is cut.
        await asyncio.sleep(0)
        pipeline = self.pipeline
        while pipeline.queued and pipeline.dead is None:
            if pipeline.window_full:
                self._window_open.clear()
                await self._window_open.wait()
                continue
            payload = pipeline.cut()
            if payload is None:
                continue
            try:
                self._writer.write(payload)
                await self._writer.drain()
            except OSError as exc:
                self._fail(exc)
                return

    async def _read_loop(self) -> None:
        reader = self._stream_reader
        try:
            while True:
                header = await reader.readexactly(protocol.V2_HEADER_BYTES)
                length = protocol.v2_payload_length(header)
                self.pipeline.receive(await reader.readexactly(length))
                self._window_open.set()
        except asyncio.CancelledError:  # close() cancels the loop
            raise
        except (ProtocolError, OSError, asyncio.IncompleteReadError) as exc:
            self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        self.pipeline.fail(exc)
        # Wake a flush task parked on a full window; it sees the dead
        # connection and exits.
        self._window_open.set()
        self._writer.close()

    async def close(self) -> None:
        self._fail(PDPUnavailableError("pipelined connection closed"))
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        try:
            await self._writer.wait_closed()
        except OSError:  # pragma: no cover
            pass


class AsyncRemotePDP(ClientCore):
    """The asyncio twin of :class:`RemotePDP`.

    Same wire protocol, retry discipline and pooling semantics, with
    coroutine methods (``await pdp.decide(request)``) for applications
    that live on an event loop.  ``protocol_version``/``batch_max``/
    ``pipeline_window`` mirror :class:`RemotePDP`: in ``"auto"`` or
    ``"v2"`` mode decides ride one pipelined binary connection whose
    flush task coalesces concurrent callers into ``decide-batch``
    frames, while control verbs stay on v1 pooled connections.
    """

    # asyncio primitives bind to the running loop on first use.
    _new_slots = asyncio.Semaphore
    _new_lock = asyncio.Lock

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
        protocol_version: str = "auto",
        batch_max: int = 32,
        pipeline_window: int = 8,
    ) -> None:
        super().__init__(
            host,
            port,
            pool_size,
            timeout,
            health_timeout,
            max_retries,
            backoff_base,
            backoff_cap,
            rng,
            None,
            protocol_version,
            batch_max,
            pipeline_window,
        )

    async def close(self) -> None:
        """Close every pooled connection.  Idempotent."""
        self._closed = True
        while (conn := self._take_idle()) is not None:
            await self._close_conn(conn)
        pipe, self._pipe = self._pipe, None
        if pipe is not None:
            await pipe.close()

    async def __aenter__(self) -> "AsyncRemotePDP":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- JSON-lines connections ----------------------------------------
    async def _connect(
        self, timeout: float, limit: int = protocol.MAX_FRAME_BYTES
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port, limit=limit),
                timeout=timeout,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise connect_error(self._host, self._port, exc) from exc

    @staticmethod
    async def _close_conn(conn) -> None:
        _, writer = conn
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:  # pragma: no cover
            pass

    @staticmethod
    async def _send_recv(conn, frame: dict, timeout: float) -> dict:
        """Write ``frame`` on ``conn``; read and decode the reply."""
        reader, writer = conn
        try:
            writer.write(protocol.encode_frame(frame))
            await asyncio.wait_for(writer.drain(), timeout=timeout)
            line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        except (
            OSError,
            asyncio.TimeoutError,
            asyncio.LimitOverrunError,
            ValueError,
        ) as exc:
            raise PDPUnavailableError(f"PDP transport failure: {exc}") from exc
        return decode_line(line)

    async def _exchange(self, call: Call):
        """One request/response on one pooled connection."""
        frame_id = next_frame_id()
        frame = protocol.request_frame(call.op, frame_id, **call.fields)
        timeout = call.timeout if call.timeout is not None else self._timeout
        async with self._slots:
            conn = self._take_idle() or await self._connect(timeout)
            reusable = False
            try:
                reply = await self._send_recv(conn, frame, timeout)
                reusable = True
            finally:
                if reusable and not self._closed:
                    self._idle.append(conn)
                else:
                    await self._close_conn(conn)
        return call.parse(check_response(reply, frame_id))

    async def _retrying(self, attempt_once, retriable: bool):
        """Run ``attempt_once`` under the retry rule; count one call."""
        self._perf.incr("client.calls")
        attempt = 0
        while True:
            try:
                return await attempt_once()
            except PDPUnavailableError as exc:
                await asyncio.sleep(self._retry_delay(exc, attempt, retriable))
            attempt += 1

    async def decide(
        self, request: DecisionRequest, *, epoch: int | None = None
    ) -> Decision:
        """Evaluate one request on the remote PDP (coroutine)."""
        wire = protocol.request_to_wire(request)

        async def attempt_once() -> Decision:
            pipe = await self._pipeline()
            if pipe is None:  # v1: pinned, or fell back in negotiation
                return await self._exchange(self._decide_call(wire, epoch))
            decision = await pipe.decide(wire, epoch)
            return protocol.decision_from_wire_delta(decision, request)

        return await self._retrying(attempt_once, retriable=False)

    async def _pipeline(self) -> _AsyncPipelinedConnection | None:
        async with self._pipe_lock:
            pipe = self._pipe
            if self._negotiated == 1 or (pipe and pipe.pipeline.dead is None):
                return pipe
            self._pipe = None
            if pipe is not None:
                await pipe.close()
            conn = await self._connect(self._timeout, protocol.MAX_FRAME_BYTES_V2)
            frame_id = next_frame_id()
            try:
                hello = protocol.hello_frame(frame_id)
                reply = await self._send_recv(conn, hello, self._timeout)
                version = hello_version(check_response(reply, frame_id))
            except BaseException as exc:
                await self._close_conn(conn)
                return self._hello_failed(exc)
            self._negotiated = version
            self._pipe = _AsyncPipelinedConnection(
                conn, self._timeout, self._batch_max, self._pipeline_window
            )
            return self._pipe
