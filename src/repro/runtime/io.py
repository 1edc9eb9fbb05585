"""The I/O substrate: one selector loop under every socket in the system.

Before this module existed the two top-of-DAG planes owned their own
networking: ``repro.net`` burned a thread per connection inside
``ThreadingHTTPServer`` and ``repro.cluster`` had no wire at all (its
``LocalTransport`` is an in-process call). Both now stand on the same
kernel substrate:

* :class:`Connection` — a non-blocking socket with buffered writes
  (``send()`` is thread-safe from any worker thread), chunked reads
  delivered to an ``on_data`` callback on the loop thread, EVENT_WRITE
  interest toggled on only while the out-buffer is non-empty, an
  optional per-connection idle timeout, and ``close_when_drained()``
  half-close semantics for ``Connection: close`` responses.
* :class:`Listener` — a non-blocking accepting socket; every accepted
  client gets ``TCP_NODELAY`` and a fresh :class:`Connection` handed to
  the listener's ``on_accept`` callback.
* :class:`FrameBuffer` / :func:`length_prefix` — the length-prefixed
  frame codec (4-byte big-endian length + payload) socket protocols
  build on; ``FrameBuffer.feed`` is an incremental decoder that tolerates
  arbitrary chunk boundaries.
* :class:`IoLoop` — the event loop itself, a proper runtime
  :class:`~repro.runtime.lifecycle.Service`: one owned selector thread,
  a socketpair wakeup for cross-thread work (:meth:`IoLoop.call_soon` /
  :meth:`IoLoop.run_on_loop`), periodic idle reaping, and a drain that
  closes every listener, connection and fd it ever opened — zero leaked
  threads or file descriptors by construction.

Telemetry rides in the shared :class:`~repro.runtime.MetricsRegistry`
(``io_open_connections`` gauge with high-water mark, byte and
accept/reap counters), so one registry shows the whole deployment's
socket picture next to its request metrics.

Layering: this module is part of the runtime kernel and imports nothing
above it. Lint rule 7 (``tools/check_layering.py``) additionally pins
its *consumers*: only the two networked planes — ``repro.net`` and
``repro.cluster`` — may import it; everything else stays socket-free.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from collections import deque
from collections.abc import Callable

from repro.errors import ValidationError
from repro.runtime.lifecycle import Service
from repro.runtime.telemetry import MetricsRegistry, get_registry

#: bytes pulled per recv() call on a readable connection
RECV_CHUNK = 65536
#: consecutive accept() calls per readable-listener event
ACCEPT_BATCH = 128
#: default loop tick: upper bound on idle-reap / wakeup latency
DEFAULT_TICK_S = 0.05

_LEN = struct.Struct("!I")

#: refuse frames larger than this (a corrupt/hostile length prefix must
#: not make the decoder buffer gigabytes)
MAX_FRAME_BYTES = 64 * 1024 * 1024


# -- the frame codec ----------------------------------------------------------


def length_prefix(payload: bytes) -> bytes:
    """``payload`` -> one wire frame: 4-byte big-endian length + bytes."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValidationError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _LEN.pack(len(payload)) + payload


class FrameBuffer:
    """Incremental decoder for :func:`length_prefix` frames.

    Feed it chunks as they arrive off the socket — any split, including
    mid-prefix — and it yields each completed payload exactly once.
    Single-threaded by design: it lives with its connection on the loop
    thread (or inside one blocking client socket).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[bytes]:
        """Absorb ``chunk``; return every frame completed by it."""
        self._buf += chunk
        frames: list[bytes] = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buf)
            if length > self.max_frame_bytes:
                raise ValidationError(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            end = _LEN.size + length
            if len(self._buf) < end:
                return frames
            frames.append(bytes(self._buf[_LEN.size : end]))
            del self._buf[:end]

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# -- connections --------------------------------------------------------------


class Connection:
    """One accepted socket under the loop.

    Reads happen on the loop thread: each readable event recv()s and
    hands the chunk to :attr:`on_data` (protocol parsers keep their own
    reassembly state). Writes are buffered: :meth:`send` appends under a
    lock from *any* thread and schedules a flush on the loop, which
    writes as much as the kernel accepts and registers EVENT_WRITE
    interest only while bytes remain. :attr:`on_close` fires exactly
    once, on the loop thread, with a reason string (``"peer"``,
    ``"idle"``, ``"local"``, ``"error"``, ``"shutdown"``).
    """

    def __init__(
        self,
        loop: "IoLoop",
        sock: socket.socket,
        peer: tuple,
        idle_timeout_s: float | None = None,
    ) -> None:
        self.loop = loop
        self.sock = sock
        self.peer = peer
        self.idle_timeout_s = idle_timeout_s
        #: set True by the protocol while a request is being served, so
        #: the idle reaper never kills a connection mid-response
        self.reap_exempt = False
        self.on_data: Callable[["Connection", bytes], None] | None = None
        self.on_close: Callable[["Connection", str], None] | None = None
        self.close_reason: str | None = None
        self.bytes_read = 0
        self.bytes_written = 0
        self._outbuf = bytearray()
        self._outbuf_lock = threading.Lock()
        self._events = selectors.EVENT_READ
        self._close_when_drained = False
        self._closed = False
        self._last_activity = time.monotonic()

    # -- thread-safe surface (any thread) -------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, data: bytes) -> None:
        """Queue ``data`` for the peer; flushed by the loop. No-op once
        the connection is closed (the caller learns via ``on_close``)."""
        if not data:
            return
        with self._outbuf_lock:
            if self._closed:
                return
            self._outbuf += data
        self.loop.call_soon(self._flush)

    def close(self, reason: str = "local") -> None:
        """Close from any thread (asynchronously, via the loop)."""
        self.loop.call_soon(lambda: self.loop._close_connection(self, reason))

    def close_when_drained(self) -> None:
        """Close as soon as the out-buffer is fully written — the
        socket half of ``Connection: close``."""

        def _mark() -> None:
            self._close_when_drained = True
            self._flush()

        self.loop.call_soon(_mark)

    def touch(self) -> None:
        """Reset the idle clock (reads/writes do this automatically)."""
        self._last_activity = time.monotonic()

    def idle_seconds(self, now: float | None = None) -> float:
        return (time.monotonic() if now is None else now) - self._last_activity

    def pending_out_bytes(self) -> int:
        with self._outbuf_lock:
            return len(self._outbuf)

    # -- loop-thread internals -------------------------------------------------

    def _handle_event(self, mask: int) -> None:
        if self._closed:
            return
        if mask & selectors.EVENT_READ:
            self._handle_read()
        if not self._closed and mask & selectors.EVENT_WRITE:
            self._flush()

    def _handle_read(self) -> None:
        peer_closed = False
        errored = False
        chunks: list[bytes] = []
        try:
            # drain a few chunks per event; level-triggered select
            # re-fires if more is waiting, which keeps dispatch fair
            # across thousands of connections
            for __ in range(4):
                data = self.sock.recv(RECV_CHUNK)
                if not data:
                    peer_closed = True
                    break
                chunks.append(data)
                if len(data) < RECV_CHUNK:
                    break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            errored = True
        if chunks:
            self.touch()
            total = sum(len(c) for c in chunks)
            self.bytes_read += total
            self.loop.bytes_read.inc(total)
        for data in chunks:
            if self._closed:
                return
            if self.on_data is not None:
                try:
                    self.on_data(self, data)
                except Exception:  # noqa: BLE001 - protocol violation
                    self.loop._close_connection(self, "error")
                    return
        if peer_closed:
            self.loop._close_connection(self, "peer")
        elif errored:
            self.loop._close_connection(self, "error")

    def _flush(self) -> None:
        if self._closed:
            return
        errored = False
        with self._outbuf_lock:
            while self._outbuf:
                try:
                    sent = self.sock.send(self._outbuf)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    errored = True
                    break
                del self._outbuf[:sent]
                self.bytes_written += sent
                self.loop.bytes_written.inc(sent)
            pending = bool(self._outbuf)
        self.touch()
        if errored:
            self.loop._close_connection(self, "error")
            return
        want = selectors.EVENT_READ | (selectors.EVENT_WRITE if pending else 0)
        if want != self._events:
            self._events = want
            self.loop._set_interest(self, want)
        if not pending and self._close_when_drained:
            self.loop._close_connection(self, "local")


class Listener:
    """A non-blocking accepting socket owned by the loop."""

    def __init__(
        self,
        loop: "IoLoop",
        sock: socket.socket,
        on_accept: Callable[[Connection], None],
        idle_timeout_s: float | None,
    ) -> None:
        self.loop = loop
        self.sock = sock
        self.on_accept = on_accept
        self.idle_timeout_s = idle_timeout_s
        self.host, self.port = sock.getsockname()[:2]
        self.closed = False

    def close(self) -> None:
        """Stop accepting (existing connections live on); any thread."""
        self.loop.run_on_loop(lambda: self.loop._close_listener(self))

    # loop thread only
    def _handle_accept(self, mask: int) -> None:
        for __ in range(ACCEPT_BATCH):
            try:
                client, addr = self.sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener racing close
            client.setblocking(False)
            try:
                client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = Connection(
                self.loop, client, addr, idle_timeout_s=self.idle_timeout_s
            )
            self.loop._register_connection(conn)
            try:
                self.on_accept(conn)
            except Exception:  # noqa: BLE001 - acceptor bug, not fatal
                self.loop._close_connection(conn, "error")


# -- the loop -----------------------------------------------------------------


class IoLoop(Service):
    """One selector thread serving every listener and connection.

    A proper runtime :class:`Service`: ``start()`` spawns the loop
    thread and the socketpair wakeup; ``stop()`` joins the thread and
    then closes every listener, connection, the selector and the wakeup
    pair — nothing survives a drain. All selector mutation happens on
    the loop thread; other threads talk to it through
    :meth:`call_soon` (fire-and-forget) or :meth:`run_on_loop`
    (synchronous round trip).
    """

    def __init__(
        self,
        name: str = "ioloop",
        registry: MetricsRegistry | None = None,
        tick_s: float = DEFAULT_TICK_S,
    ) -> None:
        super().__init__(name=name)
        if tick_s <= 0:
            raise ValidationError(f"tick_s must be positive ({tick_s=})")
        registry = registry if registry is not None else get_registry()
        self.tick_s = tick_s
        self._selector: selectors.BaseSelector | None = None
        self._wakeup_recv: socket.socket | None = None
        self._wakeup_send: socket.socket | None = None
        self._pending: deque[Callable[[], None]] = deque()
        self._pending_lock = threading.Lock()
        self._listeners: list[Listener] = []
        self._connections: set[Connection] = set()
        self._loop_thread: threading.Thread | None = None
        self._last_reap = 0.0
        self.open_connections = registry.gauge(
            "io_open_connections", loop=self.name
        )
        self.bytes_read = registry.counter("io_bytes_read_total", loop=self.name)
        self.bytes_written = registry.counter(
            "io_bytes_written_total", loop=self.name
        )
        self.accepted = registry.counter(
            "io_connections_accepted_total", loop=self.name
        )
        self.reaped = registry.counter(
            "io_connections_reaped_total", loop=self.name
        )

    # -- lifecycle ------------------------------------------------------------

    def _on_start(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._wakeup_send.setblocking(False)
        self._selector.register(
            self._wakeup_recv, selectors.EVENT_READ, data=self._drain_wakeup
        )
        self._loop_thread = self._spawn(self._run, name=f"{self.name}-loop")

    def _on_stop(self) -> None:
        self._stop_event.set()
        self._wake()
        self._join_workers()
        # The loop thread is gone; tear down from here. Close order:
        # listeners (no new connections), then connections, then the
        # selector + wakeup pair.
        for listener in list(self._listeners):
            self._close_listener(listener)
        for conn in list(self._connections):
            self._close_connection(conn, "shutdown")
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        for sock in (self._wakeup_recv, self._wakeup_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._wakeup_recv = self._wakeup_send = None
        with self._pending_lock:
            self._pending.clear()

    # -- cross-thread scheduling ----------------------------------------------

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread at the next tick (any thread)."""
        with self._pending_lock:
            self._pending.append(fn)
        self._wake()

    def run_on_loop(self, fn: Callable[[], object], timeout_s: float = 5.0):
        """Run ``fn`` on the loop thread and wait for its result.

        Called *from* the loop thread (or with the loop not running, as
        during shutdown) it degrades to a direct call.
        """
        if (
            self._loop_thread is None
            or not self._loop_thread.is_alive()
            or threading.current_thread() is self._loop_thread
        ):
            return fn()
        done = threading.Event()
        box: dict[str, object] = {}

        def wrapper() -> None:
            try:
                box["result"] = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc
            finally:
                done.set()

        self.call_soon(wrapper)
        if not done.wait(timeout_s):
            raise TimeoutError(f"{self.name}: loop did not run fn in {timeout_s}s")
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box.get("result")

    def _wake(self) -> None:
        sock = self._wakeup_send
        if sock is None:
            return
        try:
            sock.send(b"\0")
        except (BlockingIOError, InterruptedError):
            pass  # wakeup already pending
        except OSError:
            pass  # racing shutdown

    def _drain_wakeup(self, mask: int) -> None:
        assert self._wakeup_recv is not None
        try:
            while self._wakeup_recv.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    # -- listeners ------------------------------------------------------------

    def listen(
        self,
        host: str,
        port: int,
        on_accept: Callable[[Connection], None],
        backlog: int = 1024,
        idle_timeout_s: float | None = None,
    ) -> Listener:
        """Bind + listen and register with the selector; returns the
        listener with its (possibly ephemeral) bound port resolved."""
        self._check_running("listen")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
            sock.listen(backlog)
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        listener = Listener(self, sock, on_accept, idle_timeout_s)

        def _register() -> None:
            assert self._selector is not None
            self._selector.register(
                sock, selectors.EVENT_READ, data=listener._handle_accept
            )
            self._listeners.append(listener)

        self.run_on_loop(_register)
        return listener

    def _close_listener(self, listener: Listener) -> None:
        if listener.closed:
            return
        listener.closed = True
        if self._selector is not None:
            try:
                self._selector.unregister(listener.sock)
            except (KeyError, ValueError):
                pass
        try:
            listener.sock.close()
        except OSError:
            pass
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- connections ----------------------------------------------------------

    def connections(self) -> list[Connection]:
        """Snapshot of live connections (loop thread mutates the set;
        callers get a copy)."""
        return list(self._connections)

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    def _register_connection(self, conn: Connection) -> None:
        assert self._selector is not None
        self._selector.register(
            conn.sock, selectors.EVENT_READ, data=conn._handle_event
        )
        self._connections.add(conn)
        self.open_connections.inc()
        self.accepted.inc()

    def _set_interest(self, conn: Connection, events: int) -> None:
        if self._selector is None or conn._closed:
            return
        try:
            self._selector.modify(conn.sock, events, data=conn._handle_event)
        except (KeyError, ValueError, OSError):
            pass

    def _close_connection(self, conn: Connection, reason: str) -> None:
        if conn._closed:
            return
        with conn._outbuf_lock:
            conn._closed = True
            conn._outbuf.clear()
        conn.close_reason = reason
        if self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
        # Bookkeeping before the close: the peer may act on EOF at once.
        self._connections.discard(conn)
        self.open_connections.dec()
        if reason == "idle":
            self.reaped.inc()
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn.on_close is not None:
            try:
                conn.on_close(conn, reason)
            except Exception:  # noqa: BLE001 - observer bug, contained
                pass

    # -- the loop body --------------------------------------------------------

    def _run(self) -> None:
        assert self._selector is not None
        while not self._stop_event.is_set():
            try:
                events = self._selector.select(self.tick_s)
            except OSError:
                continue  # racing fd churn; re-select
            for key, mask in events:
                if self._stop_event.is_set():
                    break
                key.data(mask)
            self._run_pending()
            self._reap_idle()

    def _run_pending(self) -> None:
        while True:
            with self._pending_lock:
                if not self._pending:
                    return
                fn = self._pending.popleft()
            try:
                fn()
            except Exception:  # noqa: BLE001 - scheduled work is contained
                pass

    def _reap_idle(self) -> None:
        now = time.monotonic()
        if now - self._last_reap < self.tick_s:
            return
        self._last_reap = now
        for conn in list(self._connections):
            timeout = conn.idle_timeout_s
            if timeout is None or conn.reap_exempt:
                continue
            if conn.idle_seconds(now) >= timeout and not conn.pending_out_bytes():
                self._close_connection(conn, "idle")

    # -- introspection --------------------------------------------------------

    def health(self) -> dict[str, object]:
        record = super().health()
        record["connections"] = self.connection_count
        record["listeners"] = [
            (listener.host, listener.port) for listener in self._listeners
        ]
        return record
