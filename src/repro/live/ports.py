"""Port-collision-safe binding and connection helpers.

Every live-runtime listener — in production code *and* in every test —
binds to **port 0** and propagates the kernel-assigned ephemeral port, so
parallel test runs and busy CI hosts can never collide on a hard-coded
port.  :class:`Backoff` below is the single shared retry policy for every
place a live component dials out or binds: the residual raciness that
port 0 cannot remove (a listener that has not finished ``listen()`` by
the time its first client connects), explicit-port bind races (the
docker-compose topology, a supervised server respawning onto its pinned
port), and peer reconnects after a crash.
"""

from __future__ import annotations

import asyncio
import errno
import math
import random
from typing import (
    Awaitable,
    Callable,
    Iterator,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

#: Default bounded-retry budget for listeners and connects.
DEFAULT_ATTEMPTS = 8

#: Initial retry backoff (doubles per attempt, so the default budget waits
#: about 6 s total before giving up).
DEFAULT_BACKOFF = 0.05

#: Default ceiling on a single backoff sleep.
DEFAULT_CAP = 2.0

#: Errnos worth retrying on bind (another process grabbed the port between
#: our probe and our bind — only possible with an explicit non-zero port).
_RETRYABLE_BIND = {errno.EADDRINUSE, errno.EADDRNOTAVAIL}

ClientHandler = Callable[
    [asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]
]

T = TypeVar("T")


class Backoff:
    """One bounded exponential-backoff policy for every outbound dial.

    Delays start at ``initial`` and multiply by ``factor`` up to ``cap``.
    The budget is bounded two ways: ``attempts`` caps the number of tries
    (``0`` means unbounded, in which case a ``deadline`` is required) and
    ``deadline`` caps total wall seconds from the first try.  When an
    ``rng`` is supplied (a named registry substream — never an ad-hoc
    ``random.Random``), each sleep is jittered over ``[0.5, 1.0]`` of its
    nominal value so a cohort of restarted peers does not dial back in
    lock-step.
    """

    def __init__(
        self,
        initial: float = DEFAULT_BACKOFF,
        cap: float = DEFAULT_CAP,
        factor: float = 2.0,
        attempts: int = DEFAULT_ATTEMPTS,
        deadline: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not (initial > 0 and math.isfinite(initial)):
            raise ValueError(f"initial must be finite and > 0, got {initial}")
        if cap < initial:
            raise ValueError(f"cap {cap} must be >= initial {initial}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if attempts < 0:
            raise ValueError(f"attempts must be >= 0, got {attempts}")
        if attempts == 0 and deadline is None:
            raise ValueError("unbounded attempts require a deadline")
        if deadline is not None and not (deadline > 0):
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self.initial = initial
        self.cap = cap
        self.factor = factor
        self.attempts = attempts
        self.deadline = deadline
        self.rng = rng

    def delays(self) -> Iterator[float]:
        """Yield the sleep before each retry (one fewer than attempts)."""
        delay = self.initial
        produced = 0
        while self.attempts == 0 or produced < self.attempts - 1:
            if self.rng is None:
                yield delay
            else:
                yield delay * (0.5 + 0.5 * self.rng.random())
            delay = min(delay * self.factor, self.cap)
            produced += 1

    async def retry(
        self,
        op: Callable[[], Awaitable[T]],
        retry_on: Tuple[Type[BaseException], ...],
        should_retry: Optional[Callable[[BaseException], bool]] = None,
    ) -> T:
        """Run *op* until it succeeds or the budget is spent.

        Only exceptions matching *retry_on* (and, when given, accepted by
        *should_retry*) are retried; anything else — and the final
        attempt's error — propagates unchanged.
        """
        loop = asyncio.get_running_loop()
        give_up_at = (
            None if self.deadline is None else loop.time() + self.deadline
        )
        delays = self.delays()
        while True:
            try:
                return await op()
            except retry_on as exc:
                if should_retry is not None and not should_retry(exc):
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise
                if give_up_at is not None and loop.time() + delay > give_up_at:
                    raise
                await asyncio.sleep(delay)


def server_port(server: asyncio.AbstractServer) -> int:
    """The (ephemeral) port an asyncio server actually bound."""
    sockets = server.sockets
    if not sockets:
        raise RuntimeError("server has no bound sockets")
    port = sockets[0].getsockname()[1]
    return int(port)


async def start_server(
    handler: ClientHandler,
    host: str = "127.0.0.1",
    port: int = 0,
    attempts: int = DEFAULT_ATTEMPTS,
) -> Tuple[asyncio.AbstractServer, int]:
    """Start a TCP server, retrying transient bind races; returns its port.

    With the default ``port=0`` the kernel picks a free ephemeral port and
    the first attempt virtually always succeeds; explicit ports (the
    docker-compose topology, a respawned server re-binding its pinned
    port while the dead process's socket drains) get the retry policy.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")

    def retryable(exc: BaseException) -> bool:
        return isinstance(exc, OSError) and exc.errno in _RETRYABLE_BIND

    async def bind() -> asyncio.AbstractServer:
        return await asyncio.start_server(handler, host=host, port=port)

    policy = Backoff(attempts=attempts)
    server = await policy.retry(bind, (OSError,), should_retry=retryable)
    return server, server_port(server)


async def connect(
    host: str,
    port: int,
    attempts: int = DEFAULT_ATTEMPTS,
    backoff: float = DEFAULT_BACKOFF,
    policy: Optional[Backoff] = None,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a TCP connection under a bounded retry policy.

    Retries connection-refused/reset (the listener may still be coming up,
    which is the one race ``port=0`` cannot close); every other error, and
    the final attempt's error, propagate to the caller.  Callers with a
    deadline or a jitter substream pass an explicit *policy*; the
    ``attempts``/``backoff`` shorthand keeps the common case terse.
    """
    if policy is None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        policy = Backoff(initial=backoff, attempts=attempts)

    async def dial() -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(host=host, port=port)

    return await policy.retry(
        dial, (ConnectionRefusedError, ConnectionResetError, OSError)
    )


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close one stream writer, absorbing teardown races.

    The peer may have closed first (connection reset) — that is a normal
    shutdown order in a swarm, not an error.  ``wait_closed()`` is always
    awaited so tests running with asyncio debug mode see no unclosed
    transports.
    """
    try:
        if not writer.is_closing():
            writer.close()
        await writer.wait_closed()
    except (ConnectionError, asyncio.TimeoutError, OSError):
        pass
