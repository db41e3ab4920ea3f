"""The stdin/stdout frontend: JSON lines in, JSON lines out.

``repro serve --stdio`` reads request lines from stdin and writes one
response line per request to stdout, in order.  Lines are gathered
greedily into submissions -- after a blocking read delivers the first
line, every line already buffered in the pipe joins the same submission,
so piped batches reach the service together and batching can amortize
compilation.

stdin cannot retry a shed or over-quota job, so the frontend applies
backpressure instead: a submission takes at most as many lines as both
the admission queue and one client's quota hold, and the next lines
stay in the pipe until its responses are written.

Shutdown: EOF drains and exits 0.  A SIGINT/SIGTERM recorded by the
supervisor is honoured at the next submission boundary -- the in-flight
submission *finishes* (jobs drain through the pool, done records land
in the journal, responses flush) before
:class:`~repro.ckpt.signals.ShutdownRequested` propagates and the CLI
exits ``128 + signum``.
"""

from __future__ import annotations

import select
import sys

from repro.ckpt.signals import SignalSupervisor
from repro.serve.protocol import dumps_response
from repro.serve.service import SimulationService

#: Seconds to wait for follow-on lines already in flight on the pipe.
GATHER_WINDOW = 0.05


def _readable(stream, timeout: float) -> bool:
    try:
        ready, _, _ = select.select([stream], [], [], timeout)
    except (OSError, ValueError):
        return False
    return bool(ready)


def _gather(stream, limit: int) -> list[str]:
    """One submission: block for the first line, drain ready followers."""
    first = stream.readline()
    if first == "":
        return []
    lines = [first]
    while len(lines) < limit and _readable(stream, GATHER_WINDOW):
        line = stream.readline()
        if line == "":
            break
        lines.append(line)
    return lines


def serve_stdio(
    service: SimulationService,
    *,
    in_stream=None,
    out_stream=None,
    supervisor: SignalSupervisor | None = None,
) -> None:
    """Run the serve loop until EOF (returns) or a signal (raises
    :class:`~repro.ckpt.signals.ShutdownRequested` after draining)."""
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    settings = service.settings
    limit = min(settings.queue_limit, settings.client_quota)
    while True:
        if supervisor is not None and supervisor.pending is not None:
            raise supervisor.shutdown()
        lines = _gather(in_stream, limit)
        if not lines:
            # EOF; a signal that arrived while we were blocked reading
            # still owes the caller its 128+signum exit code.
            if supervisor is not None and supervisor.pending is not None:
                raise supervisor.shutdown()
            return
        stripped = [line for line in (l.strip() for l in lines) if line]
        if not stripped:
            continue
        responses = service.handle_requests(stripped)
        for response in responses:
            out_stream.write(dumps_response(response) + "\n")
        out_stream.flush()
