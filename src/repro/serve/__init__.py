"""Solver serving: request queues, batchers, and routing over
persistent pools.

The paper's serving story end to end: resident matrices (each pool's
workers started once), many independent solve
requests. :class:`SolverServer` coalesces compatible single-RHS
requests into block solves — the Section 9 multi-label amortization
applied to live traffic — with per-request retirement, latency stats,
crash containment, and one linger window (``max_wait``) deciding which
requests share a block. :class:`MatrixRegistry` routes
requests across several named resident matrices with lazily-spawned,
LRU-evicted per-matrix pools. :mod:`repro.serve.frontend` exposes
either over stdin JSON-lines, TCP, and HTTP/1.1 (``repro serve``).

Observability and caching: every response carries a ``trace_id``
(minted per request at :func:`~repro.serve.protocol.parse_line` or
submission, echoed on success and failure alike),
:func:`render_metrics` renders the serving counters in Prometheus text
format (``GET /v1/metrics``, the ``metrics`` verb), and
:class:`~repro.serve.cache.SolutionCache` (``repro serve
--cache-solutions``) warm-starts near-duplicate requests from recently
served solutions — the iterative-solver payoff where cache *similarity*
(not just identity) converts into sweep savings.
"""

from .frontend import (
    handle_line,
    make_http_server,
    make_tcp_server,
    serve_stream,
)
from .metrics import render_metrics
from .registry import MatrixRegistry
from .server import SolverServer

__all__ = [
    "MatrixRegistry",
    "SolverServer",
    "handle_line",
    "make_http_server",
    "make_tcp_server",
    "render_metrics",
    "serve_stream",
]
