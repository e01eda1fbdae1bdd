"""Solver serving: request queues, batchers, and routing over
persistent pools.

The paper's serving story end to end: resident matrices (each pool's
workers started once), many independent solve
requests. :class:`SolverServer` coalesces compatible single-RHS
requests into block solves — the Section 9 multi-label amortization
applied to live traffic — with per-request retirement, latency stats,
crash containment, and a pluggable batching policy
(:mod:`repro.serve.batching`: fixed window, or adaptive from the
measured queue-depth/solve-wall EWMAs). :class:`MatrixRegistry` routes
requests across several named resident matrices with lazily-spawned,
LRU-evicted per-matrix pools. :mod:`repro.serve.frontend` exposes
either over stdin JSON-lines, TCP, and HTTP/1.1 (``repro serve``).
:class:`ShardHost` (``repro serve --shard-of NAME --peers ...``) turns
an instance into one shard of a multi-node solve: a remote coordinator
scatters the row partition and drives epochs over the shard verbs,
while the hosts exchange halo rows directly on their peer ring.

Observability and caching: every response carries a ``trace_id``
(minted per request at :func:`parse_line`/submission, echoed on
success and failure alike), :func:`render_metrics` renders the serving
counters in Prometheus text format (``GET /v1/metrics``, the
``metrics`` verb), and :class:`SolutionCache` (``repro serve
--cache-solutions``) warm-starts near-duplicate requests from recently
served solutions — the iterative-solver payoff where cache *similarity*
(not just identity) converts into sweep savings.
"""

from .batching import AdaptiveWait, BatchingPolicy, FixedWait, make_policy
from .cache import SolutionCache, rhs_fingerprint
from .frontend import (
    handle_line,
    make_http_server,
    make_tcp_server,
    serve_stream,
)
from .metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from .metrics import render_metrics
from .protocol import (
    encode_error,
    encode_info,
    encode_result,
    mint_trace_id,
    parse_line,
    parse_request,
)
from .registry import MatrixRegistry
from .runtime import THREAD_RUNTIME, ThreadRuntime
from .server import RequestHandle, ServedResult, ServerStats, SolverServer
from .shardhost import ShardHost

__all__ = [
    "AdaptiveWait",
    "BatchingPolicy",
    "FixedWait",
    "MatrixRegistry",
    "METRICS_CONTENT_TYPE",
    "RequestHandle",
    "ServedResult",
    "ServerStats",
    "ShardHost",
    "SolutionCache",
    "SolverServer",
    "THREAD_RUNTIME",
    "ThreadRuntime",
    "encode_error",
    "encode_info",
    "encode_result",
    "handle_line",
    "make_http_server",
    "make_policy",
    "make_tcp_server",
    "mint_trace_id",
    "parse_line",
    "parse_request",
    "render_metrics",
    "rhs_fingerprint",
    "serve_stream",
]
