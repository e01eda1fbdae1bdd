"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Solve a MatrixMarket SPD system with AsyRGS, RGS, CG, or FCG+AsyRGS.
    A multi-column ``--rhs`` file is solved as one simultaneous block
    (AsyRGS/RGS; every engine, including the worker pool); AsyRGS judges
    convergence per column, retires columns that reach the tolerance
    (``--no-retire`` disables), and prints the per-column status.
``estimate``
    Spectral / conditioning / theory diagnostics for a matrix, including
    the Theorem 2–4 hypothesis report for a given (τ, β).
``experiment``
    Run one of the paper-reproduction experiment drivers (fig1,
    fig2-left/center/right, fig3, table1, and the ablations) and print
    its table.
``speedup``
    Wall-clock strong scaling of the worker pool: a fixed
    update budget on 1..P pool workers sharing one iterate, with
    measured delay statistics per configuration. ``--labels k`` times
    the same budget on a k-column RHS block (the paper's 51-label
    amortization regime).
``serve``
    Run the solver gateway: resident matrices on persistent
    worker pools (one matrix, or several with repeated
    ``--matrix NAME=SPEC`` routed by the request's ``matrix`` field),
    JSON solve requests on stdin, TCP (``--port``), or HTTP/1.1
    (``--http``: ``POST /v1/solve``, ``GET /v1/stats``,
    ``GET /v1/matrices``); compatible single-RHS requests that arrive
    within one linger window (``--max-wait``) coalesce into block
    solves. See the parser epilog for the protocol.
``problems``
    List the named workload registry.

Every command is importable (``repro.cli.main([...])``) for testing; the
module performs no work at import time.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


_SERVING_EPILOG = """\
Serving:
  `repro serve` multiplexes many solve requests over persistent
  worker pools: each matrix's workers are started once, compatible single-RHS requests are coalesced into block solves
  (each request converges and retires independently), and the
  capacity-k pool layout serves any request width k <= --capacity
  without respawning workers. Requests are JSON lines on stdin —
    {"id": "r1", "b": [1.0, 2.0, ...], "tol": 1e-6}
  — on a TCP socket with --port, or over HTTP/1.1 with --http
  (POST /v1/solve takes the same JSON object; GET /v1/stats and
  GET /v1/matrices expose the counters and the matrix listing):
    curl -X POST http://HOST:PORT/v1/solve -d '{"b": [1.0, ...]}'
  Each request gets one JSON response with the iterate, convergence
  status, and latency.

  Multi-matrix: repeat --matrix NAME=SPEC (SPEC a named problem or an
  .mtx file) to serve several resident matrices behind one gateway —
  requests route by their "matrix" field (omitted -> the first
  registered matrix, so single-matrix clients keep working), pools
  spawn lazily on first use and idle ones are LRU-evicted past
  --max-live-pools, and {"op": "register", "matrix": "m2",
  "problem": "laplace2d"} registers matrices live over the wire.
  A trailing ,method=asyrk on a --matrix SPEC (or a "method" field on
  the register verb) serves that matrix with asynchronous randomized
  Kaczmarz — rectangular least-squares systems over the same pool
  core; the default method=asyrgs needs square SPD systems. Methods
  never share a batch: coalescing happens inside one matrix's pool.

  Sharding: a trailing ,shards=N on a --matrix SPEC (or a "shards"
  field on the register verb) backs that matrix with N row-partitioned
  worker pools (--nproc workers each) exchanging boundary entries of
  the iterate asynchronously at their own epoch boundaries. Each shard
  keeps a private copy of the iterate, which sidesteps the slowdown of
  one pool's workers sharing one (ROADMAP item 1): on 2 vCPUs, 2 shards
  x 1 worker beat one pool on the dense social-small Gram system at
  every block width, and did not beat one 1-worker pool on the
  laplace2d Laplacian.
  Convergence is judged on the assembled global residual; a sharded
  matrix counts as N pools against --max-live-pools and its shards are
  always evicted together. `repro experiment shard` runs the
  convergence-vs-staleness bench next to its one-pool control.

  Batching: once a request starts a batch, the dispatcher lingers at
  most --max-wait seconds (default 0.005; 0 disables lingering) for
  compatible requests to share its block solve.

  Observability & caching: every response carries a trace_id (minted
  per request, or propagated from a "trace_id" field the client sends)
  on success and failure alike; {"op": "metrics"} — and, over HTTP,
  GET /v1/metrics, raw — renders every serving counter in Prometheus
  text format for scrape-based monitoring. --cache-solutions keeps
  recently served solutions keyed by (matrix, rhs fingerprint) and
  seeds x0 for requests whose b exactly or nearly (--cache-similarity
  relative L2) repeats one — the solve still runs and judges its own
  convergence, so warm starts save sweeps but never change answers.

  Serving benchmarks: one load driver sends every round as JSON lines
  down the wire request path to a multi-matrix registry.
  `repro experiment serve` compares batched serving with one-shot
  solves on the 51-label workload; `repro experiment slo`
  finds the max sustainable req/s under a p99 target (--cache:
  warm-vs-cold sweeps on bursty near-duplicate traffic).
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asynchronous randomized linear solvers "
        "(Avron, Druinsky & Gupta, IPDPS 2014 reproduction)",
        epilog=_SERVING_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a MatrixMarket system")
    p_solve.add_argument(
        "matrix",
        help="MatrixMarket .mtx file (SPD; rectangular with --method asyrk)",
    )
    p_solve.add_argument(
        "--method",
        choices=["asyrgs", "asyrk", "rgs", "cg", "fcg"],
        default="asyrgs",
        help="asyrgs/rgs/cg/fcg solve a square SPD system; asyrk runs "
        "asynchronous randomized Kaczmarz on a (possibly rectangular) "
        "least-squares system over the worker pool",
    )
    p_solve.add_argument("--rhs", default=None, help="optional whitespace RHS file")
    p_solve.add_argument(
        "--nproc", type=int, default=8,
        help="processors (simulated, or real with --engine processes)",
    )
    p_solve.add_argument(
        "--engine",
        choices=["phased", "general", "processes"],
        default="phased",
        help="AsyRGS execution engine: simulated rounds, per-update "
        "simulation, or a real pool of worker threads",
    )
    p_solve.add_argument("--beta", default="1.0", help="step size or 'auto'")
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-sweeps", type=int, default=2000)
    p_solve.add_argument(
        "--no-retire", action="store_true",
        help="keep updating converged RHS columns instead of retiring "
        "them at epoch boundaries (AsyRGS only)",
    )
    p_solve.add_argument("--inner-sweeps", type=int, default=2, help="FCG inner sweeps")
    p_solve.add_argument(
        "--shards", type=int, default=1,
        help="row-partition the system across this many worker pools "
        "(--nproc workers each) coordinated by asynchronous halo "
        "exchange; convergence is judged on the assembled global "
        "residual (asyrgs only, real worker pools)",
    )
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--output", default=None, help="write solution vector here")

    p_est = sub.add_parser("estimate", help="conditioning / theory diagnostics")
    p_est.add_argument("matrix", help="MatrixMarket .mtx file")
    p_est.add_argument("--tau", type=int, default=None, help="delay bound to report on")
    p_est.add_argument("--beta", type=float, default=1.0)
    p_est.add_argument("--lanczos-steps", type=int, default=60)

    p_exp = sub.add_parser("experiment", help="run a paper-reproduction experiment")
    p_exp.add_argument(
        "name",
        choices=[
            "fig1", "fig2-left", "fig2-center", "fig2-right", "fig3", "table1",
            "tau-sweep", "beta-sweep", "consistency-gap", "delay-schedules",
            "theory-envelope", "direction-strategies", "motivation", "extensions",
            "block", "serve", "ablation", "shard", "slo",
        ],
    )
    p_exp.add_argument("--problem", default=None, help="named problem override")
    p_exp.add_argument(
        "--retire", action="store_true",
        help="for 'block': measure the update-count savings of per-column "
        "retirement on the 51-label workload instead of block-vs-loop "
        "throughput",
    )
    p_exp.add_argument(
        "--cache", action="store_true",
        help="for 'slo': replay a bursty near-duplicate arrival schedule "
        "with warm-start caching on vs. off and compare mean sweeps per "
        "request instead of ramping the rate",
    )

    p_speed = sub.add_parser(
        "speedup", help="wall-clock strong scaling on real pool workers"
    )
    p_speed.add_argument("--problem", default="laplace2d", help="named problem")
    p_speed.add_argument(
        "--nproc", type=int, default=4,
        help="largest process count (powers of two up to this are timed)",
    )
    p_speed.add_argument("--sweeps", type=int, default=20, help="update budget in sweeps")
    p_speed.add_argument(
        "--labels", type=int, default=1,
        help="right-hand-side columns solved as one block "
        "(1 = classic single-RHS scaling)",
    )
    p_speed.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve",
        help="serve solve requests over one persistent worker pool",
        description="Solver serving: JSON-lines requests multiplexed "
        "over one persistent worker pool (see `repro --help` for "
        "the protocol).",
    )
    p_serve.add_argument(
        "matrix", nargs="?", default=None,
        help="MatrixMarket .mtx file (or use --problem / --matrix)",
    )
    p_serve.add_argument(
        "--problem", default=None,
        help="serve a named workload's matrix instead of a file",
    )
    p_serve.add_argument(
        "--matrix", dest="matrices", action="append", default=None,
        metavar="NAME=SPEC",
        help="register matrix NAME from SPEC (a named problem or an .mtx "
        "file); repeatable — requests route by their \"matrix\" field, "
        "the first registered is the default",
    )
    p_serve.add_argument(
        "--max-live-pools", type=int, default=4,
        help="soft cap on simultaneously live worker pools (idle pools "
        "past the cap are LRU-evicted; the next request respawns)",
    )
    p_serve.add_argument("--nproc", type=int, default=2, help="worker threads per pool")
    p_serve.add_argument(
        "--capacity", type=int, default=8,
        help="pool layout capacity: widest block request and largest "
        "coalesced batch one solve may carry",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=None,
        help="cap on coalesced single-RHS requests per solve "
        "(default: --capacity)",
    )
    p_serve.add_argument(
        "--max-wait", type=float, default=0.005,
        help="linger window: seconds the dispatcher waits for compatible "
        "requests to share a batch once one arrived (0 disables "
        "lingering)",
    )
    p_serve.add_argument(
        "--cache-solutions", action="store_true",
        help="warm-start requests from recently served solutions: a "
        "request without x0 whose b exactly or nearly repeats a cached "
        "one is seeded with that solution (the solve still runs and "
        "judges its own convergence — hits save sweeps, never change "
        "answers); the cache is invalidated on register and pool "
        "eviction and reported under repro_cache_* in GET /v1/metrics",
    )
    p_serve.add_argument(
        "--cache-max-entries", type=int, default=256,
        help="LRU bound on cached solutions (with --cache-solutions)",
    )
    p_serve.add_argument(
        "--cache-similarity", type=float, default=0.05,
        help="relative L2 threshold for near-duplicate warm starts "
        "(0 restricts hits to bitwise-identical b)",
    )
    p_serve.add_argument("--tol", type=float, default=1e-6, help="default tolerance")
    p_serve.add_argument("--max-sweeps", type=int, default=400)
    p_serve.add_argument("--sync-every", type=int, default=10)
    p_serve.add_argument(
        "--port", type=int, default=None,
        help="serve JSON lines over TCP on this port instead of stdin "
        "(0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve the same JSON payloads over HTTP/1.1 on this port "
        "(POST /v1/solve, GET /v1/stats, GET /v1/matrices; 0 picks an "
        "ephemeral port)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="TCP/HTTP bind address")
    p_serve.add_argument("--seed", type=int, default=0)

    sub.add_parser("problems", help="list the named workload registry")
    return parser


def _load_system(args):
    from .exceptions import ShapeError
    from .sparse import read_matrix_market

    A = read_matrix_market(args.matrix)
    if getattr(args, "rhs", None):
        # A multi-column file is a block of right-hand sides — keep it
        # 2-D (flattening would silently concatenate the columns into
        # one long, wrong vector).
        b = np.loadtxt(args.rhs, dtype=np.float64, ndmin=1)
        if b.ndim > 2:
            raise ShapeError(
                f"RHS file {args.rhs} has {b.ndim} dimensions; expected a "
                "column vector or a matrix with one column per right-hand side"
            )
        if b.shape[0] != A.shape[0]:
            raise ShapeError(
                f"RHS file {args.rhs} has {b.shape[0]} rows but the matrix "
                f"is {A.shape[0]}x{A.shape[1]}; the row counts must match"
            )
    else:
        # Default: the all-ones image b = A·1 (known solution). Sized by
        # the column count so a rectangular least-squares system gets a
        # consistent right-hand side too.
        b = A.matvec(np.ones(A.shape[1]))
    return A, b


def _print_columns(result, n_rhs: int, no_retire: bool) -> None:
    """The per-column status lines of a block solve (none for a vector,
    or without column tracking)."""
    if n_rhs == 1 or result.converged_columns is None:
        return
    n_done = int(result.converged_columns.sum())
    retired = result.column_sweeps[result.column_sweeps >= 0]
    mode = "kept updating (no retirement)" if no_retire else "retired"
    spread = (
        f"; {mode} between sweeps {int(retired.min())} and "
        f"{int(retired.max())}"
        if retired.size
        else ""
    )
    print(
        f"columns: {n_done}/{n_rhs} below tol{spread}; "
        f"{result.column_updates} column updates "
        f"(full block would be {result.iterations * n_rhs})"
    )
    if n_done < n_rhs:
        worst = int(np.argmax(result.column_residuals))
        print(
            f"slowest column: #{worst} at relative residual "
            f"{result.column_residuals[worst]:.3e}"
        )


def _solve_on_pool(args, A, b, beta):
    """Solve on the worker pool :func:`~repro.execution.make_solver`
    builds for ``--method``/``--shards``, print its report,
    and return ``(x, converged)``."""
    from .core import auto_step_size
    from .exceptions import ModelError
    from .execution import make_solver
    from .rng import DirectionStream

    sharded = args.shards > 1
    if beta == "auto":
        if sharded:
            raise ModelError(
                "--beta auto is resolved per pool; give a numeric --beta "
                "for a sharded solve"
            )
        if args.method == "asyrk":
            raise ModelError(
                "--beta auto is the AsyRGS spectral heuristic; give a "
                "numeric --beta for asyrk"
            )
        # The nominal a-priori bound τ = P − 1 with live, inconsistent
        # shared-memory reads; the run reports the measured τ.
        beta = auto_step_size(A, tau=args.nproc - 1, consistent=False)
    solver = make_solver(
        args.method, A, b, shards=args.shards,
        nproc=args.nproc, beta=beta,
        directions=DirectionStream(A.shape[0], seed=args.seed),
    )
    result = solver.solve(
        tol=args.tol, max_sweeps=args.max_sweeps,
        retire=False if args.no_retire else None,
    )
    n_rhs = 1 if b.ndim == 1 else b.shape[1]
    name = "AsyRK" if args.method == "asyrk" else "AsyRGS"
    where = f"{args.nproc} worker(s)"
    if sharded:
        name = f"sharded {name}"
        where = f"{solver.shards} shards x {where}"
    rhs_note = f", {n_rhs} RHS columns" if n_rhs > 1 else ""
    measure = "normal-equations residual" if args.method == "asyrk" else "residual"
    final = result.checkpoints[-1][1] if result.checkpoints else float("nan")
    print(
        f"{name} ({where}, beta={beta:.4g}{rhs_note}): "
        f"{result.sweeps_done} sweeps, {measure} {final:.3e}, "
        f"converged={result.converged}"
    )
    _print_columns(result, n_rhs, args.no_retire)
    tau = result.tau_observed
    print(
        f"measured delays: tau_observed={tau.max}, mean={tau.mean:.2f} "
        f"over {tau.count} updates ({result.wall_time:.3f}s wall)"
    )
    if sharded:
        print(
            "per-shard updates: "
            + ", ".join(f"#{s}={u}" for s, u in enumerate(result.shard_updates))
        )
    return result.x, result.converged


def _cmd_solve(args) -> int:
    from .core import AsyRGS, randomized_gauss_seidel
    from .krylov import (
        AsyRGSPreconditioner,
        conjugate_gradient,
        flexible_conjugate_gradient,
    )

    from .exceptions import ModelError, ShapeError

    try:
        A, b = _load_system(args)
    except ShapeError as exc:
        print(f"error: {exc}")
        return 2
    n_rhs = 1 if b.ndim == 1 else b.shape[1]
    if n_rhs > 1 and args.method in ("cg", "fcg"):
        print(
            f"error: --method {args.method} solves one right-hand side at a "
            f"time; use --method asyrgs or rgs for a {n_rhs}-column RHS block"
        )
        return 2
    beta = args.beta if args.beta == "auto" else float(args.beta)
    if (
        args.shards > 1
        or args.method == "asyrk"
        or (args.method == "asyrgs" and args.engine == "processes")
    ):
        try:
            x, converged = _solve_on_pool(args, A, b, beta)
        except ModelError as exc:
            print(f"error: {exc}")
            return 2
    elif args.method == "asyrgs":
        solver = AsyRGS(
            A, b, nproc=args.nproc, beta=beta, seed=args.seed, engine=args.engine
        )
        result = solver.solve(
            tol=args.tol, max_sweeps=args.max_sweeps,
            retire=False if args.no_retire else None,
        )
        x, converged = result.x, result.converged
        rhs_note = f", {n_rhs} RHS columns" if n_rhs > 1 else ""
        print(
            f"AsyRGS (engine={args.engine}, nproc={args.nproc}, "
            f"beta={solver.beta:.4g}{rhs_note}): "
            f"{result.sweeps} sweeps, residual {result.history.final:.3e}, "
            f"converged={converged}"
        )
        _print_columns(result, n_rhs, args.no_retire)
    elif args.method == "rgs":
        result = randomized_gauss_seidel(
            A, b, sweeps=args.max_sweeps, tol=args.tol,
            beta=1.0 if beta == "auto" else beta,
        )
        x, converged = result.x, result.converged
        print(
            f"RGS: {result.iterations // A.shape[0]} sweeps, "
            f"residual {result.history.final:.3e}, converged={converged}"
        )
    elif args.method == "cg":
        result = conjugate_gradient(A, b, tol=args.tol, max_iterations=args.max_sweeps)
        x, converged = result.x, result.converged
        print(
            f"CG: {result.iterations} iterations, residual "
            f"{result.residuals[-1]:.3e}, converged={converged}"
        )
    else:  # fcg
        M = AsyRGSPreconditioner(
            A, sweeps=args.inner_sweeps, nproc=args.nproc,
            jitter=max(0, args.nproc // 4), direction_seed=args.seed,
        )
        result = flexible_conjugate_gradient(
            A, b, preconditioner=M, tol=args.tol, max_iterations=args.max_sweeps
        )
        x, converged = result.x, result.converged
        print(
            f"FCG+AsyRGS ({args.inner_sweeps} inner sweeps): "
            f"{result.iterations} outer iterations, residual "
            f"{result.residuals[-1]:.3e}, converged={converged}"
        )
    if args.output:
        np.savetxt(args.output, x)
        print(f"solution written to {args.output}")
    return 0 if converged else 1


def _cmd_estimate(args) -> int:
    from .core import bound_report, epoch_length, rho_infinity, rho_two
    from .estimation import spectrum_estimate
    from .sparse import read_matrix_market, row_nnz_statistics, symmetric_rescale

    A = read_matrix_market(args.matrix)
    print(f"matrix: shape {A.shape}, nnz {A.nnz}")
    stats = row_nnz_statistics(A)
    print(
        "row nnz: min {min:.0f}, mean {mean:.1f}, max {max:.0f} "
        "(skew {skew_ratio:.1f})".format(**stats)
    )
    A_unit, _ = symmetric_rescale(A)
    est = spectrum_estimate(A_unit, steps=args.lanczos_steps)
    print(
        f"unit-diagonal rescaling: lambda_min ~ {est.lambda_min:.4g}, "
        f"lambda_max ~ {est.lambda_max:.4g}, kappa ~ {est.kappa:.4g}"
    )
    print(f"rho = {rho_infinity(A_unit):.4g}, rho2 = {rho_two(A_unit):.4g}")
    n = A.shape[0]
    if est.lambda_max < n:
        print(f"epoch length T0 = {epoch_length(est.lambda_max, n)} updates")
    if args.tau is not None:
        print()
        for line in bound_report(A_unit, tau=args.tau, beta=args.beta).lines():
            print(line)
    return 0


def _serve_sources(args):
    """Resolve the serve command's matrix sources to
    ``(name, A, label, overrides)`` tuples: either the legacy single
    matrix (file or --problem) under the id ``"default"``, or every
    repeated ``--matrix NAME=SPEC[,method=asyrgs|asyrk]`` — trailing
    comma-separated ``key=value`` options become per-matrix server
    overrides, which registration checks."""
    from .exceptions import ReproError
    from .sparse import read_matrix_market
    from .workloads import available_problems, get_problem

    def resolve(spec):
        if spec in available_problems():
            return get_problem(spec).A, f"problem {spec!r}"
        return read_matrix_market(spec), spec

    def parse_options(opts, item):
        overrides = {}
        for opt in opts:
            key, sep, value = opt.partition("=")
            if key not in ("method", "shards") or not sep or not value:
                raise ReproError(
                    f"unknown --matrix option {opt!r} in {item!r} "
                    "(supported: method=asyrgs|asyrk, shards=N)"
                )
            if key == "method":
                overrides["method"] = value
            else:
                try:
                    overrides["shards"] = int(value)
                except ValueError:
                    raise ReproError(
                        f"--matrix shards must be an integer, got {value!r}"
                    ) from None
        return overrides

    legacy = [s for s in (args.matrix, args.problem) if s is not None]
    if (len(legacy) + (1 if args.matrices else 0)) != 1:
        raise ReproError(
            "give exactly one of a matrix file, --problem, or one or "
            "more --matrix NAME=SPEC"
        )
    if not args.matrices:
        if args.problem:
            A, label = get_problem(args.problem).A, f"problem {args.problem!r}"
        else:
            A, label = read_matrix_market(args.matrix), args.matrix
        return [("default", A, label, {})]
    out = []
    seen = set()
    for item in args.matrices:
        name, sep, spec = item.partition("=")
        if not sep or not name or not spec:
            raise ReproError(
                f"--matrix expects NAME=SPEC, got {item!r}"
            )
        if name in seen:
            raise ReproError(f"--matrix name {name!r} given more than once")
        seen.add(name)
        spec, *opts = spec.split(",")
        if not spec:
            raise ReproError(f"--matrix expects NAME=SPEC, got {item!r}")
        overrides = parse_options(opts, item)
        A, label = resolve(spec)
        out.append((name, A, label, overrides))
    return out


def _cmd_serve(args) -> int:
    import signal

    from .exceptions import ReproError
    from .serve import MatrixRegistry, make_http_server, make_tcp_server, serve_stream

    # SIGTERM must shut the pools down like ^C does: the default handler
    # would kill this process without draining the requests in flight.
    # The first TERM starts the graceful drain;
    # repeats are ignored from then on — supervisors (and coreutils
    # `timeout`, which signals both the child and its process group)
    # routinely deliver TERM more than once, and a second KeyboardInterrupt
    # mid-drain would abort the pool teardown it asked for.
    def _terminate(signum, frame):
        signal.signal(signum, signal.SIG_IGN)
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread (in-process tests)
        pass

    if args.port is not None and args.http is not None:
        print("error: choose one transport: --port (TCP) or --http")
        return 2
    try:
        sources = _serve_sources(args)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}")
        return 2
    try:
        registry = MatrixRegistry(
            nproc=args.nproc,
            max_live_pools=args.max_live_pools,
            capacity_k=args.capacity,
            tol=args.tol,
            max_sweeps=args.max_sweeps,
            sync_every_sweeps=args.sync_every,
            max_batch=args.max_batch,
            max_wait=args.max_wait,
            cache_solutions=args.cache_solutions,
            cache_max_entries=args.cache_max_entries,
            cache_similarity=args.cache_similarity,
            seed=args.seed,
        )
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    with registry as server:
        try:
            # Registration checks each matrix's (method, shards)
            # backing, so one that could never serve stops here.
            for name, A, _, overrides in sources:
                server.register(name, A, **overrides)
        except ReproError as exc:
            print(f"error: {exc}")
            return 2
        roster = ", ".join(
            f"{name}={label} (n={A.shape[0]}, nnz={A.nnz}"
            + (
                f", method={overrides['method']}"
                if "method" in overrides
                else ""
            )
            + (
                f", shards={overrides['shards']}"
                if "shards" in overrides
                else ""
            )
            + ")"
            for name, A, label, overrides in sources
        )
        pool_note = (
            f"{args.nproc} worker(s)/pool, capacity "
            f"k={args.capacity}, {1e3 * args.max_wait:g} ms linger window"
        )
        if args.port is not None:
            tcp = make_tcp_server(server, args.host, args.port)
            host, port = tcp.server_address
            print(
                f"serving {roster} on {host}:{port} with {pool_note} "
                "— ^C to stop",
                file=sys.stderr,
            )
            try:
                tcp.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                tcp.shutdown()
                tcp.server_close()
        elif args.http is not None:
            httpd = make_http_server(server, args.host, args.http)
            host, port = httpd.server_address[:2]
            print(
                f"serving {roster} on http://{host}:{port} (POST "
                f"/v1/solve, GET /v1/stats, GET /v1/matrices, "
                f"GET /v1/metrics) with {pool_note} — ^C to stop",
                file=sys.stderr,
            )
            try:
                httpd.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                httpd.shutdown()
                httpd.server_close()
        else:
            print(
                f"serving {roster} from stdin with {pool_note} — one "
                "JSON request per line, EOF to stop",
                file=sys.stderr,
            )
            try:
                serve_stream(server, sys.stdin, sys.stdout)
            except KeyboardInterrupt:
                pass
        stats = server.stats()
    print(
        f"served {stats.requests_served} request(s) in {stats.batches} "
        f"batch(es) ({stats.requests_failed} failed), max batch "
        f"{stats.max_batch_size}, max queue depth {stats.max_queue_depth}, "
        f"mean latency {1e3 * stats.latency_mean:.1f} ms, "
        f"{stats.spawn_count} pool spawn(s)",
        file=sys.stderr,
    )
    return 0


_EXPERIMENTS = {
    "fig1": ("run_fig1", {}),
    "fig2-left": ("run_fig2_left", {}),
    "fig2-center": ("run_fig2_center", {}),
    "fig2-right": ("run_fig2_right", {}),
    "fig3": ("run_fig3", {}),
    "table1": ("run_table1", {}),
    "tau-sweep": ("run_tau_sweep", {}),
    "beta-sweep": ("run_beta_sweep", {}),
    "consistency-gap": ("run_consistency_gap", {}),
    "delay-schedules": ("run_delay_schedules", {}),
    "theory-envelope": ("run_theory_envelope", {}),
    "direction-strategies": ("run_direction_strategies", {}),
    "motivation": ("run_motivation", {}),
    "extensions": ("run_extensions", {}),
    "block": ("run_block", {}),
    "serve": ("run_serve", {}),
    "ablation": ("run_sampling_ablation", {}),
    "shard": ("run_shard", {}),
    "slo": ("run_slo", {}),
}


def _cmd_experiment(args) -> int:
    import inspect

    import repro.bench as bench

    fn_name, kwargs = _EXPERIMENTS[args.name]
    if getattr(args, "retire", False):
        if args.name != "block":
            print("--retire is a mode of the 'block' experiment")
            return 2
        fn_name = "run_block_retirement"
    if getattr(args, "cache", False):
        if args.name != "slo":
            print("--cache is a mode of the 'slo' experiment")
            return 2
        fn_name = "run_slo_cache"
    fn = getattr(bench, fn_name)
    if args.problem:
        if "problem" not in inspect.signature(fn).parameters:
            print(f"experiment {args.name!r} does not take a problem override")
            return 2
        kwargs = dict(kwargs, problem=args.problem)
    result = fn(**kwargs)
    print(result.table())
    return 0


def _cmd_speedup(args) -> int:
    from .bench import run_speedup

    result = run_speedup(
        args.problem, max_nproc=args.nproc, sweeps=args.sweeps, seed=args.seed,
        labels=args.labels,
    )
    print(result.table())
    if result.cpus < max(result.nprocs):
        print(
            f"note: only {result.cpus} CPU(s) available — expect flat wall-clock "
            "and inflated tau_obs at higher process counts (oversubscription)"
        )
    return 0


def _cmd_problems(_args) -> int:
    from .workloads import available_problems, get_problem

    for name in available_problems():
        prob = get_problem(name)
        print(
            f"{name:14s} n={prob.n:6d} nnz={prob.A.nnz:9d} "
            f"kind={prob.meta.get('kind', '?')}"
        )
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "estimate": _cmd_estimate,
        "experiment": _cmd_experiment,
        "speedup": _cmd_speedup,
        "serve": _cmd_serve,
        "problems": _cmd_problems,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
