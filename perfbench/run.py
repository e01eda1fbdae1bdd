"""The repository benchmark: one run of one serving workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sparse-singles --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics: the measured run happens
in a child process (its peak RSS plus its pool workers' is
``peak_rss_mb``), then ``SETUP_REPEATS`` fresh interpreters each time
the set-up and the median is ``setup_s``. ``--trace 1`` prints the
per-layer metrics of a traced run, plus the tracing overhead against
an untraced run of the same inputs made in the same process.

The driver pins itself and everything it starts to one CPU, and
samples a speed reference while the children run; every timing metric
is reported at reference speed (see ``reference.py``).

The last line of standard output is the result object ``{"correct",
"attempted", "failed", "metrics"}``; the line before it carries the
run's exact counts, sample counts, unscaled timings and span summaries. Counts are also
kept under ``.perfbench/`` and compared with the previous run of the
same arguments: ``counts_repeat`` is ``false`` when they differ (a
raced batch composition or schedule), ``null`` on a first run.

Workloads, their reasons and the layer predictions: ``design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import reference
import workloads
from catalog import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPEATS = 5
#: A run must end within 180 s: one measured child plus the set-ups.
CHILD_TIMEOUT_S = 120.0
SETUP_TIMEOUT_S = 10.0


def child(argv: list[str], timeout: float) -> dict:
    """Run a benchmark child in its own session and parse its last line;
    on timeout the whole session (pool workers included) is killed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {argv[0]} timed out after {timeout:g}s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: {argv[0]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup(workload: str, matrix: Path) -> tuple[float, float]:
    """One set-up time from a fresh interpreter, with the speed factor
    of the reference samples taken while it ran."""
    with reference.Sampler() as sampler:
        out = child([str(HERE / "setup_probe.py"), "--workload", workload,
                     "--matrix", str(matrix)], SETUP_TIMEOUT_S)
    return out["setup_s"], sampler.factor(out["t0"], out["t1"])


def timing(sampler: reference.Sampler, parts: list[dict]) -> tuple[dict, dict]:
    """The timing metrics at reference speed, and raw."""
    return (harness.reduce(parts, sampler.factor),
            harness.reduce(parts, lambda t0, t1: 1.0))


def compare_counts(key: str, counts: dict):
    """Store this run's counts; ``False`` if a previous run of the same
    arguments counted differently, ``None`` if there was none."""
    path = STATE / f"counts-{key}.json"
    previous = json.loads(path.read_text()) if path.exists() else None
    path.write_text(json.dumps(counts, sort_keys=True))
    return None if previous is None else previous == counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'repro'}; "
                 "run from the root of a checkout of the repository")

    # One CPU for the driver and everything it starts: the reference
    # sampler then times the CPU the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    STATE.mkdir(exist_ok=True)
    key = f"{args.workload}-s{args.seed}-t{args.seconds:g}-trace{args.trace}"
    matrix = STATE / f"matrix-{key}.npz"
    with reference.Sampler() as sampler:
        run = child(
            [str(HERE / "measure.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--matrix-out", str(matrix),
             "--spans-out", str(STATE / f"spans-{key}.jsonl")],
            CHILD_TIMEOUT_S,
        )
    metrics = dict(run["metrics"])
    detail = {"workload": args.workload, "seed": args.seed,
              "counts": run["counts"], **run["detail"]}
    plain, raw = timing(sampler, run["chunks"]["plain"])
    detail["raw"] = raw
    # A traced run serves the same inputs twice (untraced, then traced),
    # so its two sets of counts must agree as well.
    repeat = compare_counts(key, run["counts"])
    if args.trace:
        repeat = (repeat is not False
                  and run["traced_counts"] == run["counts"])
        traced, _ = timing(sampler, run["chunks"]["traced"])
        metrics["trace.overhead"] = plain["rhs_per_s"] / traced["rhs_per_s"]
        units = PER_LAYER
    else:
        metrics.update(plain)
        setups = [setup(args.workload, matrix) for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = statistics.median(s * f for s, f in setups)
        detail["raw"]["setup_s_samples"] = [s for s, _ in setups]
        units = END_TO_END
    detail["counts_repeat"] = repeat
    detail["error_rate"] = run["failed"] / run["attempted"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
