"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper, prints
the same rows/series the paper reports, and persists the rendered table
plus a JSON payload under ``results/``.

The drivers are deterministic end to end (Philox everywhere), so a single
measured round per benchmark is meaningful; pytest-benchmark is used in
pedantic mode for wall-clock accounting of the *reproduction harness*
itself (the paper-comparable numbers are the modeled times inside the
results, not these wall-clocks).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import results_dir


def persist_and_print(name: str, table: str) -> None:
    """Print a rendered experiment table and save it under results/."""
    print()
    print(table)
    path = results_dir() / f"{name}.txt"
    Path(path).write_text(table + "\n")


@pytest.fixture(scope="session")
def social_bench():
    from repro.workloads import get_problem

    return get_problem("social-bench")
