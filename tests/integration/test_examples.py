"""Smoke tests: every shipped example must run end to end.

Each example is executed in-process (runpy) with stdout captured; the
tests assert the narrative output the example promises, so a regression
in any public API the examples touch fails loudly here.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    argv = sys.argv
    try:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "RGS" in out and "AsyRGS" in out and "CG" in out
        assert "theory" in out
        assert "kappa" in out

    def test_chaotic_vs_randomized(self, capsys):
        out = run_example("chaotic_vs_randomized.py", capsys)
        assert "DIVERGED" in out  # the classical methods fail…
        assert out.count("residual") >= 6  # …the randomized ones do not

    def test_delay_study(self, capsys):
        out = run_example("delay_study.py", capsys)
        assert "adversarial delays" in out
        assert "theory step" in out
        assert "least squares" in out

    def test_preconditioned_fcg(self, capsys):
        out = run_example("preconditioned_fcg.py", capsys)
        assert "plain CG" in out
        assert "best modeled time" in out

    def test_social_regression(self, capsys):
        out = run_example("social_regression.py", capsys)
        assert "price of asynchrony" in out
        assert "block CG" in out

    @pytest.mark.pool
    def test_least_squares(self, capsys):
        out = run_example("least_squares.py", capsys)
        assert "no solution" in out  # the system is inconsistent…
        assert "normal-equations residual" in out  # …so the tolerance
        assert "noise floor" in out  # …cannot be on the plain residual
        assert "RCD" in out and "AsyRK" in out and "converged=True" in out
        assert "adaptive sampling saved" in out  # the ablation's headline

    @pytest.mark.pool
    def test_true_parallel(self, capsys):
        out = run_example("true_parallel.py", capsys)
        assert "AsyRGS[processes]" in out
        assert "tau_observed" in out
        assert "Strong scaling" in out
        assert "51 labels" in out  # the paper's headline block regime
        assert "per-column retirement: 51/51" in out  # every label converged
        assert "update-count savings" in out  # retirement did real work
        assert "1 pool spawn(s)" in out  # persistent pool

    @pytest.mark.serve
    def test_serving(self, capsys):
        out = run_example("serving.py", capsys)
        assert "51 requests answered" in out
        assert "51/51 converged" in out
        assert "zero respawns" in out
        assert "max queue depth" in out
        # The multi-matrix gateway: routing, lazy pools, LRU eviction.
        assert "gateway: matrices ['social', 'lap'], live pools []" in out
        assert (
            "routed: social converged=True, lap converged=True, "
            "default(social) converged=True"
        ) in out
        assert "live pools now ['social']" in out
        assert "'social' served 2 across 2 pool spawn(s)" in out
