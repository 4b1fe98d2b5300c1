"""The shipped demos run end to end: each is executed as a script, from an
empty working directory, and prints its closing summary."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


@pytest.mark.parametrize("script, summary", [
    ("solver_convergence.py", "gradient baseline:"),
    ("leader_follower.py", "first-state error <= 0.016 from step"),
])
def test_demo_runs(script, summary, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert summary in capsys.readouterr().out
    assert os.listdir(tmp_path) == []
