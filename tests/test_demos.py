"""The shipped demos run end to end: each is executed as a script, from an
empty working directory, prints its closing summary and writes only the
files it is expected to write.  formation_tracking.py (the demo with
message drops) takes longer and runs in CI instead."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


# The files each demo writes, relative to its working directory.
WRITTEN = {
    "solver_convergence.py": [],
    "leader_follower.py": [],
    "rendezvous.py": [os.path.join("runs", "demo_rendezvous", name) for name in
                      ("config.json", "errors.csv", "metrics.json", "trajectories.csv")],
}


@pytest.mark.parametrize("script, summary", [
    ("solver_convergence.py", "gradient baseline:"),
    ("leader_follower.py", "first-state error <= 0.016 from step"),
    ("rendezvous.py", "CSV artifacts in runs/demo_rendezvous"),
])
def test_demo_runs(script, summary, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert summary in capsys.readouterr().out
    written = sorted(os.path.relpath(os.path.join(folder, name), tmp_path)
                     for folder, _, names in os.walk(tmp_path) for name in names)
    assert written == WRITTEN[script]
