import json
import os
import pathlib
import subprocess
import sys

import pytest

from optcons import cli, scenarios
from optcons.errors import ConfigError


def run_cli(*args):
    return cli.main(list(args))


def test_check_preset_prints_resolved_config(capsys):
    assert run_cli("check", "agv_rendezvous") == 0
    out = capsys.readouterr().out
    resolved = json.loads(out)
    assert resolved["mpc"]["N_p"] == 8
    assert resolved["solver"]["method"] == "ocp"


def test_check_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "unknown_key": 1}')
    assert run_cli("check", str(path)) == 1
    assert "error" in capsys.readouterr().err


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = run_cli("run", "leader_follower", "--set", "mpc.T=6",
                   "--out", str(out))
    assert code == 0
    for name in ("trajectories.csv", "errors.csv", "metrics.json", "config.json"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mode"] == "mpc"
    assert "wall_time_s" in metrics


def test_run_leader_follower_tracking_columns(tmp_path):
    out = tmp_path / "lf"
    assert run_cli("run", "leader_follower", "--out", str(out)) == 0
    rows = [line.split(",") for line in
            (out / "errors.csv").read_text().strip().splitlines()[1:]]
    by_t = {}
    for cells in rows:
        if cells[1].endswith("-l"):
            t = int(cells[0])
            by_t.setdefault(t, []).append((float(cells[3]), float(cells[4])))
    T = max(by_t)
    # first-state tracking error settles below the reported bound and stays
    settle = None
    for t in sorted(by_t):
        if all(e1 <= 0.016 for e1, _ in by_t[t]):
            if settle is None:
                settle = t
        else:
            settle = None
    assert settle is not None and settle <= 30
    assert all(e1 <= 0.016 for e1, _ in by_t[T])


def test_run_exit_code_3_on_cap(tmp_path):
    # One round per window cannot satisfy a 1e-12 step tolerance.
    code = run_cli("run", "leader_follower", "--set", "mpc.T=2",
                   "--set", "solver.max_outer=1", "--set", "solver.eps=1e-12",
                   "--out", str(tmp_path / "capped"))
    assert code == 3
    assert (tmp_path / "capped" / "metrics.json").exists()


def test_run_unknown_scenario_exits_1(capsys):
    assert run_cli("run", "no_such_preset") == 1


def test_seed_flag_overrides_seed(tmp_path):
    out = tmp_path / "seeded"
    assert run_cli("run", "leader_follower", "--set", "mpc.T=2",
                   "--seed", "17", "--out", str(out)) == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["seed"] == 17


def test_bench_table_ocp_beats_msa(capsys):
    assert run_cli("bench", "scalar_chain", "--methods", "ocp,msa") == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines()]
    assert lines[0].split()[0] == "method"
    table = {ln.split()[0]: ln.split() for ln in lines[1:]}
    ocp_rounds = int(table["ocp"][1])
    msa_rounds = int(table["msa"][1])
    assert ocp_rounds < msa_rounds


def test_gradcheck_writes_csv_and_reports_small_error(tmp_path, capsys):
    out = tmp_path / "gc"
    code = run_cli("gradcheck", "leader_follower", "--agent", "2", "--t", "1",
                   "--out", str(out))
    assert code == 0
    msg = capsys.readouterr().out
    g_err = float(msg.split("gradient rel error")[1].split(",")[0])
    h_err = float(msg.split("hessian rel error")[1].strip())
    assert g_err < 1e-5 and h_err < 1e-3
    files = list(out.glob("gradcheck_agent2_t1.csv"))
    assert len(files) == 1
    text = files[0].read_text()
    assert text.startswith("index,grad,fd_grad,abs_diff")
    assert "row,col,hessian,fd_hessian,abs_diff" in text


def test_gradcheck_agent_out_of_range(tmp_path):
    assert run_cli("gradcheck", "scalar_chain", "--agent", "9") == 1
    assert run_cli("gradcheck", "leader_follower", "--agent", "2", "--t", "-1",
                   "--out", str(tmp_path)) == 1
    assert not list(tmp_path.iterdir())


def test_cli_run_deterministic_artifacts(tmp_path):
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert run_cli("run", "leader_follower", "--set", "mpc.T=4",
                       "--out", str(out)) == 0
        blobs.append((out / "trajectories.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_run_numeric_failure_exits_2(tmp_path, capsys):
    # Undamped updates on the aggressive formation weights blow up fast.
    code = run_cli("run", "formation", "--set", "solver.c=0.05",
                   "--set", "mpc.T=20", "--out", str(tmp_path / "boom"))
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_python_m_optcons_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "optcons", "check", "leader_follower"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "leader_follower"


def test_directory_named_like_a_preset_does_not_shadow_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "leader_follower").mkdir()
    assert run_cli("check", "leader_follower") == 0
    assert json.loads(capsys.readouterr().out)["name"] == "leader_follower"


def test_existing_file_wins_over_preset_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    raw = json.loads(pathlib.Path(scenarios.preset_path("scalar_chain")).read_text())
    raw["name"] = "from_file"
    (tmp_path / "leader_follower").write_text(json.dumps(raw))
    assert run_cli("check", "leader_follower") == 0
    assert json.loads(capsys.readouterr().out)["name"] == "from_file"


@pytest.mark.parametrize("token", ["leader_folower", "missing.json", "."])
def test_unknown_scenario_token_names_token_and_presets(tmp_path, monkeypatch, capsys,
                                                        token):
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", token) == 1
    err = capsys.readouterr().err
    assert repr(token) in err
    assert all(name in err for name in scenarios.list_presets())
    assert "parse error" not in err


@pytest.mark.parametrize("source", [pathlib.Path("missing.json"), pathlib.Path("."), "."])
def test_unreadable_scenario_path_raises_config_error(tmp_path, monkeypatch, source):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="cannot read scenario"):
        scenarios.load_scenario(source)
