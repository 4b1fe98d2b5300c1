import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from optcons import adjoint, cli, coordinator, scenarios
from optcons.errors import ConfigError


def run_cli(*args):
    return cli.main(list(args))


def test_check_preset_prints_resolved_config(capsys):
    assert run_cli("check", "agv_rendezvous") == 0
    out = capsys.readouterr().out
    resolved = json.loads(out)
    assert resolved["mpc"]["N_p"] == 8
    assert resolved["solver"]["method"] == "ocp"


BENCH_SCENARIOS = sorted((pathlib.Path(__file__).parents[1] / "perfbench" / "scenarios")
                         .glob("*.json"))


@pytest.mark.parametrize("path", BENCH_SCENARIOS, ids=lambda path: path.stem)
def test_check_accepts_benchmark_scenarios(path, capsys):
    # The benchmark's frozen scenarios stay valid inputs of the loader.
    assert run_cli("check", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["name"]


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


@pytest.mark.parametrize("preset", ["scalar_chain", "leader_follower"])
def test_bench_rows_are_run_algorithm1s(preset, capsys):
    # bench runs each method one-shot on the spec's horizon (an MPC preset's
    # N_p) through run_scenario; its rounds, convergence and final cost are
    # run_algorithm1's on the spec's fields given one by one.
    assert run_cli("bench", preset) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["ocp", "msa"]
    for method, rounds, converged, cost, _ in rows:
        spec = scenarios.load_preset(preset, [f"solver.method={method}"])
        res = coordinator.run_algorithm1(
            spec.topology, spec.models, spec.cost, spec.solver,
            spec.horizon or spec.mpc.N_p, spec.initial_states,
            leader_model=spec.leader_model, leader_x0=spec.leader_x0)
        assert (int(rounds), converged, cost) == (
            res.rounds, str(res.converged), f"{res.global_costs[-1]:.6e}")


def test_gradcheck_writes_csv_and_reports_small_error(tmp_path, capsys):
    # The unicycle's curvature has the Mxu/Mux cross terms that
    # linear_sine's lacks.
    for preset, agent, t in (("leader_follower", "2", "1"), ("agv_rendezvous", "1", "0")):
        out = tmp_path / preset
        code = run_cli("gradcheck", preset, "--agent", agent, "--t", t, "--out", str(out))
        assert code == 0
        msg = capsys.readouterr().out
        g_err = float(msg.split("gradient rel error")[1].split(",")[0])
        h_err = float(msg.split("hessian rel error")[1].strip())
        assert g_err < 1e-5 and h_err < 1e-3
        files = list(out.glob(f"gradcheck_agent{agent}_t{t}.csv"))
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


def test_long_unicycle_window_falls_back_to_the_dense_path(tmp_path, capsys, monkeypatch):
    # At N_p=32 the unicycle windows (n = 64 controls) reach the banded
    # direction; at round 9 of window 0 every one fails its certificate and
    # takes the dense path, whose error ends the run.
    real, solved = coordinator.banded_direction, []

    def spy(*args):
        out = real(*args)
        solved.append(out[1].any())
        return out

    monkeypatch.setattr(coordinator, "banded_direction", spy)
    code = run_cli("run", "agv_rendezvous", "--set", "mpc.N_p=32", "--set", "mpc.T=2",
                   "--out", str(tmp_path / "long"))
    assert code == 2
    assert capsys.readouterr().err == (
        "numeric failure: agent 2, round 9: G + H is not positive definite: "
        "60-th leading minor of the array is not positive definite\n")
    assert len(solved) == 10 and not solved[-1]


def nan_at(model, entry):
    """``model`` with a nan in its second window (k0 = 1), in row 0 (agent
    1): in df/dx ("A") or df/du ("B") at stage 0, or in the second-order
    action ("M") at stage 1."""
    if entry == "M":
        def second_order(X, U, k0, Lam):
            M = model.second_order_fn(X, U, k0, Lam)
            if k0 == 1:
                M[0, 1, 0, 0] = float("nan")
            return M
        return dataclasses.replace(model, second_order_fn=second_order)

    def jac(X, U, k0):
        A, B = model.jac_fn(X, U, k0)
        if k0 == 1:
            (A if entry == "A" else B)[0, 0, 0, 0] = float("nan")
        return A, B
    return dataclasses.replace(model, jac_fn=jac)


@pytest.mark.parametrize("entry,message", [("A", "Jacobian at k=1"), ("B", "Jacobian at k=1"),
                                           ("M", "second-order action at k=2")])
@pytest.mark.parametrize("preset", ["leader_follower", "formation"])
def test_non_finite_derivative_exits_2_naming_its_stage(preset, entry, message, tmp_path,
                                                        capsys, monkeypatch):
    # A nan in a model derivative fails where the model returns it, like a
    # non-finite state in dynamics.step, instead of deep in the direction;
    # the error names the agent of the failing row and the round, whether
    # the round's sweep (A, B) or its update (M) raised it.
    load = scenarios.load_scenario

    def broken(*args):
        spec = load(*args)
        swapped = {}
        spec.models.update({i: swapped.setdefault(id(m), nan_at(m, entry))
                            for i, m in spec.models.items()})
        return spec

    monkeypatch.setattr(scenarios, "load_scenario", broken)
    name = scenarios.load_preset(preset).models[1].name
    code = run_cli("run", preset, "--set", "mpc.T=2", "--out", str(tmp_path / "nan"))
    assert code == 2
    assert capsys.readouterr().err == (f"numeric failure: agent 1, round 0: {name}: "
                                       f"non-finite {message}\n")


def pair_scenario(path, Q, x2):
    """Two linear agents (A = B = I) on a mutual pair with weight Q, R = 1,
    N_p = 2 and T = 1, from (0, 0) and x2."""
    path.write_text(json.dumps({
        "name": path.stem, "topology": {"n": 2, "edges": [[1, 2], [2, 1]]},
        "models": {"default": {"type": "linear", "A": [[1, 0], [0, 1]],
                               "B": [[1, 0], [0, 1]]}},
        "cost": {"Q": Q, "R": 1}, "mpc": {"N_p": 2, "T": 1},
        "initial_states": {"1": [0, 0], "2": x2}}))
    return str(path)


def test_semidefinite_weight_rounding_runs(tmp_path, capsys):
    # Q = [[1, 1], [1, 1]] is exactly semidefinite; this gap along its null
    # vector evaluates a window cost of -2.98e-08 by rounding, which reads 0.
    path = pair_scenario(tmp_path / "psd.json", [[1, 1], [1, 1]],
                         [-18911.900093307788, 18911.900094089342])
    assert run_cli("check", path) == 0
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 0
    assert (tmp_path / "out" / "metrics.json").exists()


def test_weight_negative_within_rounding_runs_as_semidefinite(tmp_path, capsys):
    # Q's -4e-16 eigenvalue lies within eigvalsh's rounding of 0, so the
    # loader accepts Q and keeps its semidefinite part diag(1, 0): the 1e6 gap
    # along the dropped eigenvector then costs 0, not -4e-4.  The resolved
    # echo loads back to the same weights, bit for bit.
    path = pair_scenario(tmp_path / "semidef.json", [[1, 0], [0, -4e-16]], [0, 1e6])
    assert run_cli("check", path) == 0
    assert run_cli("run", path, "--out", str(tmp_path / "out")) == 0
    spec = scenarios.load_scenario(path)
    assert spec.cost.Q[(1, 2)].tolist() == [[1.0, 0.0], [0.0, 0.0]]
    again = scenarios.load_scenario(spec.resolved)
    assert again.resolved == spec.resolved
    for table, echo in ((spec.cost.Q, again.cost.Q), (spec.cost.R, again.cost.R)):
        assert {k: v.tobytes() for k, v in table.items()} == {
            k: v.tobytes() for k, v in echo.items()}


def test_weight_negative_beyond_rounding_exits_1_at_check(tmp_path, capsys):
    path = pair_scenario(tmp_path / "neg.json", [[1, 0], [0, -5e-11]], [0, 1e6])
    capsys.readouterr()
    assert run_cli("check", path) == 1
    assert capsys.readouterr().err.startswith(
        "error: Q[(1, 2)] must be positive semidefinite (min eigenvalue -5.00e-11)")


@pytest.mark.parametrize("mode", ["mpc", "horizon", "msa", "unicycle"])
def test_non_finite_gradient_exits_2_naming_agent_and_round(mode, tmp_path, capsys):
    # A Q of 1e305 weighs the states' gap of 2e3 beyond float64, so the
    # costates and the gradients are not finite.  The round names the first
    # such agent before either method's update, instead of a raw ValueError
    # from the direction, a rollout failure of msa's first trial step, or a
    # curvature error.  (States whose gap itself overflows are refused at
    # load: test_scenarios.py.)
    raw = {"name": "overflow", "topology": {"n": 2, "edges": [[1, 2], [2, 1]]},
           "models": {"default": {"type": "linear", "A": [[1, 0], [0, 1]],
                                  "B": [[1, 0], [0, 1]]}},
           "cost": {"Q": 1e305, "R": 1}, "mpc": {"N_p": 2, "T": 1},
           "initial_states": {"1": [1e3, 0], "2": [-1e3, 0]}}
    if mode == "horizon":
        raw["horizon"] = raw.pop("mpc")["N_p"]
    if mode == "unicycle":
        raw["models"] = {"default": {"type": "unicycle"}}
        raw["initial_states"] = {"1": [1e3, 0, 0], "2": [-1e3, 0, 0]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    extra = ["--set", "solver.method=msa"] if mode == "msa" else []
    assert run_cli("check", str(path)) == 0
    assert run_cli("run", str(path), *extra, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "numeric failure: agent 1, round 0: non-finite gradient\n"


@pytest.mark.parametrize("case", ["overflow", "nan"])
def test_non_finite_hessian_exits_2_naming_agent_and_round(case, tmp_path, capsys,
                                                           monkeypatch):
    # "overflow": A = 1e40 I carries agent 1's 1e-300 to finite costates and
    # gradients, but the Hessian's sensitivity products overflow, where
    # eigvalsh used to fail with "Eigenvalues did not converge".  "nan": a
    # nan in the upper triangle of row 1's Hessian, which eigvalsh does not
    # read, so it used to pass regularize and escape the direction as a raw
    # ValueError.  Both name the row's agent and round.
    path = tmp_path / "hessian.json"
    path.write_text(json.dumps({
        "name": "hessian", "topology": {"n": 2, "edges": [[1, 2], [2, 1]]},
        "models": {"default": {"type": "linear", "A": [[1e40, 0], [0, 1e40]],
                               "B": [[1, 0], [0, 1]]}},
        "cost": {"Q": 1, "R": 1}, "mpc": {"N_p": 8, "T": 1},
        "initial_states": {"1": [1e-300, 0], "2": [0, 0]}}))
    scenario, agent = str(path), 1
    if case == "nan":
        real = adjoint.hessian

        def nan_row(*args):
            Hs = real(*args)
            Hs[1, 0, -1] = float("nan")
            return Hs

        monkeypatch.setattr(adjoint, "hessian", nan_row)
        scenario, agent = "formation", 2
    assert run_cli("check", scenario) == 0
    assert run_cli("run", scenario, "--set", "mpc.T=1", "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (f"numeric failure: agent {agent}, round 0: "
                                       f"non-finite Hessian\n")


@pytest.mark.parametrize("mode", ["mpc", "horizon"])
def test_rollout_failure_exits_2_naming_agent_and_round(mode, tmp_path, capsys):
    # A = 1e200 I overflows agent 2's state at its second step; agent 1
    # starts at 0 and never does.  The rollout's error names only the row
    # of its model group's stack; the round names the row's agent and the
    # round, as for every other round error.
    raw = {"name": "rollout", "topology": {"n": 2, "edges": [[1, 2], [2, 1]]},
           "models": {"default": {"type": "linear", "A": [[1e200, 0], [0, 1e200]],
                                  "B": [[1, 0], [0, 1]]}},
           "cost": {"Q": 1, "R": 1}, "mpc": {"N_p": 8, "T": 1},
           "initial_states": {"1": [0, 0], "2": [0, 1]}}
    if mode == "horizon":
        raw["horizon"] = raw.pop("mpc")["N_p"]
    path = tmp_path / "rollout.json"
    path.write_text(json.dumps(raw))
    assert run_cli("check", str(path)) == 0
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == ("numeric failure: agent 2, round 0: rollout failed at "
                                       "step 1: linear: non-finite state at k=1\n")


@pytest.mark.parametrize("command, name, message", [
    (["run"], "x" * 300, "error: [Errno 36] File name too long: "),
    (["gradcheck", "--agent", "1"], "x" * 300, "error: [Errno 36] File name too long: "),
    (["run"], "a/../../b", "error: name: expected one path component, got 'a/../../b'")],
    ids=["overlong-run", "overlong-gradcheck", "parent-dirs"])
def test_artifacts_that_cannot_be_written_exit_1(command, name, message, tmp_path,
                                                 monkeypatch, capsys):
    # A name longer than a path component may be is accepted, and the
    # artifacts fail to write; one with "../" is refused at load, so nothing
    # is written outside the output folder.  All exit 1 without a traceback.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.delenv("OPTCONS_OUT_DIR", raising=False)
    assert run_cli(command[0], "leader_follower", *command[1:], "--set",
                   f"name={json.dumps(name)}", "--set", "mpc.T=1") == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]


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
