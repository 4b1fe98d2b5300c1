import json
import os
import pathlib
import re
import sys
import time

import numpy as np
import pytest

from optcons import cli, scenarios
from optcons import dynamics as dyn
from optcons.coordinator import Session, run_algorithm1
from optcons.errors import ConfigError
from optcons.solver import SolverConfig


def test_agv_preset_resolves_paper_parameters():
    spec = scenarios.load_preset("agv_rendezvous")
    assert spec.mpc.N_p == 8
    assert spec.models[1].name.startswith("unicycle(d=0.05")
    np.testing.assert_array_equal(spec.cost.Q[(1, 2)], 10.0 * np.eye(3))
    np.testing.assert_array_equal(spec.cost.R[1], 0.1 * np.eye(2))
    np.testing.assert_array_equal(spec.cost.D[(1, 2)], np.zeros((3, 3)))
    np.testing.assert_allclose(spec.initial_states[1], [0.10, 0.30, 0.78])
    np.testing.assert_allclose(spec.initial_states[2], [6.20, 0.10, 2.36])
    np.testing.assert_allclose(spec.initial_states[3], [6.00, 6.00, 3.93])
    np.testing.assert_allclose(spec.initial_states[4], [-0.10, 6.40, -0.78])


def test_leader_follower_preset_resolves_paper_parameters():
    spec = scenarios.load_preset("leader_follower")
    np.testing.assert_array_equal(spec.cost.Q[(2, 1)], 30.0 * np.eye(2))
    np.testing.assert_array_equal(spec.cost.W[1], 80.0 * np.eye(2))
    np.testing.assert_array_equal(spec.cost.R[1], np.eye(1))
    np.testing.assert_allclose(spec.leader_x0, [-8.14, 30.33])
    np.testing.assert_allclose(spec.initial_states[1], [-12.23, 8.93])
    np.testing.assert_allclose(spec.initial_states[2], [-14.31, 2.08])
    np.testing.assert_allclose(spec.initial_states[3], [-4.11, -1.31])
    np.testing.assert_allclose(spec.initial_states[4], [-4.57, 14.28])
    assert spec.topology.leader_links == frozenset({1})


def test_all_presets_load():
    names = scenarios.list_presets()
    assert {"agv_rendezvous", "leader_follower", "formation", "scalar_chain"} <= set(names)
    for name in names:
        scenarios.load_preset(name)


def test_dangling_cost_edge_named_in_error():
    raw = json.loads(pathlib.Path(scenarios.preset_path("scalar_chain")).read_text())
    raw["cost"]["Q"] = {"default": 1, "1-5": 2}
    with pytest.raises(ConfigError, match="1-5"):
        scenarios.load_scenario(raw)


def test_unknown_keys_rejected():
    raw = json.loads(pathlib.Path(scenarios.preset_path("scalar_chain")).read_text())
    raw["extra_section"] = {}
    raw["solver"]["typo_key"] = 1
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(raw)
    assert "extra_section" in str(err.value)
    assert "typo_key" in str(err.value)


def test_validation_collects_multiple_violations():
    raw = {
        "name": "broken",
        "topology": {"n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]},
        "models": {"default": {"type": "linear", "A": [[1.0]], "B": [[1.0]]}},
        "cost": {"Q": 1, "R": -1.0},
        "horizon": 0,
        "initial_states": {"1": [0.0]},
    }
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(raw)
    text = str(err.value)
    assert "missing agents [2]" in text
    assert "positive definite" in text
    assert "horizon" in text


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        scenarios.load_scenario('{"name": "x",\n  broken\n}')


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python reads integers of any length")
def test_an_integer_too_long_for_int_is_a_parse_error(tmp_path, capsys):
    # json refuses an integer of more than 4,300 digits with a ValueError
    # that is not a JSONDecodeError: from text or a path it is a parse
    # problem, check exits 1 without a traceback, and an override's text
    # stays the string it is.
    digits = "9" * 5001
    path = tmp_path / "big.json"
    path.write_text(f'{{"name": {digits}}}')
    for source in (path.read_text(), path, str(path)):
        with pytest.raises(ConfigError) as err:
            scenarios.load_scenario(source)
        [problem] = err.value.violations
        assert problem.startswith("parse error: ") and "4300" in problem
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse error: ") and "Traceback" not in err
    with pytest.raises(ConfigError) as err:
        scenarios.load_preset("scalar_chain", [f"seed={digits}"])
    assert err.value.violations == [f"seed: expected an integer, got '{digits}'"]


def nested_lists(depth: int):
    """[[...[]...]], ``depth`` lists deep, built without recursion."""
    outer = node = []
    for _ in range(depth - 1):
        node.append([])
        node = node[0]
    return outer


@pytest.mark.parametrize("entry", ["text", "path", "dict"])
def test_a_source_nested_too_deeply_is_a_config_error(entry, tmp_path, capsys):
    # json's parser (text, path) and its encoder (a dict's copy) recurse once
    # per level and raise RecursionError past their limit (Python's recursion
    # limit on 3.10 and 3.11, a C limit of at most 10,000 levels on 3.12), so
    # 100,000 levels pass every version's; the loader reports it as its one
    # problem, and check exits 1 without a traceback.
    text = '{"name": ' + "[" * 100_000 + "]" * 100_000 + "}"
    source = {"text": text, "path": tmp_path / "deep.json",
              "dict": {"name": nested_lists(100_000)}}[entry]
    if entry == "path":
        source.write_text(text)
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(source)
    [problem] = err.value.violations
    assert problem.startswith("scenario is nested too deeply: maximum recursion depth exceeded")
    if entry == "path":
        assert cli.main(["check", str(source)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario is nested too deeply: ") and "Traceback" not in err


def test_an_override_nested_too_deeply_stays_text():
    # An override's text that json cannot parse for its depth (100,000
    # levels, past every version's limit) stays the string it is, like other
    # text that is not JSON; one that json parses but the checks cannot walk
    # (500 lists deep) is a ConfigError too.
    text = "[" * 100_000 + "]" * 100_000
    assert scenarios.apply_overrides({}, [f"name={text}"]) == {"name": text}
    with pytest.raises(ConfigError) as err:
        scenarios.load_preset("leader_follower", [f"initial_states.1={text}"])
    assert err.value.violations[0] == (f"initial_states[1]: expected a vector of numbers, "
                                       f"got '{text}'")
    with pytest.raises(ConfigError, match="^scenario is nested too deeply: "):
        scenarios.load_preset("leader_follower",
                              ["initial_states.1=" + "[" * 500 + "1" + "]" * 500])


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a/../../b", "/abs", "runs/", "a\0b"])
def test_name_must_be_one_path_component(name):
    # The name is the run's directory under the default output folder, so a
    # name that is not one path component would write elsewhere or nowhere.
    with pytest.raises(ConfigError) as err:
        scenarios.load_preset("scalar_chain", [f"name={json.dumps(name)}"])
    assert err.value.violations == [f"name: expected one path component, got {name!r}"]


def test_out_dir_must_not_hold_nul():
    # os.makedirs raises ValueError, not OSError, on a NUL, so run would end
    # in a traceback after its last window.
    with pytest.raises(ConfigError) as err:
        scenarios.load_preset("scalar_chain", ['out_dir="runs/a\\u0000b"'])
    assert err.value.violations == ["out_dir: expected a path without NUL, got 'runs/a\\x00b'"]


@pytest.mark.parametrize("source", [b"{}", 5, None])
def test_load_scenario_rejects_other_source_types(source):
    with pytest.raises(ConfigError, match="dict, JSON text or a path"):
        scenarios.load_scenario(source)


def test_load_scenario_refuses_a_dict_that_json_cannot_encode():
    # The dict is copied through JSON; a numpy array in it names its type.
    raw = json.loads(pathlib.Path(scenarios.preset_path("scalar_chain")).read_text())
    raw["initial_states"]["1"] = np.array(raw["initial_states"]["1"])
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(raw)
    assert err.value.violations == [
        "scenario dict is not JSON: Object of type ndarray is not JSON serializable"]


def test_leader_section_consistency():
    raw = json.loads(pathlib.Path(scenarios.preset_path("scalar_chain")).read_text())
    raw["leader"] = {"model": {"type": "leader_sine", "A": [[1.0]], "B": [1.0]},
                     "x0": [0.0]}
    with pytest.raises(ConfigError, match="leader_links"):
        scenarios.load_scenario(raw)


def test_config_round_trip_identical():
    for name in ("agv_rendezvous", "leader_follower", "formation", "scalar_chain"):
        spec = scenarios.load_preset(name)
        again = scenarios.load_scenario(spec.resolved)
        assert again.resolved == spec.resolved


def test_override_changes_exactly_one_field():
    base = scenarios.load_preset("agv_rendezvous")
    tweaked = scenarios.load_preset("agv_rendezvous", overrides=["solver.c=7.5"])
    assert tweaked.solver.c == 7.5
    a, b = dict(base.resolved), dict(tweaked.resolved)
    assert a.pop("solver") != b.pop("solver")
    assert a == b


def test_scalar_weight_shorthand_and_matrix_forms():
    raw = json.loads(pathlib.Path(scenarios.preset_path("scalar_chain")).read_text())
    raw["cost"]["Q"] = [[2.5]]
    spec = scenarios.load_scenario(raw)
    np.testing.assert_array_equal(spec.cost.Q[(1, 2)], [[2.5]])
    raw["cost"]["Q"] = {"default": 1, "1-2": [[3.0]]}
    spec = scenarios.load_scenario(raw)
    np.testing.assert_array_equal(spec.cost.Q[(1, 2)], [[3.0]])
    np.testing.assert_array_equal(spec.cost.Q[(2, 1)], [[1.0]])


def test_emit_results_zero_step_run(tmp_path):
    spec = scenarios.load_preset("scalar_chain")
    result = scenarios.run_scenario(spec)
    artifacts = scenarios.emit_results(result, spec, tmp_path)
    rows = pathlib.Path(artifacts.trajectories_csv).read_text().strip().splitlines()
    assert rows[0] == "t,agent,x0,u0"
    assert len(rows) == 1 + 2 * 2  # header + 2 agents x (H+1) rows
    assert artifacts.metrics["mode"] == "finite_horizon"
    assert artifacts.metrics["converged"]


def test_emit_results_consensus_run_all_zero_errors(tmp_path):
    raw = json.loads(pathlib.Path(scenarios.preset_path("scalar_chain")).read_text())
    raw["initial_states"] = {"1": [2.0], "2": [2.0]}
    del raw["horizon"]
    raw["mpc"] = {"N_p": 3, "T": 4}
    spec = scenarios.load_scenario(raw)
    result = scenarios.run_scenario(spec)
    artifacts = scenarios.emit_results(result, spec, tmp_path)
    rows = pathlib.Path(artifacts.errors_csv).read_text().strip().splitlines()[1:]
    assert len(rows) == 5 * 2  # (T+1) x 2 directed edges
    for row in rows:
        assert float(row.split(",")[2]) == 0.0


def test_emit_results_deterministic_bytes(tmp_path):
    spec = scenarios.load_preset("leader_follower", overrides=["mpc.T=5"])
    blobs = []
    for sub in ("a", "b"):
        result = scenarios.run_scenario(spec)
        arts = scenarios.emit_results(result, spec, tmp_path / sub)
        blobs.append(tuple(pathlib.Path(p).read_bytes() for p in
                           (arts.trajectories_csv, arts.errors_csv,
                            arts.config_json)))
    assert blobs[0] == blobs[1]


def test_metrics_consistent_with_errors_csv(tmp_path):
    spec = scenarios.load_preset("leader_follower", overrides=["mpc.T=20"])
    result = scenarios.run_scenario(spec)
    artifacts = scenarios.emit_results(result, spec, tmp_path)
    # recompute steps-to-threshold from the emitted file
    per_t = {}
    for line in pathlib.Path(artifacts.errors_csv).read_text().strip().splitlines()[1:]:
        cells = line.split(",")
        t = int(cells[0])
        per_t[t] = max(per_t.get(t, 0.0), float(cells[2]))
    maxes = np.array([per_t[t] for t in sorted(per_t)])
    want = scenarios.steps_to_threshold(maxes, spec.error_threshold)
    assert artifacts.metrics["steps_to_threshold"] == want
    assert artifacts.metrics["final_max_error"] == pytest.approx(maxes[-1])


def test_one_shot_leader_rows_in_trajectories(tmp_path):
    raw = json.loads(pathlib.Path(scenarios.preset_path("leader_follower")).read_text())
    del raw["mpc"]
    raw["horizon"] = 4
    spec = scenarios.load_scenario(raw)
    result = scenarios.run_scenario(spec)
    artifacts = scenarios.emit_results(result, spec, tmp_path)
    rows = [line.split(",") for line in
            pathlib.Path(artifacts.trajectories_csv).read_text().strip().splitlines()[1:]]
    leader = [cells for cells in rows if cells[1] == "l"]
    assert [int(cells[0]) for cells in leader] == list(range(5))
    np.testing.assert_array_equal(
        [[float(v) for v in cells[2:4]] for cells in leader],
        result.leader_trajectory)


@pytest.mark.parametrize("override", [
    "seed=abc", 'error_threshold="x"', "solver=[1]", "mpc=[1]",
    'initial_states.1="a"', 'error_mask=[0,"a"]', "error_mask=5",
    "topology.n=4.5", "mpc.N_p=2.7", "solver.max_outer=1.5",
    "name=5", "out_dir=5", 'mpc.warm_start="false"',
    "solver.c=1e400", "cost.R=1e400", "solver.c=Infinity",
    "initial_states.1=[NaN,0]",
    pytest.param("solver.c=1" + "0" * 400, id="solver.c=10**400"),
    'models.default.amp="1e400"', 'models.default.amp="inf"',
    'models.default.A=[["1","0"],["0","1"]]', "models.default.B=[true,1]",
    "models.default.mode=5", 'leader.model.h_amp="0.1"', "leader.model.h_freq=[1]",
    'initial_states.1=["nan",0]', 'leader.x0=["1",2]', 'cost.Q="inf"',
    'cost.offsets.1=["1","0"]',
    'formation:models.default.delta="0.05"', "formation:leader.model.v=true",
    "formation:leader.model.omega=null",
    'topology.edges=[[2,1,"1.0"],[3,2,1.0],[4,3,1.0]]',
    "topology.edges=[[2,true],[3,2],[4,3]]", 'topology.edges=["21","32","43"]',
    "topology.edges=[[2,1,[1.0]],[3,2],[4,3]]", "topology.edges=5",
    'topology.leader_links="1"', "topology.leader_links=[true]",
    "topology.leader_links=[1.5]", "seed=-1",
    "solver=[]", "mpc=0", "cost.offsets=[]", "solver.method=5",
    "error_mask=[]", "error_mask=[0,0]",
    "solver.c=0", "solver.max_outer=0", "solver.eps=0", "solver.L_max=-1",
    'solver.method="x"', "mpc.N_p=0", "mpc.T=0", "mpc.drop_probability=1",
    "horizon=3", "leader.model=null", "initial_states.1=[0,0,0]",
    'leader.model={"type":"unicycle_drift"}', "topology.edges=[[2,1],[3,2]]",
    "agv_rendezvous:topology.edges=[[1,2],[2,1],[3,4],[4,3]]",
    "error_mask=[2]", "cost.offsets.1=[1,2,3]",
])
def test_malformed_override_raises_config_error(override, capsys):
    preset, override = _on_preset(override)
    with pytest.raises(ConfigError):
        scenarios.load_preset(preset, overrides=[override])
    assert cli.main(["check", preset, "--set", override]) == 1
    assert "error:" in capsys.readouterr().err


def _on_preset(override):
    """(preset, override) from "preset:key=value", leader_follower by default."""
    head, sep, rest = override.partition(":")
    return (head, rest) if sep and "=" not in head else ("leader_follower", override)


@pytest.mark.parametrize("override, message", [
    ("solver=[]", "solver: expected an object, got []"),
    ("solver=false", "solver: expected an object, got False"),
    ('solver=""', "solver: expected an object, got ''"),
    ("mpc=0", "mpc: expected an object, got 0"),
    ("cost.offsets=[]", "cost.offsets: expected an object, got []"),
    ("solver.method=5", "solver.method: expected a string, got 5"),
    ("error_mask=[]", "error_mask: expected at least one component index, got []"),
    ("error_mask=[1,0,1.0]", "error_mask: repeated components [1]"),
    ("error_mask=[2]", "error_mask: components [2] out of range 0..1"),
    ("cost.offsets.1=[1,2,3]", "offset[1] has shape (3,), expected (2,)"),
    ('models.1={"type":"unicycle"}', "agent 1: model state_dim 3 != 2"),
    ("leader.x0=[1,2,3]", "leader x0 has shape (3,), expected (2,)"),
    ('initial_states={"1":[1e308,0],"2":[-1e308,0],"3":[0,0],"4":[0,0]}',
     "initial_states: non-finite deviation norms on pairs ['2-1', '3-2', '1-l']"),
    ('cost.offsets={"1":[1e308,0],"l":[-1e308,0]}',
     "initial_states: non-finite deviation norms on pairs ['2-1', '1-l']"),
    ('leader.model={"type":"unicycle_drift"}',
     "leader model must be autonomous (control_dim 0) with state_dim 2, "
     "got unicycle_drift(v=0.5,w=0.0) with 3, 0"),
    ("topology.edges=[[2,1],[3,2]]",
     "topology: communication graph has no spanning tree rooted at the leader"),
    ("agv_rendezvous:topology.edges=[[1,2],[2,1],[3,4],[4,3]]",
     "topology: communication graph is not strongly connected: no path 1 -> 3"),
])
def test_malformed_override_message(override, message):
    # The checks that span sections are Session's (coordinator.input_problems
    # and the graph assumptions), so `check` refuses what `run` would.
    preset, override = _on_preset(override)
    with pytest.raises(ConfigError) as err:
        scenarios.load_preset(preset, overrides=[override])
    assert err.value.violations == [message]


@pytest.mark.parametrize("override, message", [
    ("cost.Q=[[1,2]]", "cost.Q: expected a scalar or 3x3 matrix, got shape (1, 2)"),
    ('cost.R="x"', "cost.R: expected a number or a matrix, got 'x'"),
])
def test_malformed_weight_reported_once(override, message):
    # Once per distinct dimension, not per edge or agent, and without the
    # validation follow-ons of the entries it leaves out.
    with pytest.raises(ConfigError) as err:
        scenarios.load_preset("formation", overrides=[override])
    assert err.value.violations == [message]


def test_null_section_takes_the_defaults():
    spec = scenarios.load_preset("leader_follower", overrides=["solver=null"])
    assert spec.solver == SolverConfig()


@pytest.mark.parametrize("table", ["initial_states", "models", "cost.offsets"])
@pytest.mark.parametrize("key", ["01", " 1", "1 ", "1_0", "+1", "1.0", "x"])
def test_agent_keys_take_only_the_decimal_form(table, key):
    """A key that int() reads but that is not "1".."n" names no agent: it is
    reported, never ignored or merged with the agent's own entry."""
    raw = json.loads(pathlib.Path(scenarios.preset_path("formation")).read_text())
    node = raw
    for part in table.split("."):
        node = node[part]
    node[key] = node.get("1", node.get("default"))
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(raw)
    assert err.value.violations == [f"{table}: bad agent key {key!r}"]


def test_offsets_name_the_leader_l_only():
    raw = json.loads(pathlib.Path(scenarios.preset_path("formation")).read_text())
    raw["cost"]["offsets"]["l"] = [0.0, 0.0, 0.0]
    assert 0 in scenarios.load_scenario(raw).cost.offsets
    raw["cost"]["offsets"]["0"] = [0.0, 0.0, 0.0]
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(raw)
    assert err.value.violations == ["cost.offsets: agent 0 out of range 1..4"]


def test_readme_key_table_matches_the_loader_tables():
    """README's "Scenario files" table lists exactly the loader's scalar keys,
    with their kinds and defaults."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == ["section", "key", "kind", "default"]
    got = []
    for where, key, kind, default in rows[1:]:
        named = re.findall(r"`([^`]*)`", where)
        value = None if default == "required" else json.loads(
            re.search(r"`([^`]*)`", default).group(1))
        got.append(((named or [""])[0], key.strip("`"), kind, value, type(value)))
    want = [(where, key, kind.__name__, default, type(default))
            for where, table in (("", scenarios._TOP), ("solver", scenarios._SOLVER),
                                 ("mpc", scenarios._MPC))
            for key, (kind, default) in table.items()]
    want += [(model, key, "matrix" if default is None else type(default).__name__,
              default, type(default))
             for model, table in scenarios._MODELS.items()
             for key, default in table.items()]
    assert got == want


def test_negative_seed_run_exits_one(tmp_path, capsys):
    assert cli.main(["run", "leader_follower", "--seed", "-1", "--set", "mpc.T=1",
                     "--out", str(tmp_path)]) == 1
    assert "seed" in capsys.readouterr().err


def test_topology_n_beyond_initial_states_fails_fast():
    start = time.perf_counter()
    with pytest.raises(ConfigError) as err:
        scenarios.load_preset("leader_follower", overrides=["topology.n=1000000"])
    elapsed = time.perf_counter() - start
    text = str(err.value)
    assert elapsed < 1.0
    assert len(text) < 1000
    assert "4 of 1000000 agents given" in text


def test_mpc_trajectories_csv_shape(tmp_path):
    spec = scenarios.load_preset("leader_follower", overrides=["mpc.T=4"])
    result = scenarios.run_scenario(spec)
    artifacts = scenarios.emit_results(result, spec, tmp_path)
    rows = pathlib.Path(artifacts.trajectories_csv).read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["t", "agent", "x0", "x1", "u0"]
    # 5 time rows x (4 agents + leader)
    assert len(rows) - 1 == 5 * 5
    last_cells = rows[-1].split(",")
    assert last_cells[-1] == ""  # no control at t=T


def test_default_out_dir_env(tmp_path, monkeypatch):
    spec = scenarios.load_preset("scalar_chain")
    monkeypatch.setenv("OPTCONS_OUT_DIR", str(tmp_path / "outs"))
    out = scenarios.default_out_dir(spec)
    assert out == os.path.join(str(tmp_path / "outs"), "scalar_chain")


@pytest.mark.parametrize("name, overrides", [("leader_follower", ["mpc.T=5"]),
                                             ("scalar_chain", [])])
def test_emitted_config_reloads_to_identical_artifacts(tmp_path, name, overrides):
    """Reloading an emitted config.json from disk and running it again
    reproduces all four artifacts byte for byte."""
    spec = scenarios.load_preset(name, overrides)
    first = scenarios.emit_results(scenarios.run_scenario(spec), spec, tmp_path / "a")
    again = scenarios.load_scenario(pathlib.Path(first.config_json))
    second = scenarios.emit_results(scenarios.run_scenario(again), again, tmp_path / "b")
    for field in ("trajectories_csv", "errors_csv", "metrics_json", "config_json"):
        a, b = getattr(first, field), getattr(second, field)
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes(), field


@pytest.mark.parametrize("mask", [None, [1]])
@pytest.mark.parametrize("preset", ["leader_follower", "agv_rendezvous"])
@pytest.mark.parametrize("gap", ["initial_states", "cost.offsets"])
def test_loader_and_session_refuse_initial_deviations_alike(preset, mask, gap):
    # coordinator.initial_deviations checks the initial deviations for both,
    # with and without a leader: a gap of 1e200 at agent 1, off the mask [1]
    # or not, is one problem of the same text, naming agent 1's pairs.
    overrides = [f"error_mask={json.dumps(mask)}"]
    spec = scenarios.load_preset(preset, overrides)
    table = spec.initial_states if gap == "initial_states" else spec.cost.offsets
    far = np.zeros(len(spec.initial_states[1])) + table.get(1, 0.0)
    far[0] += 1e200
    with pytest.raises(ConfigError) as loader:
        scenarios.load_preset(preset, overrides + [f"{gap}.1={json.dumps(far.tolist())}"])
    table[1] = far
    with pytest.raises(ConfigError) as session:
        scenarios.new_session(spec)
    assert loader.value.violations == session.value.violations
    [problem] = session.value.violations
    assert problem.startswith("initial_states: non-finite deviation norms on pairs [")
    assert "'1-2'" in problem or "'2-1'" in problem
    assert ("'1-l'" in problem) == (preset == "leader_follower")


@pytest.mark.parametrize("name, overrides", [
    *[(name, [] if name == "scalar_chain" else ["mpc.T=2"]) for name in scenarios.list_presets()],
    ("leader_follower", ["mpc.T=3", "mpc.drop_probability=0.3", "seed=5"])])
def test_run_scenario_writes_what_the_spelled_out_runs_write(tmp_path, name, overrides):
    # run_scenario's session comes from new_session: its four artifacts
    # equal, byte for byte, those of a Session (MPC) or run_algorithm1
    # (finite horizon) given the spec's fields one by one.
    spec = scenarios.load_preset(name, overrides)
    if spec.mpc is None:
        spelled = run_algorithm1(spec.topology, spec.models, spec.cost, spec.solver,
                                 spec.horizon, spec.initial_states,
                                 leader_model=spec.leader_model, leader_x0=spec.leader_x0)
    else:
        spelled = Session(spec.topology, spec.models, spec.cost, spec.solver, spec.mpc,
                          spec.initial_states, leader_model=spec.leader_model,
                          leader_x0=spec.leader_x0, seed=spec.seed,
                          error_mask=spec.error_mask).run()
    first = scenarios.emit_results(scenarios.run_scenario(spec), spec, tmp_path / "a")
    second = scenarios.emit_results(spelled, spec, tmp_path / "b")
    for field in ("trajectories_csv", "errors_csv", "metrics_json", "config_json"):
        a, b = getattr(first, field), getattr(second, field)
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes(), field


# -- model configs: one build per config, shapes checked ----------------------

def ring_scenario(models, states=None):
    """A directed 4-ring of agents with the given ``models`` section."""
    states = states or [[0, 0], [0, 1], [1, 0], [1, 1]]
    return {"name": "ring", "topology": {"n": 4, "edges": [[2, 1], [3, 2], [4, 3], [1, 4]]},
            "models": models, "cost": {"Q": 1, "R": 1}, "mpc": {"N_p": 2, "T": 1},
            "initial_states": {str(i + 1): x for i, x in enumerate(states)}}


EYE = [[1, 0], [0, 1]]


def per_agent(message):
    return [message.format(i=i) for i in range(1, 5)]


def with_leader_b(b):
    raw = json.loads(pathlib.Path(scenarios.preset_path("leader_follower")).read_text())
    raw["leader"]["model"]["B"] = b
    return raw


# Models whose A and B disagree: each loaded, and `check` passed it, until the
# factories checked the shapes; `run` then died in numpy.
MISMATCHED = {
    "linear A 2x2 B 3x1": (
        ring_scenario({"default": {"type": "linear", "A": EYE, "B": [[1], [0], [0]]}},
                      [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]),
        per_agent("models[{i}]: bad model parameters "
                  "(B has shape (3, 1), expected (2, m) for A (2, 2))")),
    "linear A 2x3": (
        ring_scenario({"default": {"type": "linear", "A": [[1, 0, 0], [0, 1, 0]],
                                   "B": [[1], [0]]}}),
        per_agent("models[{i}]: bad model parameters "
                  "(A has shape (2, 3), expected a square matrix)")),
    "linear 1-D A": (
        ring_scenario({"default": {"type": "linear", "A": [1, 0], "B": [[1], [0]]}}),
        per_agent("models[{i}]: bad model parameters "
                  "(A has shape (2,), expected a square matrix)")),
    "linear_sine sum b of 3": (
        ring_scenario({"default": {"type": "linear_sine", "A": EYE, "B": [1, 0, 0]}}),
        per_agent("models[{i}]: bad model parameters "
                  "(b has 3 entries, expected 2 for A (2, 2))")),
    "linear_sine diag b of 3": (
        ring_scenario({"default": {"type": "linear_sine", "A": EYE, "B": [1, 0, 0],
                                   "mode": "diag"}}),
        per_agent("models[{i}]: bad model parameters "
                  "(b has 3 entries, expected 2 for A (2, 2))")),
    "leader_sine b of 3": (
        with_leader_b([0.87, -1.8, 1.0]),
        ["leader.model: bad model parameters (b has 3 entries, expected 2 for A (2, 2))"]),
}


@pytest.mark.parametrize("case", MISMATCHED)
def test_mismatched_model_shapes_are_config_errors(case):
    raw, problems = MISMATCHED[case]
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(raw)
    assert err.value.violations == problems


@pytest.mark.parametrize("case", MISMATCHED)
def test_check_refuses_mismatched_model_shapes(case, tmp_path, capsys):
    raw, problems = MISMATCHED[case]
    path = tmp_path / "mismatched.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert problems[0] in err and "Traceback" not in err


def count_builds(monkeypatch, kind):
    """Count the calls of the dynamics factory ``kind`` that the loader makes."""
    calls = []
    factory = getattr(dyn, kind)

    def counting(*args, **kwargs):
        calls.append(args)
        return factory(*args, **kwargs)

    monkeypatch.setattr(dyn, kind, counting)
    return calls


def test_agents_on_the_default_model_share_one_build(monkeypatch):
    calls = count_builds(monkeypatch, "linear")
    spec = scenarios.load_scenario(ring_scenario({"default": {"type": "linear", "A": EYE,
                                                              "B": [[1], [0]]}}))
    assert len(calls) == 1
    assert len({id(model) for model in spec.models.values()}) == 1
    assert [spec.resolved["models"][str(i)] for i in range(2, 5)] == [
        spec.resolved["models"]["1"]] * 3


def test_configs_equal_with_their_defaults_share_one_model(monkeypatch):
    calls = count_builds(monkeypatch, "linear_sine")
    short = {"type": "linear_sine", "A": EYE, "B": [1, 0]}
    spec = scenarios.load_scenario(ring_scenario({
        "default": short, "2": {**short, "amp": 0.01, "mode": "sum"},
        "3": {**short, "amp": 0.02}}))
    assert len(calls) == 3  # the default once, agents 2 and 3 once each
    assert spec.models[1] is spec.models[2] is spec.models[4]
    assert spec.models[3] is not spec.models[1]
    session = scenarios.new_session(spec)
    assert [agents for _, agents, _ in session.groups] == [[1, 2, 4], [3]]


@pytest.mark.parametrize("default, problem", [
    ({"type": "linear", "A": EYE, "B": [[1], [0]], "x": 1}, "models[{i}]: unknown key 'x'"),
    ({"type": "linear", "A": EYE, "B": [[1], [0], [0]]},
     "models[{i}]: bad model parameters (B has shape (3, 1), expected (2, m) for A (2, 2))"),
    ({"type": "linear", "A": EYE}, "models[{i}]: bad model parameters ('B')"),
])
def test_a_bad_shared_default_is_reported_once_per_agent(default, problem):
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(ring_scenario({"default": default}))
    assert err.value.violations == per_agent(problem)


def test_non_finite_numbers_are_reported_in_document_order():
    big = "1" + "0" * 399
    text = ('{"name": "x", "topology": {"n": 2, "edges": [[1, 2, NaN], [2, 1, 1e400]]},'
            ' "cost": {"Q": {"1-2": [[1, -Infinity], [0, 1]], "default": Infinity},'
            ' "offsets": {"1": [0, 1e-400]}},'
            ' "initial_states": {"1": [0, %s], "2": [[Infinity]]}}' % big)
    with pytest.raises(ConfigError) as err:
        scenarios.load_scenario(text)
    assert err.value.violations == [
        "topology.edges[0][2]: expected a finite number, got nan",
        "topology.edges[1][2]: expected a finite number, got inf",
        "cost.Q.1-2[0][1]: expected a finite number, got -inf",
        "cost.Q.default: expected a finite number, got inf",
        f"initial_states.1[1]: expected a finite number, got {big}",
        "initial_states.2[0][0]: expected a finite number, got inf",
    ]
