"""Scenario configuration: loading, validation, execution, and artifacts.

A scenario is a JSON document (see the shipped presets for complete
examples).  Weight entries accept a scalar-times-identity shorthand
(``"Q": 10`` means 10*I on every edge), an explicit matrix applied
everywhere, or a table keyed by edge ``"i-j"`` / agent ``"i"`` with an
optional ``"default"``.  Validation gathers every violation before
failing, and unknown keys are rejected rather than ignored.

Runs are deterministic; the seed feeds only the message-drop stream.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from itertools import islice

import numpy as np

from . import dynamics as dyn
from .coordinator import (FiniteHorizonResult, MpcConfig, Session,
                          consensus_error, run_algorithm1)
from .cost import CostSpec
from .errors import ConfigError
from .graph import Topology
from .solver import SolverConfig

_TOP_KEYS = {"name", "seed", "out_dir", "error_mask", "error_threshold",
             "topology", "models", "leader", "cost", "solver", "mpc",
             "horizon", "initial_states"}
_TOPOLOGY_KEYS = {"n", "edges", "leader_links"}
_LEADER_KEYS = {"model", "x0"}
_COST_KEYS = {"Q", "R", "D", "W", "E", "offsets"}
_SOLVER_KEYS = {"c", "L_max", "eps", "max_outer", "method"}
_MPC_KEYS = {"N_p", "T", "warm_start", "drop_probability"}
_MODEL_KEYS = {
    "unicycle": {"delta"},
    "unicycle_drift": {"delta", "v", "omega"},
    "linear": {"A", "B"},
    "linear_sine": {"A", "B", "amp", "mode"},
    "leader_sine": {"A", "B", "amp", "h_amp", "h_freq", "mode"},
}
_MODEL_DEFAULTS = {
    "unicycle": {"delta": 0.05},
    "unicycle_drift": {"delta": 0.05, "v": 0.5, "omega": 0.0},
    "linear": {},
    "linear_sine": {"amp": 0.01, "mode": "sum"},
    "leader_sine": {"amp": 0.01, "h_amp": 0.1, "h_freq": 0.05, "mode": "sum"},
}


@dataclass
class ScenarioSpec:
    """A fully validated scenario with defaults resolved.

    ``resolved`` is the canonical dict echo: loading it again yields an
    identical spec, which is the config round-trip contract.
    """

    name: str
    seed: int
    out_dir: str | None
    error_mask: list | None
    error_threshold: float
    topology: Topology
    models: dict
    leader_model: dyn.Model | None
    leader_x0: np.ndarray | None
    cost: CostSpec
    solver: SolverConfig
    mpc: MpcConfig | None
    horizon: int | None
    initial_states: dict
    resolved: dict


@dataclass
class RunArtifacts:
    trajectories_csv: str
    errors_csv: str
    metrics_json: str
    config_json: str
    metrics: dict


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _check_keys(section: dict, allowed: set, where: str, problems: list):
    unknown = set(section) - allowed
    for key in sorted(unknown):
        problems.append(f"{where}: unknown key {key!r}")


def _section(raw: dict, key: str, problems: list) -> dict:
    """raw[key] as a dict ({} when absent or null); anything else is a problem."""
    value = raw.get(key) or {}
    if not isinstance(value, dict):
        problems.append(f"{key}: expected an object, got {value!r}")
        return {}
    return value


def _is_number(value) -> bool:
    """True for a JSON number (JSON true and false parse to bool, an int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integral(value) -> bool:
    return ((isinstance(value, int) and not isinstance(value, bool))
            or (isinstance(value, float) and value.is_integer()))


def _edge_row(row) -> bool:
    """True for a JSON edge row [i, j] or [i, j, a_ij]: integer agent
    indices and a numeric weight."""
    return (isinstance(row, list) and len(row) in (2, 3)
            and all(map(_integral, row[:2])) and all(map(_is_number, row[2:])))


def _number(section: dict, key: str, default, problems: list, where: str = "",
            integer: bool = False):
    """section[key] (or default) as a float, or as an int with ``integer``;
    anything else is recorded as a problem and replaced by the default."""
    value = section.get(key, default)
    if integer and _integral(value):
        return int(value)
    if not integer and _is_number(value):
        return float(value)
    kind = "an integer" if integer else "a number"
    problems.append(f"{where}{key}: expected {kind}, got {value!r}")
    return default


def _non_finite(value, where: str, problems: list):
    """Record every non-finite number in a raw config value: JSON 1e400,
    NaN and Infinity parse to inf or nan (and a huge integer has no float),
    which no setting accepts."""
    if _is_number(value):
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            problems.append(f"{where}: expected a finite number, got {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _non_finite(item, f"{where}.{key}" if where else key, problems)
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            _non_finite(item, f"{where}[{idx}]", problems)


def _typed(section: dict, key: str, default, kind: type, problems: list,
           where: str = ""):
    """section[key] (or default) when it is a JSON value of ``kind`` (str or
    bool); anything else is recorded as a problem and replaced by the
    default."""
    value = section.get(key, default)
    if value is default or isinstance(value, kind):
        return value
    expected = "a string" if kind is str else "true or false"
    problems.append(f"{where}{key}: expected {expected}, got {value!r}")
    return default


def _numbers(value) -> bool:
    """True when value is a JSON number or a (nested) list of numbers."""
    if isinstance(value, list):
        return all(_numbers(item) for item in value)
    return _is_number(value)


def _vector(value, where: str, problems: list) -> np.ndarray | None:
    try:
        vec = np.asarray(value, dtype=float) if _numbers(value) else None
    except ValueError:
        vec = None
    if vec is None or vec.ndim != 1:
        problems.append(f"{where}: expected a vector of numbers, got {value!r}")
        return None
    return vec


def _build_model(cfg: dict, where: str, problems: list) -> dyn.Model | None:
    if not isinstance(cfg, dict) or "type" not in cfg:
        problems.append(f"{where}: model section needs a 'type'")
        return None
    kind = cfg["type"]
    if kind not in _MODEL_KEYS:
        problems.append(f"{where}: unknown model type {kind!r}")
        return None
    _check_keys({k: v for k, v in cfg.items() if k != "type"},
                _MODEL_KEYS[kind], where, problems)
    known = len(problems)
    args = {}
    for key in sorted(_MODEL_KEYS[kind]):
        if key in ("A", "B"):
            if key in cfg and not _numbers(cfg[key]):
                problems.append(f"{where}.{key}: expected numbers, got {cfg[key]!r}")
        elif key == "mode":
            args[key] = _typed(cfg, key, _MODEL_DEFAULTS[kind][key], str, problems,
                               f"{where}.")
        else:
            args[key] = _number(cfg, key, _MODEL_DEFAULTS[kind][key], problems,
                                f"{where}.")
    if len(problems) > known:
        return None
    # Each model type is named after its factory in dynamics.
    try:
        if kind in ("unicycle", "unicycle_drift"):
            return getattr(dyn, kind)(**args)
        A = np.array(cfg["A"], dtype=float)
        B = np.array(cfg["B"], dtype=float)
        if kind == "linear":
            return dyn.linear(A, B)
        return getattr(dyn, kind)(A, B.reshape(-1), **args)
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"{where}: bad model parameters ({exc})")
    return None


def _model_echo(cfg: dict) -> dict:
    kind = cfg["type"]
    out = {"type": kind}
    for key in sorted(_MODEL_KEYS[kind]):
        if key in cfg:
            out[key] = cfg[key]
        elif key in _MODEL_DEFAULTS[kind]:
            out[key] = _MODEL_DEFAULTS[kind][key]
    return out


def _weight_matrix(value, dim: int, where: str, problems: list) -> np.ndarray | None:
    try:
        arr = np.asarray(value, dtype=float) if _numbers(value) else None
    except ValueError:
        arr = None
    if arr is None:
        problems.append(f"{where}: expected a number or a matrix, got {value!r}")
        return None
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.shape != (dim, dim):
        problems.append(f"{where}: expected a scalar or {dim}x{dim} matrix, "
                        f"got shape {arr.shape}")
        return None
    return arr


def _weight_table(value, keys: list, key_fmt, dim_of, where: str, problems: list) -> dict:
    """Expand a scalar / matrix / keyed-table weight config to all keys."""
    out = {}
    if isinstance(value, dict):
        default = value.get("default")
        labeled = {k: v for k, v in value.items() if k != "default"}
        known = {key_fmt(k): k for k in keys}
        for label in labeled:
            if label not in known:
                problems.append(f"{where}: entry {label!r} does not match any "
                                f"edge/agent in the topology")
        for k in keys:
            raw = labeled.get(key_fmt(k), default)
            if raw is None:
                problems.append(f"{where}: missing entry for {key_fmt(k)} "
                                f"and no default")
                continue
            M = _weight_matrix(raw, dim_of(k), f"{where}[{key_fmt(k)}]", problems)
            if M is not None:
                out[k] = M
    else:
        for k in keys:
            M = _weight_matrix(value, dim_of(k), where, problems)
            if M is not None:
                out[k] = M
    return out


def apply_overrides(raw: dict, assignments) -> dict:
    """Apply ``key.path=value`` assignments to a raw config dict."""
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = path.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return raw


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def preset_path(name: str) -> str:
    return str(resources.files("optcons").joinpath("presets", f"{name}.json"))


def list_presets() -> list[str]:
    folder = resources.files("optcons").joinpath("presets")
    return sorted(p.name[:-5] for p in folder.iterdir() if p.name.endswith(".json"))


def load_scenario(source, overrides=None) -> ScenarioSpec:
    """Load and validate a scenario from a path, JSON text, or raw dict."""
    if isinstance(source, dict):
        raw = json.loads(json.dumps(source))
    else:
        text = None
        if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
            with open(source) as fh:
                text = fh.read()
        elif isinstance(source, str):
            text = source
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    apply_overrides(raw, overrides)

    problems: list[str] = []
    _non_finite(raw, "", problems)
    if problems:
        raise ConfigError(problems)
    _check_keys(raw, _TOP_KEYS, "scenario", problems)

    name = _typed(raw, "name", "scenario", str, problems)
    seed = _number(raw, "seed", 0, problems, integer=True)
    if seed < 0:
        problems.append(f"seed: expected a non-negative integer, got {seed}")
    out_dir = _typed(raw, "out_dir", None, str, problems)
    error_mask = raw.get("error_mask")
    error_threshold = _number(raw, "error_threshold", 0.05, problems)

    # Topology ------------------------------------------------------------
    topo_cfg = raw.get("topology")
    topology = None
    if not isinstance(topo_cfg, dict):
        problems.append("scenario: missing 'topology' section")
    else:
        _check_keys(topo_cfg, _TOPOLOGY_KEYS, "topology", problems)
        known = len(problems)
        n = _number(topo_cfg, "n", 0, problems, "topology.", integer=True)
        edges = topo_cfg.get("edges", [])
        links = topo_cfg.get("leader_links", [])
        for row in (edges if isinstance(edges, list) else [edges]):
            if not _edge_row(row):
                problems.append(f"topology.edges: expected rows [i, j] or [i, j, a_ij] "
                                f"of agent indices and a weight, got {row!r}")
                break
        if not (isinstance(links, list) and all(map(_integral, links))):
            problems.append(f"topology.leader_links: expected a list of agent "
                            f"indices, got {links!r}")
        if len(problems) == known:
            try:
                topology = Topology.from_edge_list(n, edges, links)
            except ValueError as exc:
                problems.append(f"topology: {exc}")
    if topology is None:
        raise ConfigError(problems)
    n = topology.n

    # Initial states --------------------------------------------------------
    states_cfg = raw.get("initial_states")
    initial_states = {}
    p = None
    if not isinstance(states_cfg, dict):
        problems.append("scenario: missing 'initial_states' section")
    else:
        for key in sorted(states_cfg):
            try:
                i = int(key)
            except ValueError:
                problems.append(f"initial_states: bad agent key {key!r}")
                continue
            if not 1 <= i <= n:
                problems.append(f"initial_states: agent {i} out of range 1..{n}")
                continue
            vec = _vector(states_cfg[key], f"initial_states[{key}]", problems)
            if vec is not None:
                initial_states[i] = vec
        missing = n - len(initial_states)
        if missing:
            first = list(islice((i for i in range(1, n + 1)
                                 if i not in initial_states), 5))
            more = f" and {missing - len(first)} more" if missing > len(first) else ""
            problems.append(f"initial_states: {len(initial_states)} of {n} agents "
                            f"given, missing agents {first}{more}")
        dims = {v.shape for v in initial_states.values()}
        if len(dims) > 1:
            problems.append(f"initial_states: inconsistent dimensions {sorted(dims)}")
        elif dims:
            p = dims.pop()[0]

    # Models, weights and the echo cover the agents with an initial state,
    # which are all n agents once the config is valid; a topology.n that the
    # initial states do not back costs no per-agent work.
    agents = sorted(initial_states)

    # Models ----------------------------------------------------------------
    models_cfg = raw.get("models")
    models = {}
    model_echo = {}
    if not isinstance(models_cfg, dict):
        problems.append("scenario: missing 'models' section")
    else:
        default_cfg = models_cfg.get("default")
        for key in models_cfg:
            if key == "default":
                continue
            try:
                i = int(key)
            except ValueError:
                problems.append(f"models: bad agent key {key!r}")
                continue
            if not 1 <= i <= n:
                problems.append(f"models: agent {i} out of range 1..{n}")
        for i in agents:
            cfg = models_cfg.get(str(i), default_cfg)
            if cfg is None:
                problems.append(f"models: no model for agent {i} and no default")
                continue
            model = _build_model(cfg, f"models[{i}]", problems)
            if model is not None:
                models[i] = model
                model_echo[str(i)] = _model_echo(cfg)
        for i, model in models.items():
            if p is not None and model.state_dim != p:
                problems.append(f"models[{i}]: state dim {model.state_dim} "
                                f"!= initial state dim {p}")

    # Leader ----------------------------------------------------------------
    leader_cfg = raw.get("leader")
    leader_model = None
    leader_x0 = None
    leader_echo = None
    if topology.leader_links and leader_cfg is None:
        problems.append("scenario: topology has leader_links but no 'leader' section")
    if not topology.leader_links and leader_cfg is not None:
        problems.append("scenario: 'leader' section given but no leader_links")
    if leader_cfg is not None and not isinstance(leader_cfg, dict):
        problems.append(f"leader: expected an object, got {leader_cfg!r}")
    if isinstance(leader_cfg, dict):
        _check_keys(leader_cfg, _LEADER_KEYS, "leader", problems)
        model_cfg = leader_cfg.get("model")
        if model_cfg is None:
            problems.append("leader: missing 'model'")
        else:
            leader_model = _build_model(model_cfg, "leader.model", problems)
        if "x0" not in leader_cfg:
            problems.append("leader: missing 'x0'")
        else:
            leader_x0 = _vector(leader_cfg["x0"], "leader.x0", problems)
            if leader_x0 is not None and p is not None and leader_x0.shape != (p,):
                problems.append(f"leader: x0 has shape {leader_x0.shape}, "
                                f"expected ({p},)")
        if leader_model is not None and leader_model.control_dim != 0:
            problems.append("leader: leader model must be autonomous (control_dim 0)")
        if leader_model is not None and leader_x0 is not None:
            leader_echo = {"model": _model_echo(model_cfg), "x0": leader_x0.tolist()}

    # Cost --------------------------------------------------------------------
    cost_cfg = raw.get("cost")
    cost = None
    if not isinstance(cost_cfg, dict):
        problems.append("scenario: missing 'cost' section")
    elif p is not None and models:
        _check_keys(cost_cfg, _COST_KEYS, "cost", problems)
        edges = sorted(topology.edges)
        links = sorted(topology.leader_links)
        edge_fmt = lambda e: f"{e[0]}-{e[1]}"
        agent_fmt = str
        Q = _weight_table(cost_cfg.get("Q", 0.0), edges, edge_fmt,
                          lambda e: p, "cost.Q", problems)
        D = _weight_table(cost_cfg.get("D", 0.0), edges, edge_fmt,
                          lambda e: p, "cost.D", problems)
        R = _weight_table(cost_cfg.get("R", 1.0), agents, agent_fmt,
                          lambda i: models[i].control_dim if i in models else 1,
                          "cost.R", problems)
        W = _weight_table(cost_cfg.get("W", 0.0), links, agent_fmt,
                          lambda i: p, "cost.W", problems) if links else {}
        E = _weight_table(cost_cfg.get("E", 0.0), links, agent_fmt,
                          lambda i: p, "cost.E", problems) if links else {}
        offsets = {}
        for key, val in _section(cost_cfg, "offsets", problems).items():
            idx = 0 if key in ("l", "0") else None
            if idx is None:
                try:
                    idx = int(key)
                except ValueError:
                    problems.append(f"cost.offsets: bad key {key!r}")
                    continue
                if not 1 <= idx <= n:
                    problems.append(f"cost.offsets: agent {idx} out of range 1..{n}")
                    continue
            vec = _vector(val, f"cost.offsets[{key}]", problems)
            if vec is None:
                continue
            if vec.shape != (p,):
                problems.append(f"cost.offsets[{key}]: shape {vec.shape}, "
                                f"expected ({p},)")
                continue
            offsets[idx] = vec
        cost = CostSpec(Q=Q, R=R, D=D, W=W, E=E, offsets=offsets)
        try:
            cost.validate(topology, p, {i: m.control_dim for i, m in models.items()})
        except ConfigError as exc:
            problems.extend(exc.violations)

    # Solver / MPC ------------------------------------------------------------
    solver_cfg = _section(raw, "solver", problems)
    _check_keys(solver_cfg, _SOLVER_KEYS, "solver", problems)
    eps = _number(solver_cfg, "eps", 1e-6, problems, "solver.")
    solver = None
    try:
        solver = SolverConfig(
            c=_number(solver_cfg, "c", 1.0, problems, "solver."),
            max_outer=_number(solver_cfg, "max_outer", 100, problems, "solver.",
                              integer=True),
            L_max=_number(solver_cfg, "L_max", 10, problems, "solver.",
                          integer=True),
            eps_grad=eps, eps_step=eps,
            method=solver_cfg.get("method", "ocp"),
        )
    except ValueError as exc:
        problems.append(f"solver: {exc}")

    mpc = None
    horizon = raw.get("horizon")
    if "mpc" in raw:
        mpc_cfg = _section(raw, "mpc", problems)
        _check_keys(mpc_cfg, _MPC_KEYS, "mpc", problems)
        try:
            mpc = MpcConfig(
                N_p=_number(mpc_cfg, "N_p", 8, problems, "mpc.", integer=True),
                T=_number(mpc_cfg, "T", 100, problems, "mpc.", integer=True),
                warm_start=_typed(mpc_cfg, "warm_start", True, bool, problems,
                                  "mpc."),
                drop_probability=_number(mpc_cfg, "drop_probability", 0.0,
                                         problems, "mpc."),
            )
        except ValueError as exc:
            problems.append(f"mpc: {exc}")
        if horizon is not None:
            problems.append("scenario: give either 'mpc' or 'horizon', not both")
    elif horizon is None:
        problems.append("scenario: needs an 'mpc' section or a 'horizon'")
    else:
        horizon = _number(raw, "horizon", 1, problems, integer=True)
        if horizon < 1:
            problems.append(f"scenario: horizon must be >= 1, got {horizon}")

    if error_mask is not None and (not isinstance(error_mask, list)
                                   or not all(map(_integral, error_mask))):
        problems.append(f"error_mask: expected a list of component indices, "
                        f"got {error_mask!r}")
    elif error_mask is not None and p is not None:
        bad = [c for c in error_mask if not 0 <= int(c) < p]
        if bad:
            problems.append(f"error_mask: components {bad} out of range 0..{p - 1}")

    if problems:
        raise ConfigError(problems)

    resolved = {
        "name": name,
        "seed": seed,
        "error_threshold": error_threshold,
        "topology": {
            "n": n,
            "edges": [[i, j, topology.weights[(i, j)]]
                      for (i, j) in sorted(topology.edges)],
            "leader_links": sorted(topology.leader_links),
        },
        "models": {str(i): model_echo[str(i)] for i in agents},
        "cost": {
            "Q": {f"{i}-{j}": cost.Q[(i, j)].tolist() for (i, j) in sorted(cost.Q)},
            "R": {str(i): cost.R[i].tolist() for i in agents},
            "D": {f"{i}-{j}": cost.D[(i, j)].tolist() for (i, j) in sorted(cost.D)},
            "W": {str(i): cost.W[i].tolist() for i in sorted(cost.W)},
            "E": {str(i): cost.E[i].tolist() for i in sorted(cost.E)},
            "offsets": {("l" if i == 0 else str(i)): v.tolist()
                        for i, v in sorted(cost.offsets.items())},
        },
        "solver": {"c": solver.c, "L_max": solver.L_max, "eps": eps,
                   "max_outer": solver.max_outer, "method": solver.method},
        "initial_states": {str(i): initial_states[i].tolist() for i in agents},
    }
    if out_dir is not None:
        resolved["out_dir"] = out_dir
    if error_mask is not None:
        resolved["error_mask"] = [int(c) for c in error_mask]
    if leader_echo is not None:
        resolved["leader"] = leader_echo
    if mpc is not None:
        resolved["mpc"] = {"N_p": mpc.N_p, "T": mpc.T,
                           "warm_start": mpc.warm_start,
                           "drop_probability": mpc.drop_probability}
    else:
        resolved["horizon"] = horizon

    return ScenarioSpec(
        name=name, seed=seed, out_dir=out_dir,
        error_mask=None if error_mask is None else [int(c) for c in error_mask],
        error_threshold=error_threshold, topology=topology, models=models,
        leader_model=leader_model, leader_x0=leader_x0, cost=cost,
        solver=solver, mpc=mpc, horizon=horizon,
        initial_states=initial_states, resolved=resolved,
    )


def load_preset(name: str, overrides=None) -> ScenarioSpec:
    return load_scenario(preset_path(name), overrides)


# ---------------------------------------------------------------------------
# Execution and artifacts
# ---------------------------------------------------------------------------

def run_scenario(spec: ScenarioSpec):
    """Run the scenario; returns RunResult (MPC) or FiniteHorizonResult."""
    if spec.mpc is not None:
        return Session(spec.topology, spec.models, spec.cost, spec.solver,
                       spec.mpc, spec.initial_states,
                       leader_model=spec.leader_model, leader_x0=spec.leader_x0,
                       seed=spec.seed, error_mask=spec.error_mask).run()
    return run_algorithm1(
        spec.topology, spec.models, spec.cost, spec.solver, spec.horizon,
        spec.initial_states, leader_model=spec.leader_model,
        leader_x0=spec.leader_x0)


def steps_to_threshold(max_errors: np.ndarray, threshold: float) -> int | None:
    """First step after which the max error stays at or below the threshold."""
    above = np.nonzero(np.asarray(max_errors) > threshold)[0]
    if above.size == 0:
        return 0
    t = int(above[-1]) + 1
    return t if t < len(max_errors) else None


def compute_metrics(result, spec: ScenarioSpec, wall_time: float | None = None) -> dict:
    if isinstance(result, FiniteHorizonResult):
        metrics = {
            "mode": "finite_horizon",
            "rounds": int(result.rounds),
            "converged": bool(result.converged),
            "max_grad_norm": float(np.max(result.grad_norms)),
            "final_global_cost": float(result.global_costs[-1]),
        }
    else:
        metrics = {
            "mode": "mpc",
            "final_max_error": float(result.max_errors[-1]),
            "error_threshold": spec.error_threshold,
            "steps_to_threshold": steps_to_threshold(result.max_errors,
                                                     spec.error_threshold),
            "total_rounds": int(result.rounds.sum()),
            "mean_rounds_per_step": float(result.rounds.mean()),
            "all_windows_converged": bool(result.converged.all()),
            "final_window_cost": float(result.window_costs[-1]),
        }
    if wall_time is not None:
        metrics["wall_time_s"] = float(wall_time)
    return metrics


def _trajectory_rows(states: dict, controls: dict, leader):
    """One row per (t, agent) with its state and applied control, plus the
    leader's state; the last time step has no control."""
    agents = sorted(states)
    p = states[agents[0]].shape[1]
    mmax = max(controls[i].shape[1] for i in agents)
    T = states[agents[0]].shape[0] - 1
    header = ["t", "agent"] + [f"x{c}" for c in range(p)] + [f"u{c}" for c in range(mmax)]
    rows = []
    for t in range(T + 1):
        for i in agents:
            cells = [str(t), str(i)] + [_fmt(v) for v in states[i][t]]
            if t < T:
                u = controls[i][t]
                cells += [_fmt(v) for v in u] + [""] * (mmax - len(u))
            else:
                cells += [""] * mmax
            rows.append(cells)
        if leader is not None:
            cells = [str(t), "l"] + [_fmt(v) for v in leader[t]]
            cells += [""] * mmax
            rows.append(cells)
    return header, rows


def _error_rows(states: dict, leader, spec: ScenarioSpec):
    """Long-format error rows: masked norm plus per-component deviations."""
    steps, p = states[1].shape
    header = ["t", "pair", "error"] + [f"e{c}" for c in range(p)]
    offsets = spec.cost.offsets
    rows = []
    for t in range(steps):
        states_t = {i: x[t] for i, x in sorted(states.items())}
        leader_state = None if leader is None else leader[t]
        errs, _ = consensus_error(states_t, spec.topology, offsets,
                                  mask=spec.error_mask, leader_state=leader_state)

        def shifted(idx, x):
            d = offsets.get(idx)
            return np.asarray(x, dtype=float) if d is None else np.asarray(x) - d

        for pair in sorted(errs):
            a, b = pair.split("-")
            za = shifted(int(a), states_t[int(a)])
            zb = shifted(0, leader_state) if b == "l" else shifted(int(b), states_t[int(b)])
            comp = np.abs(za - zb)
            rows.append([str(t), pair, _fmt(errs[pair])] + [_fmt(v) for v in comp])
    return header, rows


def emit_results(result, spec: ScenarioSpec, out_dir,
                 wall_time: float | None = None) -> RunArtifacts:
    """Write trajectories.csv, errors.csv, metrics.json, and the config echo.

    Repeated runs with the same seed produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)

    if isinstance(result, FiniteHorizonResult):
        states, leader = result.trajectories, result.leader_trajectory
    else:
        states, leader = result.states, result.leader_states
    paths = [os.path.join(out_dir, name) for name in
             ("trajectories.csv", "errors.csv", "metrics.json", "config.json")]
    tables = (_trajectory_rows(states, result.controls, leader),
              _error_rows(states, leader, spec))
    for path, (header, rows) in zip(paths, tables):
        with open(path, "w") as fh:
            for row in [header] + rows:
                fh.write(",".join(row) + "\n")

    metrics = compute_metrics(result, spec, wall_time)
    for path, echo in zip(paths[2:], (metrics, spec.resolved)):
        with open(path, "w") as fh:
            json.dump(echo, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return RunArtifacts(*paths, metrics)


def default_out_dir(spec: ScenarioSpec) -> str:
    if spec.out_dir:
        return spec.out_dir
    base = os.environ.get("OPTCONS_OUT_DIR", "runs")
    return os.path.join(base, spec.name)
