"""Scenario configuration: loading, validation, execution, and artifacts.

A scenario is a JSON document (see the shipped presets for complete
examples).  Weight entries accept a scalar-times-identity shorthand
(``"Q": 10`` means 10*I on every edge), an explicit matrix applied
everywhere, or a table keyed by edge ``"i-j"`` / agent ``"i"`` with an
optional ``"default"``.  Validation gathers every violation before
failing, and unknown keys are rejected rather than ignored; the checks that
span sections are ``Session``'s (``coordinator``'s input checks, the graph's).

Runs are deterministic; the seed feeds only the message-drop stream.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields
from importlib import resources
from itertools import islice
from typing import get_type_hints

import numpy as np

from . import dynamics as dyn
from .coordinator import (FiniteHorizonResult, MpcConfig, Session, edge_errors,
                          edge_table, initial_deviations, input_problems)
from .cost import CostSpec, as_weight
from .errors import ConfigError, PreconditionError
from .graph import Topology, require_spanning_tree, require_strongly_connected
from .solver import SolverConfig

# Every scalar setting as key -> (kind, default): the loader's unknown-key
# check, type check, default and echo all read these tables.  The top-level
# keys are ScenarioSpec fields; the solver and MPC tables are their config
# dataclasses' fields.
_TOP = {"name": (str, "scenario"), "seed": (int, 0), "out_dir": (str, None),
        "error_threshold": (float, 0.05)}


def _fields(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)}


_SOLVER = _fields(SolverConfig)
_MPC = _fields(MpcConfig)
# Model parameters per type, key -> default; a default of None marks a
# required matrix.  Each type is named after its factory in dynamics.
_MODELS = {
    "unicycle": {"delta": 0.05},
    "unicycle_drift": {"delta": 0.05, "v": 0.5, "omega": 0.0},
    "linear": {"A": None, "B": None},
    "linear_sine": {"A": None, "B": None, "amp": 0.01, "mode": "sum"},
    "leader_sine": {"A": None, "B": None, "amp": 0.01, "h_amp": 0.1, "h_freq": 0.05,
                    "mode": "sum"},
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


def _check_keys(section: dict, allowed, where: str, problems: list):
    for key in sorted(section.keys() - allowed):
        problems.append(f"{where}: unknown key {key!r}")


def _section(raw: dict, key: str, problems: list, where: str = "") -> dict:
    """raw[key] as a dict ({} when absent or null); anything else is a problem."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        problems.append(f"{where}{key}: expected an object, got {value!r}")
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


_EXPECTED = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _scalar(section: dict, key: str, kind: type, default, problems: list,
            where: str = ""):
    """section[key] as a JSON value of ``kind`` (int, float, str or bool),
    the default when absent (or null where the default is null); anything
    else is recorded as a problem and replaced by the default."""
    value = section.get(key, default)
    if value is default:
        return value
    if kind is int:
        ok = _integral(value)
    elif kind is float:
        ok = _is_number(value)
    else:
        ok = isinstance(value, kind)
    if ok:
        return kind(value)
    problems.append(f"{where}{key}: expected {_EXPECTED[kind]}, got {value!r}")
    return default


def _scalars(section: dict, table: dict, where: str, problems: list) -> dict:
    """Every key of a (kind, default) table read from a section that holds
    no other keys."""
    _check_keys(section, table.keys(), where, problems)
    return {key: _scalar(section, key, kind, default, problems, f"{where}.")
            for key, (kind, default) in table.items()}


def _agent_key(key: str, n: int, where: str, problems: list) -> int | None:
    """The agent that a table key names, in decimal form "1".."n"; anything
    else is recorded as a problem."""
    try:
        i = int(key)
    except ValueError:
        i = None
    if i is None or str(i) != key:
        problems.append(f"{where}: bad agent key {key!r}")
        return None
    if not 1 <= i <= n:
        problems.append(f"{where}: agent {i} out of range 1..{n}")
        return None
    return i


_FLOAT_MAX = sys.float_info.max


class _NotPlain(Exception):
    """Raised by ``_plain_copy`` on what only json itself copies exactly."""


def _not_plain():
    raise _NotPlain


def _plain_copy(item):
    """A copy of a value made of dicts with ASCII str keys, lists, ASCII
    strings, finite floats, integers within float range, bools and None;
    anything else raises _NotPlain."""
    kind = type(item)
    if kind is dict:
        return {(key if type(key) is str and key.isascii() else _not_plain()): _plain_copy(val)
                for key, val in item.items()}
    if kind is list:
        return [_plain_copy(val) for val in item]
    if (kind is float and item - item == 0.0 or kind is str and item.isascii()
            or kind is int and -_FLOAT_MAX <= item <= _FLOAT_MAX
            or item is None or kind is bool):
        return item
    raise _NotPlain


def _json_copy(value) -> tuple:
    """(copy, plain): ``json.loads(json.dumps(value))``, and whether it was
    made by ``_plain_copy``'s one walk, so that it holds no number that
    ``_non_finite`` would report.

    Anything else goes through json's text, which copies it or raises json's
    TypeError or ValueError: a tuple, a subclass (np.float64), a key that is
    not a str (1 becomes "1", and keys that collide keep the first one's
    place and the last one's value), text that is not ASCII (json joins a
    surrogate pair), a non-finite number, another type, or a circular
    reference (which the walk meets as unbounded recursion, and json as
    ValueError); a value nested past json's own depth raises RecursionError."""
    try:
        return _plain_copy(value), True
    except (_NotPlain, RecursionError):
        return json.loads(json.dumps(value)), False


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


def _numbers(value) -> bool:
    """True when value is a JSON number or a (nested) list of numbers."""
    if isinstance(value, list):
        return all(_numbers(item) for item in value)
    return _is_number(value)


def _floats(value) -> np.ndarray | None:
    """JSON numbers as one float array; None for anything else, ragged lists included."""
    try:
        return np.asarray(value, dtype=float) if _numbers(value) else None
    except ValueError:
        return None


def _vector(value, where: str, problems: list) -> np.ndarray | None:
    vec = _floats(value)
    if vec is None or vec.ndim != 1:
        problems.append(f"{where}: expected a vector of numbers, got {value!r}")
        return None
    return vec


def _build_model(cfg: dict, where: str, problems: list) -> dyn.Model | None:
    if not isinstance(cfg, dict) or "type" not in cfg:
        problems.append(f"{where}: model section needs a 'type'")
        return None
    kind = cfg["type"]
    if not isinstance(kind, str) or kind not in _MODELS:
        problems.append(f"{where}: unknown model type {kind!r}")
        return None
    _check_keys(cfg, _MODELS[kind].keys() | {"type"}, where, problems)
    known = len(problems)
    args = {}
    for key, default in sorted(_MODELS[kind].items()):
        if default is not None:
            args[key] = _scalar(cfg, key, type(default), default, problems, f"{where}.")
        elif key in cfg and not _numbers(cfg[key]):
            problems.append(f"{where}.{key}: expected numbers, got {cfg[key]!r}")
    if len(problems) > known:
        return None
    try:
        return getattr(dyn, kind)(*[np.array(cfg[key], dtype=float)
                                    for key, default in _MODELS[kind].items() if default is None],
                                  **args)
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"{where}: bad model parameters ({exc})")
    return None


def _model_echo(cfg: dict) -> dict:
    kind = cfg["type"]
    return {"type": kind, **{key: cfg.get(key, default)
                             for key, default in _MODELS[kind].items()
                             if key in cfg or default is not None}}


def _weight_matrix(value, dim: int, where: str, problems: list) -> np.ndarray | None:
    arr = _floats(value)
    if arr is None:
        problems.append(f"{where}: expected a number or a matrix, got {value!r}")
        return None
    try:
        return as_weight(arr, dim)
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _weight_table(value, keys: list, key_fmt, dim_of, where: str, problems: list) -> dict:
    """A weight config as a matrix per key.  A bare number or matrix is the
    table {"default": value}.  Each label (key_fmt of a key) is checked at its
    key's dim_of, and a given default once per dim_of of the keys that read
    it, or of every key when none does (dim_of(None) with no keys).  A key
    whose dim_of is None is known but gets no entry."""
    table = value if isinstance(value, dict) else {"default": value}
    labels = {}
    if len(table) > ("default" in table):  # only labels need key_fmt
        known = {key_fmt(k): k for k in keys}
        problems += [f"{where}: entry {label!r} does not match any edge/agent in the topology"
                     for label in table if label != "default" and label not in known]
        labels = {k: label for label, k in known.items() if label in table}
    dims = {k: d for k in keys if (d := dim_of(k)) is not None}
    if "default" in table:
        readers = [d for k, d in dims.items() if k not in labels]
        default = {d: _weight_matrix(table["default"], d, where, problems)
                   for d in dict.fromkeys(readers or dims.values() or [dim_of(None)])}
    out = {}
    for k, d in dims.items():
        if k in labels:
            M = _weight_matrix(table[labels[k]], d, f"{where}[{labels[k]}]", problems)
        elif "default" in table:
            M = default[d]
        else:
            problems.append(f"{where}: missing entry for {key_fmt(k)} and no default")
            continue
        if M is not None:
            out[k] = M.copy()
    return out


def apply_overrides(raw: dict, assignments) -> dict:
    """Apply ``key.path=value`` assignments to a raw config dict."""
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except (ValueError, RecursionError):  # not JSON, too long an integer, or too deep
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
    """Load and validate a scenario from a path, JSON text, or raw dict;
    a path that cannot be read, a dict that JSON cannot encode, a source
    nested deeper than json or the checks can recurse, or a source of
    another type, raises ConfigError.  A dict is copied as its JSON text
    would load, so ``overrides`` never change the caller's."""
    try:
        return _load_scenario(source, overrides)
    except RecursionError as exc:  # json's parser and encoder and the checks recurse per level
        raise ConfigError(f"scenario is nested too deeply: {exc}") from None


def _load_scenario(source, overrides) -> ScenarioSpec:
    if isinstance(source, dict):
        try:
            raw, plain = _json_copy(source)
        except (TypeError, ValueError) as exc:  # the message names the type or the cycle
            raise ConfigError(f"scenario dict is not JSON: {exc}") from None
    else:
        if isinstance(source, os.PathLike) or (isinstance(source, str)
                                               and os.path.exists(source)):
            try:
                with open(source) as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read scenario {os.fspath(source)!r}: {exc}")
        elif isinstance(source, str):
            text = source
        else:
            raise ConfigError("scenario source must be a dict, JSON text or a path, "
                              f"got {type(source).__name__}")
        try:
            raw, plain = _json_copy(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except ValueError as exc:  # an integer too long for int(), without a position
            raise ConfigError(f"parse error: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    apply_overrides(raw, overrides)

    problems: list[str] = []
    if not plain or overrides:  # a number that may not be finite, or an override's
        _non_finite(raw, "", problems)
        if problems:
            raise ConfigError(problems)
    _check_keys(raw, _TOP.keys() | {"error_mask", "topology", "models", "leader", "cost",
                                    "solver", "mpc", "horizon", "initial_states"},
                "scenario", problems)
    top = {key: _scalar(raw, key, kind, default, problems)
           for key, (kind, default) in _TOP.items()}
    if top["seed"] < 0:
        problems.append(f"seed: expected a non-negative integer, got {top['seed']}")
    name = top["name"]  # the run's directory under the default output folder
    if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
        problems.append(f"name: expected one path component, got {name!r}")
    if "\0" in (top["out_dir"] or ""):  # no file system takes it
        problems.append(f"out_dir: expected a path without NUL, got {top['out_dir']!r}")
    error_mask = raw.get("error_mask")

    # Topology ------------------------------------------------------------
    topo_cfg = raw.get("topology")
    topology = None
    if not isinstance(topo_cfg, dict):
        problems.append("scenario: missing 'topology' section")
    else:
        _check_keys(topo_cfg, {"n", "edges", "leader_links"}, "topology", problems)
        known = len(problems)
        n = _scalar(topo_cfg, "n", int, 0, problems, "topology.")
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
            i = _agent_key(key, n, "initial_states", problems)
            vec = None if i is None else _vector(states_cfg[key],
                                                 f"initial_states[{key}]", problems)
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
            if key != "default":
                _agent_key(key, n, "models", problems)
        # Agents with one resolved model config share a Model: rounds stack
        # them.  A config object (every agent on the default is one) is built
        # and echoed once, unless that reports a problem: then each agent
        # builds it again, so that its problems carry the agent's prefix.
        built, shared = {}, {}
        for i in agents:
            cfg = models_cfg.get(str(i), default_cfg)
            if cfg is None:
                problems.append(f"models: no model for agent {i} and no default")
                continue
            entry = built.get(id(cfg))
            if entry is None:
                known = len(problems)
                model = _build_model(cfg, f"models[{i}]", problems)
                if model is None:
                    continue
                echo = _model_echo(cfg)
                entry = shared.setdefault(json.dumps(echo), model), echo
                if len(problems) == known:
                    built[id(cfg)] = entry
            models[i], model_echo[str(i)] = entry

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
        _check_keys(leader_cfg, {"model", "x0"}, "leader", problems)
        model_cfg = leader_cfg.get("model")
        if model_cfg is None:
            problems.append("leader: missing 'model'")
        else:
            leader_model = _build_model(model_cfg, "leader.model", problems)
        if "x0" not in leader_cfg:
            problems.append("leader: missing 'x0'")
        else:
            leader_x0 = _vector(leader_cfg["x0"], "leader.x0", problems)
        if leader_model is not None and leader_x0 is not None:
            leader_echo = {"model": _model_echo(model_cfg), "x0": leader_x0.tolist()}

    # Cost --------------------------------------------------------------------
    cost_cfg = raw.get("cost")
    cost, tables_ok = None, False
    if not isinstance(cost_cfg, dict):
        problems.append("scenario: missing 'cost' section")
    elif p is not None and models:
        _check_keys(cost_cfg, {"Q", "R", "D", "W", "E", "offsets"}, "cost", problems)
        edges = sorted(topology.edges)
        links = sorted(topology.leader_links)
        edge_fmt, at_p = (lambda e: f"{e[0]}-{e[1]}"), (lambda k: p)
        known = len(problems)
        Q = _weight_table(cost_cfg.get("Q", 0.0), edges, edge_fmt, at_p, "cost.Q", problems)
        D = _weight_table(cost_cfg.get("D", 0.0), edges, edge_fmt, at_p, "cost.D", problems)
        # An agent whose model failed keeps its R label known, and gets no R.
        R = _weight_table(cost_cfg.get("R", 1.0), agents, str,
                          lambda i: models[i].control_dim if i in models else None,
                          "cost.R", problems)
        W = _weight_table(cost_cfg.get("W", 0.0), links, str, at_p, "cost.W", problems)
        E = _weight_table(cost_cfg.get("E", 0.0), links, str, at_p, "cost.E", problems)
        tables_ok = len(problems) == known
        offsets = {}
        for key, val in _section(cost_cfg, "offsets", problems, "cost.").items():
            idx = 0 if key == "l" else _agent_key(key, n, "cost.offsets", problems)
            vec = None if idx is None else _vector(val, f"cost.offsets[{key}]", problems)
            if vec is not None:
                offsets[idx] = vec
        cost = CostSpec(Q=Q, R=R, D=D, W=W, E=E, offsets=offsets)

    # Solver / MPC ------------------------------------------------------------
    # Each config's echo is the table's values that it is built from.
    solver, mpc = None, None
    solver_cfg = _scalars(_section(raw, "solver", problems), _SOLVER, "solver", problems)
    try:
        solver = SolverConfig(**solver_cfg)
    except ValueError as exc:
        problems.append(f"solver: {exc}")

    horizon = raw.get("horizon")
    if "mpc" in raw:
        mpc_cfg = _scalars(_section(raw, "mpc", problems), _MPC, "mpc", problems)
        try:
            mpc = MpcConfig(**mpc_cfg)
        except ValueError as exc:
            problems.append(f"mpc: {exc}")
        if horizon is not None:
            problems.append("scenario: give either 'mpc' or 'horizon', not both")
    elif horizon is None:
        problems.append("scenario: needs an 'mpc' section or a 'horizon'")
    else:
        horizon = _scalar(raw, "horizon", int, 1, problems)
        if horizon < 1:
            problems.append(f"scenario: horizon must be >= 1, got {horizon}")

    mask = None
    if isinstance(error_mask, list) and all(map(_integral, error_mask)):
        mask = [int(c) for c in error_mask]
    elif error_mask is not None:
        problems.append(f"error_mask: expected a list of component indices, "
                        f"got {error_mask!r}")

    # Session's checks (cost: with whole weight tables; deviations, graph: with all n states).
    shared = input_problems(topology, models, p, cost if tables_ok else None,
                            leader_model, leader_x0, mask)
    if not shared and tables_ok and len(initial_states) == n:
        shared = initial_deviations(topology, p, cost.offsets, initial_states,
                                    leader_x0, mask)[2]
    problems += shared
    if len(initial_states) == n:
        try:
            (require_spanning_tree if topology.leader_links
             else require_strongly_connected)(topology)
        except PreconditionError as exc:
            problems.append(f"topology: {exc}")

    if problems:
        raise ConfigError(problems)

    resolved = {
        **{key: value for key, value in top.items() if value is not None},
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
        "solver": solver_cfg,
        "initial_states": {str(i): initial_states[i].tolist() for i in agents},
    }
    if mask is not None:
        resolved["error_mask"] = mask
    if leader_echo is not None:
        resolved["leader"] = leader_echo
    if mpc is not None:
        resolved["mpc"] = mpc_cfg
    else:
        resolved["horizon"] = horizon

    return ScenarioSpec(
        **top, error_mask=mask, topology=topology, models=models,
        leader_model=leader_model, leader_x0=leader_x0, cost=cost,
        solver=solver, mpc=mpc, horizon=horizon,
        initial_states=initial_states, resolved=resolved,
    )


def load_preset(name: str, overrides=None) -> ScenarioSpec:
    return load_scenario(preset_path(name), overrides)


# ---------------------------------------------------------------------------
# Execution and artifacts
# ---------------------------------------------------------------------------

def new_session(spec: ScenarioSpec) -> Session:
    """The spec's ``Session``; a finite-horizon spec's has one window of its horizon."""
    return Session(spec.topology, spec.models, spec.cost, spec.solver,
                   spec.mpc or MpcConfig(N_p=spec.horizon, T=1), spec.initial_states,
                   leader_model=spec.leader_model, leader_x0=spec.leader_x0,
                   seed=spec.seed, error_mask=spec.error_mask)


def run_scenario(spec: ScenarioSpec):
    """Run the scenario; returns RunResult (MPC) or FiniteHorizonResult (one-shot)."""
    session = new_session(spec)
    return session.run() if spec.mpc is not None else session._solve_window(one_shot=True)


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
    """Long-format error rows: masked norm plus per-component deviations,
    every time step's from one stacked ``edge_errors`` call."""
    steps, p = states[1].shape
    header = ["t", "pair", "error"] + [f"e{c}" for c in range(p)]
    table = edge_table(spec.topology, p, spec.cost.offsets, spec.error_mask,
                       leader=leader is not None)
    devs, errs = edge_errors(table, states, leader)
    devs, errs = np.abs(devs).tolist(), errs.tolist()
    order = sorted(range(len(table.pairs)), key=table.pairs.__getitem__)
    rows = []
    for t in range(steps):
        for e in order:
            rows.append([str(t), table.pairs[e], _fmt(errs[t][e])]
                        + [_fmt(v) for v in devs[t][e]])
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
