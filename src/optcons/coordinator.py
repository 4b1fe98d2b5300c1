"""Synchronous round protocol: trajectory exchange, per-agent updates, and
the receding-horizon closed loop for leaderless and leader-follower runs.

Within a round every agent rolls out its current window controls,
broadcasts the predicted trajectory to its listeners, receives its
neighbors' (and possibly the leader's) predictions, and performs one
accelerated update on its own window.  Rounds repeat until every agent's
control change falls under tolerance, then the first control of each
window is applied and the horizon shifts.

The one-shot finite-horizon algorithm runs the same rounds on a single
window; only the stop rule differs (gradient norms tested before the
round's updates are applied, instead of step norms after).  ``solve_local``
iterates the same per-agent update on one frozen-neighbor window.

All cross-agent data flows through immutable RoundMessage snapshots
collected at a barrier, and every update reads only its round's snapshot,
so the order in which agents are solved does not change any result.
Message-drop injection (for the disturbance experiments) draws its
Bernoulli stream in a fixed receiver/sender order from a dedicated
generator, keeping runs reproducible and schedule-independent; a dropped
message makes the receiver reuse the sender's last delivered trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from .cost import CostSpec, NeighborBundle, global_cost
from .errors import ConfigError
from .graph import (LEADER, Topology, neighbors, require_spanning_tree,
                    require_strongly_connected)
from .solver import (SolverConfig, LocalProblem, backtrack_step,
                     ocp_direction, regularize)


@dataclass(frozen=True)
class RoundMessage:
    """One trajectory broadcast: immutable once emitted."""

    sender: int
    r: int
    t_k: int
    payload: np.ndarray

    def __post_init__(self):
        self.payload.setflags(write=False)


@dataclass(frozen=True)
class MpcConfig:
    N_p: int
    T: int
    warm_start: bool = True
    drop_probability: float = 0.0

    def __post_init__(self):
        if self.N_p < 1:
            raise ValueError(f"prediction horizon must be >= 1, got {self.N_p}")
        if self.T < 1:
            raise ValueError(f"closed-loop length must be >= 1, got {self.T}")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError(
                f"drop probability must lie in [0, 1), got {self.drop_probability}")


@dataclass
class RunResult:
    """Closed-loop history of one receding-horizon run."""

    states: dict
    controls: dict
    leader_states: np.ndarray | None
    edge_errors: list
    max_errors: np.ndarray
    window_costs: np.ndarray
    rounds: np.ndarray
    converged: np.ndarray


@dataclass
class FiniteHorizonResult:
    """Output of the round loop on one window; ``global_costs`` holds one
    entry per round in one-shot runs and stays empty in MPC steps."""

    controls: dict
    trajectories: dict
    leader_trajectory: np.ndarray | None
    rounds: int
    converged: bool
    grad_norms: np.ndarray
    global_costs: list


def consensus_error(states: dict, topology: Topology, offsets: dict | None = None,
                    mask=None, leader_state=None) -> tuple[dict, float]:
    """Offset-corrected disagreement per directed edge (and per leader link).

    Returns ({"i-j": error, ..., "i-l": error, ...}, max over entries);
    ``mask`` restricts the norm to the given state components.
    """
    offsets = offsets or {}

    def shifted(idx, x):
        d = offsets.get(idx)
        z = np.asarray(x, dtype=float) if d is None else np.asarray(x, dtype=float) - d
        return z if mask is None else z[list(mask)]

    errors = {}
    for (i, j) in sorted(topology.edges):
        errors[f"{i}-{j}"] = float(np.linalg.norm(shifted(i, states[i]) - shifted(j, states[j])))
    if leader_state is not None:
        zl = shifted(LEADER, leader_state)
        for i in sorted(topology.leader_links):
            errors[f"{i}-l"] = float(np.linalg.norm(shifted(i, states[i]) - zl))
    return errors, (max(errors.values()) if errors else 0.0)


def _agent_round_update(problem: LocalProblem, u, traj, cfg: SolverConfig, r: int,
                        eta: float):
    """One update of agent i's window u from its rollout ``traj``, at outer
    iteration r with the baseline's current step size eta (``problem``
    holds i, its model, x0, neighbor bundle, cost spec and k0); returns
    (u_new, step_norm, grad_norm, eta), a zero step when the baseline's
    backtracking collapses."""
    _, jac, lam, g = problem.sweep(u, traj)
    gnorm = float(np.linalg.norm(g))
    if cfg.method == "msa":
        taken = backtrack_step(problem.cost, u, g, problem.cost(u, traj), eta)
        if taken is None:
            return u, 0.0, gnorm, eta
        u_new, _, eta, step = taken
        return u_new, step, gnorm, eta
    Hmat = regularize(problem.hessian(u, traj, jac, lam), cfg.reg_floor)
    d = ocp_direction(g, Hmat, cfg.c, r, cfg.L_max)
    return u - d.reshape(u.shape), float(np.linalg.norm(d)), gnorm, eta


@dataclass
class SolveResult:
    u: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    stagnated: bool = False
    history: list = field(default_factory=list)


def solve_local(problem: LocalProblem, u0, cfg: SolverConfig) -> SolveResult:
    """Iterate the round loop's update on one frozen-neighbor window until
    the gradient norm, tested before each update, is under ``eps_grad``;
    ``cfg.method`` picks the update, ``history`` holds every iterate."""
    u = np.asarray(u0, dtype=float).copy()
    eta = cfg.msa_eta0
    history = [u.reshape(-1).copy()]
    for r in range(cfg.max_outer + 1):
        u_new, step, gnorm, eta = _agent_round_update(problem, u, problem.rollout(u),
                                                      cfg, r, eta)
        if gnorm < cfg.eps_grad or r == cfg.max_outer:
            return SolveResult(u, r, gnorm, gnorm < cfg.eps_grad, history=history)
        if step == 0.0:
            return SolveResult(u, r, gnorm, False, stagnated=True, history=history)
        u = u_new
        history.append(u.reshape(-1).copy())


class Session:
    """Round loop over a shared topology: receding-horizon steps through
    step()/run(), or one finite-horizon window through run_algorithm1.

    Each round rolls out and solves the agents in ``order`` (the sorted
    agent indices); since every update reads only that round's snapshot,
    any order gives bit-identical results.
    """

    def __init__(self, topology: Topology, models: dict, spec: CostSpec,
                 solver_cfg: SolverConfig, mpc_cfg: MpcConfig, initial_states: dict,
                 leader_model: dyn.Model | None = None, leader_x0=None,
                 seed: int = 0, error_mask=None, record_messages: bool = False):
        self.topology = topology
        self.models = models
        self.spec = spec
        self.cfg = solver_cfg
        self.mpc = mpc_cfg
        self.error_mask = error_mask
        self.record_messages = record_messages
        self.message_log = []

        self.leader_mode = bool(topology.leader_links)
        if self.leader_mode:
            if leader_model is None or leader_x0 is None:
                raise ConfigError("topology has leader links but no leader model/state")
            require_spanning_tree(topology)
        else:
            require_strongly_connected(topology)

        agents = set(range(1, topology.n + 1))
        if set(initial_states) != agents or not agents <= set(models):
            raise ConfigError("models and initial states must cover agents 1..n")
        dims = {np.asarray(initial_states[i]).shape for i in agents}
        if len(dims) != 1:
            raise ConfigError(f"agents must share one state dimension, got {dims}")
        self.p = dims.pop()[0]
        control_dims = {i: models[i].control_dim for i in agents}
        spec.validate(topology, self.p, control_dims)

        self.x = {i: np.asarray(initial_states[i], dtype=float).copy()
                  for i in range(1, topology.n + 1)}
        self.order = sorted(self.x)
        self.leader_model = leader_model if self.leader_mode else None
        self.xl = (np.asarray(leader_x0, dtype=float).copy()
                   if self.leader_mode else None)
        self.t = 0
        self.u_prev = None
        self.stale = {}
        self.rng = np.random.default_rng(seed)

        self.state_hist = {i: [self.x[i].copy()] for i in self.x}
        self.control_hist = {i: [] for i in self.x}
        self.leader_hist = [self.xl.copy()] if self.xl is not None else None
        self.edge_errors = []
        self.max_errors = []
        self.window_costs = []
        self.round_counts = []
        self.window_converged = []
        self._record_errors()

    # -- internal helpers ---------------------------------------------------

    def _record_errors(self):
        errs, mx = consensus_error(self.x, self.topology, self.spec.offsets,
                                   mask=self.error_mask, leader_state=self.xl)
        self.edge_errors.append(errs)
        self.max_errors.append(mx)

    def _initial_window(self):
        H = self.mpc.N_p
        if self.mpc.warm_start and self.u_prev is not None:
            out = {}
            for i, u in self.u_prev.items():
                shifted = np.zeros_like(u)
                shifted[:-1] = u[1:]
                out[i] = shifted
            return out
        return {i: np.zeros((H, self.models[i].control_dim)) for i in self.x}

    def _exchange(self, trajs, leader_traj, r):
        """Barrier exchange with optional message dropping; returns bundles.

        Broadcasts are snapshotted into immutable RoundMessages first; drop
        decisions are drawn here, in fixed receiver/sender order, so they
        are independent of how the solves are scheduled afterwards.  A
        dropped message falls back to the sender's last delivered one (or
        is delivered anyway when nothing stale exists yet).
        """
        msgs = {j: RoundMessage(j, r, self.t, trajs[j].copy()) for j in trajs}
        if leader_traj is not None:
            msgs[LEADER] = RoundMessage(LEADER, r, self.t, leader_traj.copy())
        drop_p = self.mpc.drop_probability

        def deliver(i, j):
            dropped = drop_p > 0.0 and self.rng.random() < drop_p
            if dropped and (i, j) in self.stale:
                msg = self.stale[(i, j)]
            else:
                msg = msgs[j]
                self.stale[(i, j)] = msg
            if self.record_messages:
                self.message_log.append((self.t, r, i, msg.sender))
            return msg.payload

        bundles = {}
        for i in range(1, self.topology.n + 1):
            received = {j: deliver(i, j) for j in neighbors(self.topology, i)}
            leader_payload = None
            if self.leader_mode and i in self.topology.leader_links:
                leader_payload = deliver(i, LEADER)
            bundles[i] = NeighborBundle(received, leader=leader_payload)
        return bundles

    def _leader_window(self):
        """The autonomous leader's predicted trajectory over the current
        window (None without a leader); it depends on no agent's controls,
        so one rollout serves every round of the window."""
        if not self.leader_mode:
            return None
        return dyn.rollout(self.leader_model, self.xl,
                           np.zeros((self.mpc.N_p, 0)), self.t)

    def _broadcast(self, u, leader_traj, r):
        """Roll out every agent's window u and exchange the rollouts with
        the window's leader trajectory; returns (trajectories, bundles)."""
        trajs = {i: dyn.rollout(self.models[i], self.x[i], u[i], self.t)
                 for i in self.order}
        return trajs, self._exchange(trajs, leader_traj, r)

    def _solve_window(self, one_shot: bool = False) -> FiniteHorizonResult:
        """Run rounds on the current window until the stop rule fires.

        MPC steps stop once every agent's step norm after the update is
        under ``eps_step`` and count that round.  One-shot runs record the
        global cost of each round's rollout and stop once every gradient
        norm is under ``eps_grad``, before that round's updates are applied,
        so a consensus fixed point stops at round zero.
        """
        t = self.t
        u = self._initial_window()
        leader_traj = self._leader_window()
        msa_etas = {i: self.cfg.msa_eta0 for i in self.x}
        costs = []
        converged = False
        rounds = self.cfg.max_outer
        for r in range(self.cfg.max_outer):
            trajs, bundles = self._broadcast(u, leader_traj, r)
            if one_shot:
                costs.append(global_cost(trajs, u, self.spec, self.topology,
                                         leader_traj=leader_traj))
            updates = {i: _agent_round_update(
                LocalProblem(i, self.models[i], self.x[i], bundles[i], self.spec, t),
                u[i], trajs[i], self.cfg, r, msa_etas[i]) for i in self.order}
            grad_norms = [updates[i][2] for i in sorted(updates)]
            if one_shot and max(grad_norms) < self.cfg.eps_grad:
                converged, rounds = True, r
                break
            steps = []
            for i in sorted(updates):
                u[i], step, _, msa_etas[i] = updates[i]
                steps.append(step)
            if not one_shot and max(steps) < self.cfg.eps_step:
                converged, rounds = True, r + 1
                break

        return FiniteHorizonResult(
            controls=u,
            trajectories={i: dyn.rollout(self.models[i], self.x[i], u[i], t)
                          for i in sorted(self.x)},
            leader_trajectory=leader_traj, rounds=rounds, converged=converged,
            grad_norms=np.array(grad_norms), global_costs=costs,
        )

    # -- public API ---------------------------------------------------------

    def step(self) -> dict:
        """Advance one closed-loop step; returns a per-window summary."""
        t = self.t
        window = self._solve_window()
        u = window.controls
        cost_now = global_cost(window.trajectories, u, self.spec, self.topology,
                               leader_traj=window.leader_trajectory)

        for i in sorted(self.x):
            applied = u[i][0]
            self.x[i] = dyn.step(self.models[i], self.x[i], applied, t)
            self.control_hist[i].append(applied.copy())
            self.state_hist[i].append(self.x[i].copy())
        if self.xl is not None:
            self.xl = dyn.step(self.leader_model, self.xl, np.zeros(0), t)
            self.leader_hist.append(self.xl.copy())

        self.u_prev = u
        self.t += 1
        self._record_errors()
        self.window_costs.append(cost_now)
        self.round_counts.append(window.rounds)
        self.window_converged.append(window.converged)
        return {"t": t, "rounds": window.rounds, "converged": window.converged,
                "window_cost": cost_now, "max_error": self.max_errors[-1]}

    def run(self, T: int | None = None) -> RunResult:
        T = self.mpc.T if T is None else T
        while self.t < T:
            self.step()
        return self.result()

    def result(self) -> RunResult:
        return RunResult(
            states={i: np.array(h) for i, h in self.state_hist.items()},
            controls={i: np.array(h).reshape(len(h), -1)
                      for i, h in self.control_hist.items()},
            leader_states=None if self.leader_hist is None else np.array(self.leader_hist),
            edge_errors=list(self.edge_errors),
            max_errors=np.array(self.max_errors),
            window_costs=np.array(self.window_costs),
            rounds=np.array(self.round_counts, dtype=int),
            converged=np.array(self.window_converged, dtype=bool),
        )


def run_mpc_leaderless(topology, models, spec, solver_cfg, mpc_cfg,
                       initial_states, seed=0, error_mask=None) -> RunResult:
    """Receding-horizon leaderless consensus (requires strong connectivity)."""
    session = Session(topology, models, spec, solver_cfg, mpc_cfg,
                      initial_states, seed=seed, error_mask=error_mask)
    return session.run()


def run_mpc_leader_follower(topology, models, leader_model, spec, solver_cfg,
                            mpc_cfg, initial_states, leader_x0, seed=0,
                            error_mask=None) -> RunResult:
    """Receding-horizon tracking of an autonomous leader (spanning tree from
    the leader required); formation offsets ride in the cost spec."""
    session = Session(topology, models, spec, solver_cfg, mpc_cfg,
                      initial_states, leader_model=leader_model,
                      leader_x0=leader_x0, seed=seed, error_mask=error_mask)
    return session.run()


def run_algorithm1(topology, models, spec, solver_cfg, horizon, initial_states,
                   leader_model=None, leader_x0=None) -> FiniteHorizonResult:
    """One-shot finite-horizon consensus: the session's rounds on a single
    window of length ``horizon``, until every agent's gradient norm is under
    tolerance (a consensus fixed point stops at round zero)."""
    session = Session(topology, models, spec, solver_cfg,
                      MpcConfig(N_p=horizon, T=1), initial_states,
                      leader_model=leader_model, leader_x0=leader_x0)
    return session._solve_window(one_shot=True)
