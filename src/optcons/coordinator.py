"""Synchronous round protocol: trajectory exchange, agent updates, and
the receding-horizon closed loop for leaderless and leader-follower runs.

Within a round every agent rolls out its current window controls,
broadcasts the predicted trajectory to its listeners, receives its
neighbors' (and possibly the leader's) predictions, and performs one
accelerated update on its own window.  After a window's first round, long
windows of a model with the all-stages hook roll out by Newton
(``adjoint.newton_rollout``), started from the previous round's
trajectories plus the state change that its banded update predicts, and
relinearized only in the rows whose Newton steps contract slowly.  Rounds
repeat until every agent's control change falls under tolerance; the next
round's rollout is the window's result, whose first controls are applied.
A round's body is: roll out, test both stop rules in one block, and set
the next iterate from ``Session._round_map``'s plain update.

The one-shot finite-horizon algorithm runs the same rounds on a single
window; only the stop rule differs: gradient norms, tested on each
rollout's sweep, instead of the last step norms before the exchange, so
its global costs, one per rollout, and gradient norms end with the
returned iterate's, also at the cap.  ``solve_local`` iterates the same
update on one frozen-neighbor window.

All cross-agent data flows through read-only copies of the round's
broadcasts, taken at a barrier, and every update reads only its round's
copies, so the order in which agents are solved does not change any
result, and agents that share one Model object (a model group) are rolled
out, swept, updated and given their Hessians as one stack.  A window's
round state is each group's windows (K, H, m), rollouts (K, H+1, p) and
baseline step sizes (K,); a group's update reads only those, its cost-term
table and its bundles, and per-agent dicts are built only for the
exchange, the one-shot global cost and the window's result.  Message drops
(for the disturbance experiments) are drawn in ``Session._exchange``,
reproducibly and independent of the solves' order, and a dropped message's
last delivered payload stands in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import adjoint, dynamics as dyn
from .cost import CostSpec, NeighborBundle, global_cost, local_costs
from .errors import ConfigError, NumericError
from .graph import (LEADER, Topology, neighbors, require_spanning_tree,
                    require_strongly_connected)
from .solver import (MSA_ETA0, REG_FLOOR, SolverConfig, LocalProblem, backtrack_step,
                     banded_direction, banded_pays, ocp_direction, regularize, sweep)


@dataclass(frozen=True)
class MpcConfig:
    N_p: int = 8
    T: int = 100
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
    max_errors: np.ndarray
    window_costs: np.ndarray
    rounds: np.ndarray
    converged: np.ndarray


@dataclass
class FiniteHorizonResult:
    """Output of the round loop on one window; in one-shot runs
    ``global_costs`` holds one entry per rollout, the last the returned
    iterate's, and ``grad_norms`` each agent's at the returned controls, and
    in MPC steps both stay empty."""

    controls: dict
    trajectories: dict
    leader_trajectory: np.ndarray | None
    rounds: int
    converged: bool
    grad_norms: np.ndarray
    global_costs: list
    stacks: list = field(default_factory=list, repr=False)  # the dicts' (us, trajs) per group


@dataclass(frozen=True)
class EdgeTable:
    """The pairs whose deviations the consensus error measures, from
    ``edge_table``: the sorted edges (receiver i, sender j), then, with a
    leader, the sorted leader links with sender 0.  ``offsets`` (n+1, p)
    holds every node's offset, row 0 the leader's and zero where none is
    given; ``mask`` the state components that the norms read (None: all)."""

    pairs: tuple
    receivers: np.ndarray
    senders: np.ndarray
    offsets: np.ndarray
    mask: np.ndarray | None


def edge_table(topology: Topology, p: int, offsets: dict | None = None, mask=None,
               leader: bool = False) -> EdgeTable:
    """The ``EdgeTable`` of a topology; leader links only with ``leader``."""
    edges = sorted(topology.edges)
    links = sorted(topology.leader_links) if leader else []
    D = np.zeros((topology.n + 1, p))
    for idx, d in (offsets or {}).items():
        if 0 <= idx <= topology.n:
            D[idx] = d
    return EdgeTable(
        pairs=tuple(f"{i}-{j}" for i, j in edges) + tuple(f"{i}-l" for i in links),
        receivers=np.array([i for i, _ in edges] + links, dtype=np.intp),
        senders=np.array([j for _, j in edges] + [LEADER] * len(links), dtype=np.intp),
        offsets=D, mask=None if mask is None else np.arange(p)[list(mask)])


def edge_errors(table: EdgeTable, states: dict, leader=None) -> tuple[np.ndarray, np.ndarray]:
    """Deviations (..., E, p) and their masked norms (..., E) of the table's
    pairs, from the agents' states (``states[i]`` (p,), or (T, p) for T
    steps at once) and the leader's (None without one): the offset-corrected
    z_i - z_j, z = x - d, and per pair the square root of one dot product,
    bit for bit ``np.linalg.norm`` of the masked vector."""
    agents = [states[i] for i in range(1, len(table.offsets))]
    nodes = [np.zeros_like(agents[0]) if leader is None else leader] + agents
    Z = np.array(nodes, dtype=float).swapaxes(0, -2) - table.offsets
    dev = Z[..., table.receivers, :] - Z[..., table.senders, :]
    return dev, _norms(dev if table.mask is None else dev[..., table.mask])


def _norms(M: np.ndarray) -> np.ndarray:
    """The norms of the vectors on M's last axis, each the square root of one
    dot product."""
    return np.sqrt((M[..., None, :] @ M[..., :, None])[..., 0, 0])


def initial_deviations(topology: Topology, p: int, offsets: dict, states: dict,
                       leader_x0=None, error_mask=None) -> tuple:
    """(table, norms, problems): the ``edge_table`` of a run's first recorded
    errors (leader links with a ``leader_x0``), the masked norms of the
    deviations of the n ``states`` and the leader's x0, and the problem of
    pairs whose norms unmasked are not finite, or none.  The loader and
    ``Session`` both run it once ``input_problems`` passes."""
    table = edge_table(topology, p, offsets, error_mask, leader=leader_x0 is not None)
    with np.errstate(over="ignore", invalid="ignore"):
        dev, norms = edge_errors(table, states, leader_x0)
        finite = np.isfinite(norms if error_mask is None else _norms(dev))
    if finite.all():
        return table, norms, []
    bad = [pair for pair, ok in zip(table.pairs, finite) if not ok]
    return table, norms, [f"initial_states: non-finite deviation norms on pairs {bad}"]


def deviations(states: dict, topology: Topology, offsets: dict | None = None,
               leader_state=None) -> dict:
    """Offset-corrected deviation z_i - z_j, z = x - d, per directed edge
    ("i-j") and, given the leader's state, per leader link ("i-l")."""
    table = edge_table(topology, np.shape(states[1])[-1], offsets,
                       leader=leader_state is not None)
    return dict(zip(table.pairs, edge_errors(table, states, leader_state)[0]))


def consensus_error(states: dict, topology: Topology, offsets: dict | None = None,
                    mask=None, leader_state=None) -> tuple[dict, float]:
    """Norms of the ``deviations``: ({"i-j": error, ..., "i-l": error, ...},
    max over entries); ``mask`` restricts the norm to the given state
    components."""
    table = edge_table(topology, np.shape(states[1])[-1], offsets, mask,
                       leader=leader_state is not None)
    errors = dict(zip(table.pairs, edge_errors(table, states, leader_state)[1].tolist()))
    return errors, (max(errors.values()) if errors else 0.0)


def _named(agents, r, kernel, *args):
    """``kernel(*args)`` on a model group's stack at round r; a NumericError
    naming its failing row is raised again naming that row's agent
    (``agents[row]``) and the round, or as it is when r is None."""
    try:
        return kernel(*args)
    except NumericError as exc:
        if r is None:
            raise
        raise NumericError(f"agent {agents[exc.row]}, round {r}: {exc}") from exc


def _round_update(model, k0, terms, bundles, us, trajs, swept, cfg: SolverConfig, r: int, etas):
    """One update of a model group's windows us (K, H, m), stage t at time
    k0 + t, from their rollouts and ``sweep`` at outer iteration r, ``terms``
    the group's cost-term table and ``bundles`` each row's neighbours;
    returns (new windows, step norms, predicted state change).  ``etas`` (K,)
    holds the baseline's step sizes, updated in place.  A non-finite
    gradient, a bad curvature, or a failed direction or backtracking raises
    NumericError naming agent and round, where the kernels name only the row.

    The baseline backtracks row by row on the whole table: one
    ``local_costs`` call gives every J, and a trial of row a rolls out that
    row alone and costs the table with its window and rollout swapped in.
    The other paths read the ``adjoint.stage_blocks`` of the group-round's
    one ``dyn.second_order_action``.  Where ``banded_pays`` for the window
    size and depth, the rows that ``banded_direction`` certifies get its
    directions; the rest get the dense path's: Hessians, ``regularize`` and
    ``ocp_direction``, on the group's own arrays when no row was certified,
    else on a stack of just those rows.  Where the banded path ran, the
    predicted state change is minus its state responses (zero in the dense
    path's rows), else None."""
    jac, band, lam, g = swept
    finite = np.isfinite(g).all(axis=1)
    if not finite.all():
        raise NumericError(f"agent {terms.agents[np.argmin(finite)]}, round {r}: "
                           f"non-finite gradient")
    if cfg.method == "msa":
        J = local_costs(terms, trajs, us, bundles)
        new, steps = us.copy(), [0.0] * len(us)
        for a, i in enumerate(terms.agents):
            def cost(u):  # row a's trial
                U, X = us.copy(), trajs.copy()
                U[a], X[a] = u, dyn.rollout(model, trajs[a:a + 1, 0], u[None], k0)[0]
                return local_costs(terms, X, U, bundles)[a]
            try:
                new[a], _, etas[a], steps[a] = backtrack_step(cost, us[a], g[a], J[a], etas[a])
            except NumericError as exc:
                raise NumericError(f"agent {i}, round {r}: {exc}") from exc
        return new, steps, None
    K, H, m = us.shape
    d, solved, x = np.zeros((K, H * m)), np.zeros(K, dtype=bool), None
    try:  # a failing kernel's row is one of the unsolved rows
        M = dyn.second_order_action(model, trajs[:, :H], us, k0, lam[:, 1:])
        blocks = adjoint.stage_blocks(terms, M)
        if banded_pays(H * m, r, cfg.L_max):
            d, solved, x = banded_direction(g, blocks, jac, cfg.c, r, cfg.L_max)
        if not solved.all():
            rest = ~solved if solved.any() else slice(None)  # the rows for the dense path
            Hs = adjoint.hessian(blocks[rest], jac[1][rest], band[rest])
            d[rest] = ocp_direction(g[rest], regularize(Hs, REG_FLOOR), cfg.c, r, cfg.L_max)
    except NumericError as exc:
        agent = terms.agents[np.flatnonzero(~solved)[exc.row]]
        raise NumericError(f"agent {agent}, round {r}: {exc}") from exc
    step = None if x is None else -x
    norms = np.sqrt(np.add.reduce(d * d, axis=1))  # np.linalg.norm(d, axis=1)'s own expression
    return us - d.reshape(us.shape), norms.tolist(), step


@dataclass
class SolveResult:
    u: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    history: list = field(default_factory=list)


def solve_local(problem: LocalProblem, u0, cfg: SolverConfig) -> SolveResult:
    """Iterate the round loop's update (a stack of one) on one
    frozen-neighbor window until the gradient norm, tested before each
    update, is under ``cfg.eps``; ``cfg.method`` picks the update,
    ``history`` holds every iterate."""
    u = np.asarray(u0, dtype=float).copy()
    etas = np.array([MSA_ETA0])
    history = [u.reshape(-1).copy()]
    for r in range(cfg.max_outer + 1):
        us, trajs, swept = _named([problem.i], r, problem.sweep, u)
        gnorm = float(np.linalg.norm(swept[-1][0]))
        if gnorm < cfg.eps or r == cfg.max_outer:
            return SolveResult(u, r, gnorm, gnorm < cfg.eps, history=history)
        new, _, _ = _round_update(problem.model, problem.k0, problem.terms, [problem.nb],
                                  us, trajs, swept, cfg, r, etas)
        u = new[0]
        history.append(u.reshape(-1).copy())


def input_problems(topology: Topology, models: dict, p: int | None, spec: CostSpec | None,
                   leader_model=None, leader_x0=None, error_mask=None) -> list[str]:
    """The problems that span a run's inputs, for ``Session`` and the loader:
    the agents' ``models`` and the leader of state dimension p, the leader
    autonomous with an x0 of shape (p,), an error mask of distinct integer
    components in 0..p-1 (a bool is not one) and ``spec.validate``'s; where
    none is found, both go on to ``initial_deviations``.  Checks that need p
    are skipped while it is None; pass a leader and a spec only where they
    exist.

    The loader and ``Session`` each run it, on purpose and without a cache:
    ``Session`` is the public gate that every Python caller passes, and
    ``optcons check`` must refuse what a run would."""
    problems = [f"agent {i}: model state_dim {model.state_dim} != {p}" for i, model in
                sorted(models.items()) if p is not None and model.state_dim != p]
    if leader_model is not None and p is not None and (
            (leader_model.state_dim, leader_model.control_dim) != (p, 0)):
        problems.append(f"leader model must be autonomous (control_dim 0) with "
                        f"state_dim {p}, got {leader_model.name} with "
                        f"{leader_model.state_dim}, {leader_model.control_dim}")
    if leader_x0 is not None and p is not None and np.shape(leader_x0) != (p,):
        problems.append(f"leader x0 has shape {np.shape(leader_x0)}, expected ({p},)")
    mask = [] if error_mask is None else list(error_mask)
    if error_mask is not None and not mask:
        problems.append("error_mask: expected at least one component index, got []")
    integral = [isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in mask]
    odd = [c for c, ok in zip(mask, integral) if not ok]
    if odd:
        problems.append(f"error_mask: components {odd} are not integers")
    mask = [c for c, ok in zip(mask, integral) if ok]
    repeated = sorted({c for c in mask if mask.count(c) > 1})
    if repeated:
        problems.append(f"error_mask: repeated components {repeated}")
    bad = [c for c in mask if p is not None and c not in range(p)]
    if bad:
        problems.append(f"error_mask: components {bad} out of range 0..{p - 1}")
    if spec is None or p is None:
        return problems
    try:
        spec.validate(topology, p, {i: m.control_dim for i, m in models.items()})
    except ConfigError as exc:
        problems += exc.violations
    return problems


class Session:
    """Round loop over a shared topology: receding-horizon steps through
    step()/run(), or one finite-horizon window through run_algorithm1.  The
    loader's checks are its own: the graph's, ``input_problems``, ``initial_deviations``.

    Each round rolls out and solves the agents in ``order`` (the sorted
    agent indices), stacked by model group; since every update reads only
    that round's snapshot, any order gives bit-identical results.
    """

    def __init__(self, topology: Topology, models: dict, spec: CostSpec,
                 solver_cfg: SolverConfig, mpc_cfg: MpcConfig, initial_states: dict,
                 leader_model: dyn.Model | None = None, leader_x0=None,
                 seed: int = 0, error_mask=None):
        self.topology = topology
        self.models = models
        self.spec = spec
        self.cfg = solver_cfg
        self.mpc = mpc_cfg

        self.leader_mode = bool(topology.leader_links)
        if self.leader_mode:
            if leader_model is None or leader_x0 is None:
                raise ConfigError("topology has leader links but no leader model/state")
            require_spanning_tree(topology)
        else:
            if leader_model is not None or leader_x0 is not None:
                raise ConfigError("leader model/state given but topology has no leader links")
            require_strongly_connected(topology)

        agents = set(range(1, topology.n + 1))
        if set(initial_states) != agents or not agents <= set(models):
            raise ConfigError("models and initial states must cover agents 1..n")
        shapes = {np.shape(initial_states[i]) for i in agents}
        if len(shapes) != 1 or len(*shapes) != 1:
            raise ConfigError(f"initial states must be vectors of one length, "
                              f"got shapes {sorted(shapes)}")
        [(self.p,)] = shapes
        problems = input_problems(topology, {i: models[i] for i in agents}, self.p,
                                  spec, leader_model, leader_x0, error_mask)
        if problems:
            raise ConfigError(problems)

        self.x = {i: np.asarray(initial_states[i], dtype=float).copy()
                  for i in range(1, topology.n + 1)}
        self.xl = None if leader_x0 is None else np.asarray(leader_x0, dtype=float).copy()
        self.order = sorted(self.x)
        self.error_table, norms, problems = initial_deviations(
            topology, self.p, spec.offsets, self.x, self.xl, error_mask)
        if problems:
            raise ConfigError(problems)
        # Every (receiver, sender) pair, in the order the drop stream is
        # drawn: receivers ascending, each one's senders ascending, the
        # leader last.
        self.links = [(i, j) for i in self.order for j in
                      neighbors(topology, i) + [LEADER] * (i in topology.leader_links)]
        self.held = {}  # each pair's last delivered payload
        self.leader_model = leader_model
        self.t = 0
        self.last_window = None  # the previous window's result, kept to warm-start
        self.seed = seed

        self.state_hist = {i: [self.x[i].copy()] for i in self.x}
        self.control_hist = {i: [] for i in self.x}
        self.leader_hist = [self.xl.copy()] if self.xl is not None else None
        self.max_errors = [max(norms.tolist(), default=0.0)]
        self.window_costs = []
        self.round_counts = []
        self.window_converged = []

    # -- internal helpers ---------------------------------------------------

    @cached_property
    def rng(self) -> np.random.Generator:
        """The drop stream, ``np.random.default_rng(seed)``, built at its first
        draw: a run without drops never builds it, nor imports numpy.random."""
        return np.random.default_rng(self.seed)

    def _record_errors(self):
        _, norms = edge_errors(self.error_table, self.x, self.xl)
        self.max_errors.append(max(norms.tolist(), default=0.0))

    def _initial_window(self):
        """Each model group's first windows (K, H, m), in ``groups`` order: the
        last window's shifted by a stage, a zero stage last, or zeros."""
        if self.last_window is None:
            return [np.zeros((len(agents), self.mpc.N_p, model.control_dim))
                    for model, agents, _ in self.groups]
        return [np.concatenate([us[:, 1:], np.zeros_like(us[:, :1])], axis=1)
                for us, _ in self.last_window.stacks]

    def _exchange(self, trajs, leader_traj, r):
        """Barrier exchange with optional message dropping; returns each
        agent's ``NeighborBundle``.

        Each broadcast becomes one read-only copy, shared by its receivers.
        With drops, one number per pair of ``links`` is drawn here, in that
        order, so the drops are independent of how the solves are scheduled
        afterwards.  A dropped message falls back to the pair's last
        delivered payload, the same array object (or is delivered anyway
        when nothing was delivered yet).  ``r`` is unused; it stays because
        the benchmark's tracer (perfbench/tracer.py) binds this signature.
        """
        sent = {j: traj.copy() for j, traj in trajs.items()}
        if leader_traj is not None:
            sent[LEADER] = leader_traj.copy()
        for payload in sent.values():
            payload.setflags(write=False)
        drop_p = self.mpc.drop_probability
        dropped = ((self.rng.random(len(self.links)) < drop_p).tolist() if drop_p > 0.0
                   else [False] * len(self.links))
        received = {i: {} for i in self.order}
        for (i, j), drop in zip(self.links, dropped):
            if not (drop and (i, j) in self.held):
                self.held[(i, j)] = sent[j]
            received[i][j] = self.held[(i, j)]
        return {i: NeighborBundle(got, leader=got.pop(LEADER, None))
                for i, got in received.items()}

    def _leader_window(self, last=None):
        """The autonomous leader's predicted trajectory over the current
        window (None without a leader); it depends on no agent's controls,
        so one rollout serves every round of the window.  Given ``last``,
        only the new last stage is stepped, as in ``_rollouts``."""
        if not self.leader_mode:
            return None
        known = None if last is None else last.leader_trajectory[None, 2:]
        return dyn.rollout(self.leader_model, [self.xl],
                           np.zeros((1, self.mpc.N_p, 0)), self.t, known)[0]

    @cached_property
    def groups(self):
        """[(model, agents, terms)]: the agents in ``order`` grouped by model
        object, with their cost-term table (built at the first window)."""
        groups = {}
        for i in self.order:
            groups.setdefault(id(self.models[i]), (self.models[i], []))[1].append(i)
        return [(model, agents, self.spec.group_terms(agents, self.p))
                for model, agents in groups.values()]

    def _by_agent(self, stacks) -> dict:
        """Per-group stacks, in ``groups`` order, as their rows by agent index."""
        return {i: row for (_, agents, _), stack in zip(self.groups, stacks)
                for i, row in zip(agents, stack)}

    def _rollouts(self, us, r=None, guesses=None) -> list:
        """The rollouts of each model group's windows us, in ``groups`` order,
        at round r of the window (None: outside the rounds; see ``_named``).
        At round 0 after a warm-started window, us are its windows shifted by
        a stage: x is its stage 1, so its stages 2..H are stages 1..H-1 bit
        for bit and only the new last stage is stepped.  Given ``guesses``,
        the previous round's (rollouts, L's band from its sweep, predicted
        state change) per group, the groups that ``adjoint.newton_pays`` for
        roll out by ``adjoint.newton_rollout`` from them."""
        last = self.last_window if r == 0 else None
        out = []
        for g, ((model, agents, _), u) in enumerate(zip(self.groups, us)):
            if guesses is not None and adjoint.newton_pays(model, u.shape[1]):
                kernel, args = adjoint.newton_rollout, (model, u, self.t, *guesses[g])
            else:
                known = None if last is None else last.stacks[g][1][:, 2:]
                kernel, args = dyn.rollout, (model, [self.x[i] for i in agents], u, self.t, known)
            out.append(_named(agents, r, kernel, *args))
        return out

    def _round_map(self, sweeps, r: int, etas):
        """Round r's plain update of each model group's ``sweeps`` (its
        ``_round_update`` arguments, then the sweep), ``etas`` its ``msa`` step
        sizes: the new windows, step norms and next Newton rollouts' guesses."""
        new, steps, dxs = zip(*[_round_update(*s, self.cfg, r, e) for s, e in zip(sweeps, etas)])
        return new, steps, [(x, band, dx) for (*_, x, (_, band, _, _)), dx in zip(sweeps, dxs)]

    def _solve_window(self, one_shot: bool = False) -> FiniteHorizonResult:
        """Run rounds (roll out, test, update) until a stop rule fires.

        MPC steps stop, before the exchange, at the rollout after updates
        whose step norms are all under ``cfg.eps``; one-shot runs sweep each
        rollout, record its global cost and stop once every gradient norm is
        under ``cfg.eps`` (a fixed point stops at round zero); both at round
        ``cfg.max_outer``.  The result holds the last rollout, the updates
        applied as ``rounds`` and, one-shot, one global cost per rollout and
        the gradient norms, both ending with the returned iterate's.
        """
        us = self._initial_window()
        leader_traj = self._leader_window(self.last_window)
        msa_etas = [np.full(len(agents), MSA_ETA0) for _, agents, _ in self.groups]
        costs, grad_norms, guesses = [], [], None
        for r in range(self.cfg.max_outer + 1):
            trajs = self._rollouts(us, r, guesses)
            converged = r > 0 and max(map(max, steps)) < self.cfg.eps
            if not one_shot and (converged or r == self.cfg.max_outer):
                break
            bundles = self._exchange(self._by_agent(trajs), leader_traj, r)
            sweeps = [(model, self.t, terms, [bundles[i] for i in agents], u, x)
                      for (model, agents, terms), u, x in zip(self.groups, us, trajs)]
            sweeps = [(*sw, _named(sw[2].agents, r, sweep, *sw)) for sw in sweeps]
            if one_shot:
                costs.append(global_cost([t for *_, t in self.groups], self._by_agent(trajs),
                                         self._by_agent(us), self.topology, leader_traj))
                grad_norms = [float(np.linalg.norm(g)) for *_, (*_, G) in sweeps for g in G]
                converged = max(grad_norms) < self.cfg.eps
                if converged or r == self.cfg.max_outer:
                    break
            plain, steps, guesses = self._round_map(sweeps, r, msa_etas)
            us = plain

        return FiniteHorizonResult(
            controls=self._by_agent(us), trajectories=self._by_agent(trajs),
            leader_trajectory=leader_traj, rounds=r, converged=converged,
            grad_norms=np.array(grad_norms), global_costs=costs,
            stacks=list(zip(us, trajs)),
        )

    # -- public API ---------------------------------------------------------

    def local_problems(self) -> dict:
        """{i: (LocalProblem, window (H, m))}: the windows the next step starts
        from, rolled out afresh, every neighbour's (and linked leader's)
        rollout delivered; draws no drop and changes no session state."""
        us = self._initial_window()
        sent = {**self._by_agent(self._rollouts(us)), LEADER: self._leader_window()}
        got = {i: ({}, u) for i, u in sorted(self._by_agent(us).items())}
        for i, j in self.links:
            got[i][0][j] = sent[j]
        return {i: (LocalProblem(i, self.models[i], self.x[i].copy(),
                                 NeighborBundle(nb, leader=nb.pop(LEADER, None)), self.spec,
                                 self.t), u) for i, (nb, u) in got.items()}

    def step(self) -> dict:
        """Advance one closed-loop step; returns a per-window summary."""
        t = self.t
        window = self._solve_window()
        cost_now = global_cost([terms for *_, terms in self.groups], window.trajectories,
                               window.controls, self.topology, window.leader_trajectory)

        for (model, agents, _), (us, _) in zip(self.groups, window.stacks):
            applied = us[:, 0].copy()  # rows of their own, not views pinning the window
            self.x.update(zip(agents, dyn.step(model, [self.x[i] for i in agents], applied, t)))
            for i, a in zip(agents, applied):
                self.control_hist[i].append(a)
                self.state_hist[i].append(self.x[i].copy())
        if self.xl is not None:
            self.xl = dyn.step(self.leader_model, self.xl[None], np.zeros((1, 0)), t)[0]
            self.leader_hist.append(self.xl.copy())

        self.last_window = window if self.mpc.warm_start else None
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
            controls={i: np.array(h).reshape(len(h), self.models[i].control_dim)
                      for i, h in self.control_hist.items()},
            leader_states=None if self.leader_hist is None else np.array(self.leader_hist),
            max_errors=np.array(self.max_errors),
            window_costs=np.array(self.window_costs),
            rounds=np.array(self.round_counts, dtype=int),
            converged=np.array(self.window_converged, dtype=bool),
        )


def run_algorithm1(topology, models, spec, solver_cfg, horizon, initial_states,
                   leader_model=None, leader_x0=None) -> FiniteHorizonResult:
    """One-shot finite-horizon consensus: the session's rounds on a single
    window of length ``horizon``, until every agent's gradient norm is under
    tolerance (a consensus fixed point stops at round zero)."""
    session = Session(topology, models, spec, solver_cfg,
                      MpcConfig(N_p=horizon, T=1), initial_states,
                      leader_model=leader_model, leader_x0=leader_x0)
    return session._solve_window(one_shot=True)
