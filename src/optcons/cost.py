"""Per-agent local consensus cost and the global monitoring cost.

The implemented cost is one half of the raw quadratic forms, so that the
costate and stationarity formulas used by the adjoint module hold without
factors of two (R u and Q (x_i - x_j) are exactly the derivatives of the
halved forms).  Minimizers are unaffected.

Agent ``i``'s *local* cost contains only the terms in which the outer sum
index equals ``i`` (its own edges, the leader link as an edge to neighbour
0, and its control penalty), with neighbor trajectories frozen; the global
cost is the sum of the local slices, each directed edge counted once.
``CostSpec.group_terms`` tabulates a stack of agents' terms once, as
stacked weights and offsets, and ``local_errors`` forms all of a stack's
errors from it in one expression, for the costates and both costs (the
baseline's trials included: no table is cut by row).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .graph import LEADER, Topology


def _as_weight(value, dim: int) -> np.ndarray:
    """Scalar c -> c*I, else a (dim, dim) matrix."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.shape != (dim, dim):
        raise ValueError(f"weight has shape {arr.shape}, expected ({dim}, {dim})")
    return arr


# eigvalsh's LAPACK routine (dsyevd) scales a matrix whose largest |entry|
# lies outside [2^-485, 2^485], which rounds its eigenvalues, and sorts them
# by insertion (keeping equal ones, 0.0 and -0.0, in order) up to 21 of them.
_UNSCALED = (2.0 ** -485, 2.0 ** 485)


def _diagonal_lows(S: np.ndarray) -> np.ndarray | None:
    """``np.linalg.eigvalsh(S)[:, 0]`` bit for bit, from the diagonals, for a
    stack S (k, n, n) of finite weights with no nonzero off-diagonal entry,
    n <= 21 and every nonzero entry's size within ``_UNSCALED``; else None.

    Such a matrix is its own tridiagonal form, split into 1 x 1 blocks, so
    its eigenvalues are its diagonal entries unchanged, and the smallest
    comes first from a stable sort, as from eigvalsh's.  Its drift is 0 and
    symmetrizing it leaves its entries' values as they are."""
    k, n = S.shape[:2]
    diag = S.reshape(k, n * n)[:, ::n + 1]
    nonzero = np.count_nonzero(diag)
    if not 0 < n <= 21 or np.count_nonzero(S) != nonzero:
        return None
    size = abs(diag)
    if np.count_nonzero((size >= _UNSCALED[0]) & (size <= _UNSCALED[1])) != nonzero:
        return None
    return np.sort(diag, axis=1, kind="stable")[:, 0]


@dataclass
class CostSpec:
    """Weight matrices and formation offsets for one scenario.

    Q, D are keyed by directed edge (i, j); R by agent; W, E by
    leader-linked agent, as the leader's Q and D; offsets by agent (key
    0 = leader offset).  Missing D/E/offsets entries default to zero.
    """

    Q: dict = field(default_factory=dict)
    R: dict = field(default_factory=dict)
    D: dict = field(default_factory=dict)
    W: dict = field(default_factory=dict)
    E: dict = field(default_factory=dict)
    offsets: dict = field(default_factory=dict)

    @classmethod
    def uniform(cls, topology: Topology, p: int, q, r, d=0.0, w=0.0, e=0.0,
                control_dims=None, offsets=None) -> "CostSpec":
        """Same weight on every edge / agent, scalars meaning c*I."""
        control_dims = control_dims or {}
        Q = {edge: _as_weight(q, p) for edge in topology.edges}
        D = {edge: _as_weight(d, p) for edge in topology.edges}
        R = {i: _as_weight(r, control_dims.get(i, 1)) for i in range(1, topology.n + 1)}
        W = {i: _as_weight(w, p) for i in topology.leader_links}
        E = {i: _as_weight(e, p) for i in topology.leader_links}
        return cls(Q=Q, R=R, D=D, W=W, E=E, offsets=dict(offsets or {}))

    def offset(self, i: int, p: int) -> np.ndarray:
        d = self.offsets.get(i)
        return np.zeros(p) if d is None else np.asarray(d, dtype=float)

    def terms(self, i: int, p: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Agent i's error terms (j, stage weight, terminal weight): the
        sorted (j, Q_ij, D_ij) of every edge leaving i that carries weight,
        then, last, (LEADER, W_i, E_i) when i has leader weights.

        The leader is neighbour 0 with W and E as its Q and D.  A term
        present in only one of its two tables gets a zero matrix for the
        other, so terminal-only (or stage-only) couplings still count.
        """
        js = {j for (a, j) in self.Q if a == i} | {j for (a, j) in self.D if a == i}
        zero = np.zeros((p, p))
        out = [(j, self.Q.get((i, j), zero), self.D.get((i, j), zero))
               for j in sorted(js)]
        if i in self.W or i in self.E:
            out.append((LEADER, self.W.get(i, zero), self.E.get(i, zero)))
        return out

    def group_terms(self, agents, p: int) -> GroupTerms:
        """The error-term table of a stack of agents (rows in ``agents``
        order, each row's terms in ``terms`` order); one ``terms`` walk per
        agent."""
        senders, rows, Q, D, d_i, d_j = [], [], [], [], [], []
        for a, i in enumerate(agents):
            terms = self.terms(i, p)
            senders.append(tuple(j for j, _, _ in terms))
            for j, Q_ij, D_ij in terms:
                rows.append(a)
                Q.append(Q_ij)
                D.append(D_ij)
                d_i.append(self.offset(i, p))
                d_j.append(self.offset(j, p))
        T = len(rows)
        rows = np.array(rows, dtype=np.intp)
        Q, D = (np.array(M, dtype=float).reshape(T, p, p) for M in (Q, D))
        C_stage, C_term = np.zeros((2, len(senders), p, p))
        np.add.at(C_stage, rows, Q)
        np.add.at(C_term, rows, D)
        R = np.array([self.R[i] for i in agents])
        curvature = np.zeros((len(agents), p + R.shape[-1], p + R.shape[-1]))
        curvature[:, :p, :p], curvature[:, p:, p:] = C_stage, R
        return GroupTerms(
            agents=tuple(agents), senders=tuple(senders), rows=rows, Q=Q, D=D,
            d_i=np.array(d_i, dtype=float).reshape(T, 1, p),
            d_j=np.array(d_j, dtype=float).reshape(T, 1, p),
            C_stage=C_stage, C_term=C_term, R=R, curvature=curvature)

    def validate(self, topology: Topology, state_dim: int,
                 control_dims: dict[int, int]) -> None:
        """Check shapes, PSD/PD-ness, symmetry and cross references; symmetrize in place.

        Q, D, W and E must be (state_dim, state_dim), and R is checked for
        the agents that ``control_dims`` maps to their control dimension.  A
        table's entries are converted by one ``np.array`` call when they
        share a shape, and the weights of one strictness and size are
        checked as one stack, with one ``eigvalsh``.  A semidefinite weight
        read below 0 by rounding is stored as V max(L, 0) V^T, plus that
        bound on its diagonal if still so.
        """
        found, groups = {}, {}  # (name, key) -> its problems; (strict, size) -> parts
        for name, table, strict in (("Q", self.Q, False), ("D", self.D, False),
                                    ("R", self.R, True), ("W", self.W, False),
                                    ("E", self.E, False)):
            keys = [i for i in sorted(control_dims) if i in table] if strict else list(table)
            try:
                stack = np.array([table[key] for key in keys], dtype=float)
            except ValueError:  # entries of different shapes: converted one by one
                stack = [np.array(table[key], dtype=float) for key in keys]
            else:
                size = stack.shape[-1]
                if stack.shape[1:] == (size, size) and (strict or size == state_dim):
                    groups.setdefault((strict, size), []).append((name, table, keys, stack))
                    continue
            for key, M in zip(keys, stack):
                want = control_dims[key] if strict else state_dim
                if M.ndim == 2 and M.shape[0] != M.shape[1]:
                    found[name, key] = [f"{name}[{key}] is not square"]
                elif M.ndim != 2 or M.shape[0] != want and not strict:
                    found[name, key] = [f"{name}[{key}] has shape {M.shape}, "
                                        f"expected ({want}, {want})"]
                else:
                    groups.setdefault((strict, len(M)), []).append((name, table, [key], M[None]))
        for (strict, size), parts in groups.items():
            S = np.concatenate([stack for *_, stack in parts]) if len(parts) > 1 else parts[0][3]
            finite = np.isfinite(S).all(axis=(1, 2))
            if not finite.all():  # named, and kept out of the pass below and as given
                entries = [(name, table, key) for name, table, keys, _ in parts for key in keys]
                for (name, _, key), ok in zip(entries, finite.tolist()):
                    if not ok:
                        found[name, key] = [f"{name}[{key}] is not finite"]
                parts = [(name, table, [key], None)
                         for (name, table, key), ok in zip(entries, finite.tolist()) if ok]
                S = S[finite]
            lows = _diagonal_lows(S)
            drifts = (np.zeros(len(S)) if lows is not None else
                      np.abs(S - S.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0))
            skew = drifts > 0.0  # the rest keep their bits: 2 S would overflow above 9e307
            S[skew] = 0.5 * (S[skew] + S[skew].transpose(0, 2, 1))
            if lows is None:
                lows = np.linalg.eigvalsh(S)[:, 0] if size else np.full(len(S), np.inf)
            flagged = np.flatnonzero((drifts > 1e-9) | (lows <= 0.0 if strict else lows < 0.0))
            for k in flagged.tolist():
                name, key = [(name, key) for name, _, keys, _ in parts for key in keys][k]
                M, drift, lo, problems = S[k], drifts[k], lows[k], []
                # eigvalsh's rounding: a few dim eps max|M_ij| below 0 is semidefinite.
                tol = 0.0 if lo >= 0.0 else 4 * size * np.finfo(float).eps * abs(M).max()
                if drift > 1e-9:
                    problems.append(f"{name}[{key}] is asymmetric (max drift {drift:.2e})")
                if lo <= 0.0 if strict else lo < -tol:
                    kind = "definite" if strict else "semidefinite"
                    problems.append(f"{name}[{key}] must be positive {kind} "
                                    f"(min eigenvalue {lo:.2e})")
                elif lo < 0.0:  # no cost may go negative along this eigenvalue
                    w, V = np.linalg.eigh(M)
                    M = (V * np.maximum(w, 0.0)) @ V.T
                    M = 0.5 * (M + M.T)
                    # Loaded again, as from the echo, M must pass unchanged.
                    if np.linalg.eigvalsh(M)[0] < 0.0:
                        M = M + tol * np.eye(size)
                    S[k] = M
                if problems:
                    found[name, key] = problems
            rows = iter(S)
            for _, table, keys, _ in parts:  # zip stops on keys, leaving the next part's rows
                table.update(zip(keys, rows))
        problems = []
        for name, table in (("Q", self.Q), ("D", self.D)):
            for edge in table:
                if tuple(edge) not in topology.edges:
                    problems.append(f"{name} references non-edge {tuple(edge)}")
                problems += found.get((name, edge), ())
        for i in sorted(control_dims):
            if i not in self.R:
                problems.append(f"R missing for agent {i}")
                continue
            problems += found.get(("R", i), ())
            shape, want = np.shape(self.R[i]), control_dims[i]
            if len(shape) == 2 and shape != (want, want):
                problems.append(f"R[{i}] has shape {shape}, agent has m={want}")
        for name, table in (("W", self.W), ("E", self.E)):
            for i in table:
                if i not in topology.leader_links:
                    problems.append(f"{name}[{i}] given but agent {i} has no leader link")
                problems += found.get((name, i), ())
        for i, d in self.offsets.items():
            if i not in range(topology.n + 1):
                problems.append(f"offset[{i}] names no agent 1..{topology.n} or leader 0")
            if np.shape(d) != (state_dim,):
                problems.append(f"offset[{i}] has shape {np.shape(d)}, "
                                f"expected ({state_dim},)")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class GroupTerms:
    """The cost terms of a stack of K agents, from ``CostSpec.group_terms``.

    Row a is agent ``agents[a]``, and ``senders[a]`` lists its terms'
    senders.  Term k couples row ``rows[k]`` to its sender, with weights
    Q[k], D[k] (T, p, p) and the two ends' offsets d_i[k], d_j[k] (T, 1, p);
    terms run row by row, each row's in ``CostSpec.terms`` order.  C_stage,
    C_term (K, p, p) are each row's state curvatures, its Q and D summed in
    term order, R (K, m, m) its control weights, and ``curvature`` (K, p+m,
    p+m) [[C_stage, 0], [0, R]], the part of the stage blocks that is fixed."""

    agents: tuple
    senders: tuple
    rows: np.ndarray
    Q: np.ndarray
    D: np.ndarray
    d_i: np.ndarray
    d_j: np.ndarray
    C_stage: np.ndarray
    C_term: np.ndarray
    R: np.ndarray
    curvature: np.ndarray


@dataclass(frozen=True)
class NeighborBundle:
    """Frozen neighbor (and optionally leader) trajectories for one window.

    All trajectories share one horizon and one start index; the ownership
    of the start index lives with the coordinator.
    """

    trajectories: dict
    leader: np.ndarray | None = None


def local_errors(terms: GroupTerms, trajs, us, bundles) -> np.ndarray:
    """A stack's errors against its frozen neighbours, (T, H+1, p), one per
    term of ``terms``: e = (x_i - d_i) - (x_j - d_j) over the H+1 stages,
    x_i the term's row of ``trajs`` (K, H+1, p), x_j sender j's trajectory
    in that row's bundle (``nb.leader`` for j = LEADER), d the offsets.
    Raises ValueError when a horizon differs from the windows us (K, H, m)
    or a bundle lacks a trajectory that a term needs.
    """
    H = us.shape[1]
    if trajs.shape[1] != H + 1:
        raise ValueError(f"agent {terms.agents[0]}: trajectory has {trajs.shape[1]} "
                         f"rows, expected H+1={H + 1}")
    payloads = []
    for i, nb, senders in zip(terms.agents, bundles, terms.senders, strict=True):
        for j in senders:
            x_j = nb.leader if j == LEADER else nb.trajectories.get(j)
            if x_j is None:
                raise ValueError(f"agent {i} has leader weights but no leader trajectory"
                                 if j == LEADER else
                                 f"agent {i}: bundle is missing neighbor {j}")
            if len(x_j) != H + 1:
                raise ValueError(f"agent {i}: neighbor horizon {len(x_j) - 1} "
                                 f"!= control horizon {H}")
            payloads.append(x_j)
    X_j = np.array(payloads, dtype=float).reshape(len(terms.rows), H + 1, trajs.shape[2])
    return (trajs[terms.rows] - terms.d_i) - (X_j - terms.d_j)


def _halved_forms(terms: GroupTerms, E, Q, D, R, us) -> list:
    """Each row's halved stage, terminal and control forms of errors E and
    windows us with weights Q, D and R: one stacked product per kind, a
    row's terms added in term order."""
    H = us.shape[1]
    stage = np.einsum("ktp,kpq,ktq->k", E[:, :H], Q, E[:, :H]).tolist()
    final = ((E[:, H, None, :] @ D) @ E[:, H, :, None])[:, 0, 0].tolist()
    control = np.einsum("ktp,kpq,ktq->k", us, R, us).tolist()
    totals = [0.0] * len(terms.agents)
    for a, s, f in zip(terms.rows.tolist(), stage, final):
        totals[a] += s
        totals[a] += f
    return [0.5 * (total + c) for total, c in zip(totals, control)]


def local_costs(terms: GroupTerms, trajs, us, bundles) -> list:
    """Each row's slice of the consensus cost, neighbors frozen: trajs
    (K, H+1, p), windows us (K, H, m); every bundle must carry the
    trajectories that its row's terms name.  A negative slice within its
    sum's rounding (eps times the products summed times the same forms of
    |E|, |u| and the weights' |entries|) reads 0; beyond it, NumericError."""
    E = local_errors(terms, trajs, us, bundles)
    values = _halved_forms(terms, E, terms.Q, terms.D, terms.R, us)
    if any(value < 0.0 for value in values):
        tol = np.finfo(float).eps * E.shape[1] * (len(E) + 1) * (E.shape[2] + us.shape[2]) ** 2
        sizes = _halved_forms(terms, abs(E), abs(terms.Q), abs(terms.D), abs(terms.R), abs(us))
        for i, value, size in zip(terms.agents, values, sizes):
            if value < -tol * size:
                raise NumericError(f"agent {i}: negative cost {value:.2e} with semidefinite "
                                   f"weights, beyond its rounding bound {tol * size:.2e}")
    return [max(value, 0.0) for value in values]


def local_cost(i: int, traj_i, u_i, nb: NeighborBundle, spec: CostSpec) -> float:
    """Agent i's slice of the consensus cost, from a table of one."""
    traj_i, u_i = np.asarray(traj_i, dtype=float), np.asarray(u_i, dtype=float)
    return local_costs(spec.group_terms([i], traj_i.shape[1]), traj_i[None], u_i[None],
                       [nb])[0]


def global_cost(tables, trajectories: dict, controls: dict, topology: Topology,
                leader_traj=None) -> float:
    """Sum of all agents' local slices, each directed edge counted once;
    ``tables`` holds cost-term tables whose rows cover agents 1..n once.
    Each row's bundle carries its terms' senders, the leader as sender 0."""
    costs = {}
    for terms in tables:
        bundles = [NeighborBundle({j: trajectories[j] for j in senders if j != LEADER},
                                  leader=leader_traj) for senders in terms.senders]
        costs.update(zip(terms.agents, local_costs(
            terms, np.array([trajectories[i] for i in terms.agents], dtype=float),
            np.array([controls[i] for i in terms.agents], dtype=float), bundles)))
    return sum(costs[i] for i in range(1, topology.n + 1))
