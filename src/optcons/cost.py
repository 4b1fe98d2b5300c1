"""Per-agent local consensus cost and the global monitoring cost.

The implemented cost is one half of the raw quadratic forms, so that the
costate and stationarity formulas used by the adjoint module hold without
factors of two (R u and Q (x_i - x_j) are exactly the derivatives of the
halved forms).  Minimizers are unaffected.

Agent ``i``'s *local* cost contains only the terms in which the outer sum
index equals ``i`` (its own edges, the leader link as an edge to neighbour
0, and its control penalty), with neighbor trajectories frozen; the global
cost is the sum of the local slices, each directed edge counted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .graph import LEADER, Topology, neighbors


def _as_weight(value, dim: int) -> np.ndarray:
    """Scalar c -> c*I, else a (dim, dim) matrix."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.shape != (dim, dim):
        raise ValueError(f"weight has shape {arr.shape}, expected ({dim}, {dim})")
    return arr


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

    def validate(self, topology: Topology, state_dim: int,
                 control_dims: dict[int, int]) -> None:
        """Check PSD/PD-ness, symmetry, and cross references; symmetrize in place.

        R is checked for the agents that ``control_dims`` maps to their
        control dimension.
        """
        problems = []

        def sym_psd(name, key, M, strict):
            M = np.asarray(M, dtype=float)
            if M.shape[0] != M.shape[1]:
                problems.append(f"{name}[{key}] is not square")
                return M
            drift = np.max(np.abs(M - M.T)) if M.size else 0.0
            if drift > 1e-9:
                problems.append(f"{name}[{key}] is asymmetric (max drift {drift:.2e})")
            M = 0.5 * (M + M.T)
            if M.size:
                lo = np.linalg.eigvalsh(M).min()
                if strict and lo <= 0.0:
                    problems.append(f"{name}[{key}] must be positive definite "
                                    f"(min eigenvalue {lo:.2e})")
                elif not strict and lo < -1e-10:
                    problems.append(f"{name}[{key}] must be positive semidefinite "
                                    f"(min eigenvalue {lo:.2e})")
            return M

        for edge in list(self.Q):
            if tuple(edge) not in topology.edges:
                problems.append(f"Q references non-edge {tuple(edge)}")
            self.Q[edge] = sym_psd("Q", edge, self.Q[edge], strict=False)
        for edge in list(self.D):
            if tuple(edge) not in topology.edges:
                problems.append(f"D references non-edge {tuple(edge)}")
            self.D[edge] = sym_psd("D", edge, self.D[edge], strict=False)
        for i in sorted(control_dims):
            if i not in self.R:
                problems.append(f"R missing for agent {i}")
            else:
                self.R[i] = sym_psd("R", i, self.R[i], strict=True)
                want = control_dims[i]
                if self.R[i].shape != (want, want):
                    problems.append(f"R[{i}] has shape {self.R[i].shape}, agent has m={want}")
        for name, table in (("W", self.W), ("E", self.E)):
            for i in list(table):
                if i not in topology.leader_links:
                    problems.append(f"{name}[{i}] given but agent {i} has no leader link")
                table[i] = sym_psd(name, i, table[i], strict=False)
        for i, d in self.offsets.items():
            if np.asarray(d).shape != (state_dim,):
                problems.append(f"offset[{i}] has shape {np.asarray(d).shape}, "
                                f"expected ({state_dim},)")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class NeighborBundle:
    """Frozen neighbor (and optionally leader) trajectories for one window.

    All trajectories share one horizon and one start index; the ownership
    of the start index lives with the coordinator.
    """

    trajectories: dict
    leader: np.ndarray | None = None

    def horizon(self) -> int:
        lengths = {traj.shape[0] for traj in self.trajectories.values()}
        if self.leader is not None:
            lengths.add(self.leader.shape[0])
        if len(lengths) > 1:
            raise ValueError(f"inconsistent trajectory lengths {sorted(lengths)}")
        return (lengths.pop() - 1) if lengths else -1


def local_errors(i: int, traj_i, u_i, nb: NeighborBundle, spec: CostSpec):
    """Agent i's errors against its frozen neighbours, one (e, stage
    weight, terminal weight) per term of ``spec.terms``.

    e = (x_i - d_i) - (x_j - d_j) over the window's H+1 stages, with x_j
    neighbour j's trajectory from the bundle (``nb.leader`` for j =
    LEADER) and d the formation offsets.  Raises ValueError on mismatched
    horizons or when the bundle lacks a trajectory a term needs.
    """
    H = u_i.shape[0]
    if traj_i.shape[0] != H + 1:
        raise ValueError(f"agent {i}: trajectory has {traj_i.shape[0]} rows, "
                         f"expected H+1={H + 1}")
    nbH = nb.horizon()
    if nbH >= 0 and nbH != H:
        raise ValueError(f"agent {i}: neighbor horizon {nbH} != control horizon {H}")
    p = traj_i.shape[1]
    z_i = traj_i - spec.offset(i, p)
    out = []
    for j, Q, D in spec.terms(i, p):
        x_j = nb.leader if j == LEADER else nb.trajectories.get(j)
        if x_j is None:
            raise ValueError(f"agent {i} has leader weights but no leader trajectory"
                             if j == LEADER else
                             f"agent {i}: bundle is missing neighbor {j}")
        out.append((z_i - (np.asarray(x_j, dtype=float) - spec.offset(j, p)), Q, D))
    return out


def local_cost(i: int, traj_i, u_i, nb: NeighborBundle, spec: CostSpec) -> float:
    """Agent i's slice of the consensus cost, neighbors frozen; the
    bundle must carry every trajectory that i's terms name."""
    traj_i = np.asarray(traj_i, dtype=float)
    u_i = np.asarray(u_i, dtype=float)
    H = u_i.shape[0]
    total = 0.0
    for e, Q, D in local_errors(i, traj_i, u_i, nb, spec):
        total += float(np.einsum("tp,pq,tq->", e[:H], Q, e[:H]))
        total += float(e[H] @ D @ e[H])

    R = spec.R[i]
    total += float(np.einsum("tp,pq,tq->", u_i, R, u_i))
    value = 0.5 * total
    if value < -1e-12:
        raise AssertionError(f"negative cost {value} with PSD weights")
    return max(value, 0.0)


def global_cost(trajectories: dict, controls: dict, spec: CostSpec,
                topology: Topology, leader_traj=None) -> float:
    """Sum of all agents' local slices; each directed edge counted once."""
    total = 0.0
    for i in range(1, topology.n + 1):
        nb = NeighborBundle(
            trajectories={j: trajectories[j] for j in neighbors(topology, i)},
            leader=leader_traj,
        )
        total += local_cost(i, trajectories[i], controls[i], nb, spec)
    return total
