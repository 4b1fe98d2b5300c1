"""Per-agent local consensus cost and the global monitoring cost.

The implemented cost is one half of the raw quadratic forms, so that the
costate and stationarity formulas used by the adjoint module hold without
factors of two (R u and Q (x_i - x_j) are exactly the derivatives of the
halved forms).  Minimizers are unaffected.

Agent ``i``'s *local* cost contains only the terms in which the outer sum
index equals ``i`` (its own edges, leader term, and control penalty), with
neighbor trajectories frozen; the global cost is the sum of the local
slices, each directed edge counted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .graph import Topology, neighbors


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
    leader-linked agent; offsets by agent (key 0 = leader offset).
    Missing D/E/offsets entries default to zero.
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

    def edge_terms(self, i: int, p: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Sorted (j, Q_ij, D_ij) for every edge leaving i that carries weight.

        An edge present in only one of Q / D gets a zero matrix for the
        other, so terminal-only (or stage-only) couplings still count.
        """
        js = {j for (a, j) in self.Q if a == i} | {j for (a, j) in self.D if a == i}
        zero = np.zeros((p, p))
        return [(j, self.Q.get((i, j), zero), self.D.get((i, j), zero))
                for j in sorted(js)]

    def leader_terms(self, i: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(W_i, E_i), None where absent: agent i's local cost has leader
        terms exactly when either is present."""
        return self.W.get(i), self.E.get(i)

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


def _check_horizons(i, traj_i, u_i, nb: NeighborBundle):
    H = u_i.shape[0]
    if traj_i.shape[0] != H + 1:
        raise ValueError(f"agent {i}: trajectory has {traj_i.shape[0]} rows, "
                         f"expected H+1={H + 1}")
    nbH = nb.horizon()
    if nbH >= 0 and nbH != H:
        raise ValueError(f"agent {i}: neighbor horizon {nbH} != control horizon {H}")
    return H


def local_cost(i: int, traj_i, u_i, nb: NeighborBundle, spec: CostSpec) -> float:
    """Agent i's slice of the consensus cost, neighbors frozen.

    Leader terms are included exactly when the spec carries W (or E)
    entries for i; the bundle must then provide the leader trajectory.
    """
    traj_i = np.asarray(traj_i, dtype=float)
    u_i = np.asarray(u_i, dtype=float)
    H = _check_horizons(i, traj_i, u_i, nb)
    p = traj_i.shape[1]

    z_i = traj_i - spec.offset(i, p)
    total = 0.0
    for j, Q, D in spec.edge_terms(i, p):
        if j not in nb.trajectories:
            raise ValueError(f"agent {i}: bundle is missing neighbor {j}")
        e = z_i - (np.asarray(nb.trajectories[j], dtype=float) - spec.offset(j, p))
        total += float(np.einsum("tp,pq,tq->", e[:H], Q, e[:H]))
        total += float(e[H] @ D @ e[H])

    W, E = spec.leader_terms(i)
    if W is not None or E is not None:
        if nb.leader is None:
            raise ValueError(f"agent {i} has leader weights but no leader trajectory")
        el = z_i - (np.asarray(nb.leader, dtype=float) - spec.offset(0, p))
        if W is not None:
            total += float(np.einsum("tp,pq,tq->", el[:H], W, el[:H]))
        if E is not None:
            total += float(el[H] @ E @ el[H])

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
