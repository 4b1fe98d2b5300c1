"""Newton-type control updates, the slow first-order baseline, and the
contraction diagnostic.

The accelerated update refines a regularized Newton step through an inner
geometric recursion whose depth grows with the outer iteration counter:

    d^0 = (G + H)^-1 g,      d^l = (G + H)^-1 (g + G d^{l-1}),

after which u <- u - d.  On a quadratic the error contracts by
rho((G+H)^-1 G)^{r+1} per outer step r, which is what makes the scheme
superlinear; ``contraction_factor`` computes that spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import adjoint, dynamics as dyn
from .cost import CostSpec, NeighborBundle, local_cost
from .errors import NumericError, PreconditionError


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the per-agent solve.

    ``stop`` selects the convergence test of ``ocp_solve``/``msa_solve``:
    "grad" checks the gradient norm before updating, "step" checks the
    control change after updating.  The coordinator's round loop takes its
    rule from the run mode instead (one-shot or MPC).
    """

    c: float = 1.0
    max_outer: int = 100
    L_max: int = 10
    eps_grad: float = 1e-6
    eps_step: float = 1e-6
    reg_floor: float = 1e-8
    stop: str = "grad"
    method: str = "ocp"
    msa_eta0: float = 0.7

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"G scale c must be positive, got {self.c}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if not (self.eps_grad > 0 and self.eps_step > 0):
            raise ValueError("tolerances must be positive")
        if self.L_max < 0:
            raise ValueError(f"L_max must be >= 0, got {self.L_max}")
        if self.stop not in ("grad", "step"):
            raise ValueError(f"unknown stop rule {self.stop!r}")
        if self.method not in ("ocp", "msa"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class LocalProblem:
    """Agent i's frozen-neighbor subproblem over one horizon window."""

    i: int
    model: dyn.Model
    x0: np.ndarray
    nb: NeighborBundle
    spec: CostSpec
    mode: str = "auto"
    k0: int = 0

    def rollout(self, u):
        return dyn.rollout(self.model, self.x0, u, self.k0)

    def cost(self, u) -> float:
        return local_cost(self.i, self.rollout(u), u, self.nb, self.spec)

    def sweep(self, u):
        """Rollout + costate + gradient in one go; returns (traj, lam, g)."""
        traj = self.rollout(u)
        lam = adjoint.costate_sweep(self.i, self.model, traj, u, self.nb,
                                    self.spec, mode=self.mode, k0=self.k0)
        g = adjoint.gradient(self.i, self.model, traj, u, lam, self.spec, k0=self.k0)
        return traj, lam, g

    def hessian(self, u, traj, lam):
        return adjoint.hessian(self.i, self.model, traj, u, lam, self.spec,
                               mode=self.mode, k0=self.k0)


@dataclass
class SolveResult:
    u: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    stagnated: bool = False
    history: list = field(default_factory=list)


def regularize(Hmat: np.ndarray, floor: float) -> np.ndarray:
    """Shift H so its smallest eigenvalue is at least ``floor``."""
    lo = float(np.linalg.eigvalsh(Hmat).min())
    if lo < floor:
        Hmat = Hmat + (floor - lo) * np.eye(Hmat.shape[0])
    return Hmat


def ocp_direction(g: np.ndarray, Hmat: np.ndarray, G: np.ndarray, r: int,
                  L_max: int = 10) -> np.ndarray:
    """Inner recursion producing the update direction at outer iteration r.

    One Cholesky factorization of (G + H) is reused across the
    min(r, L_max) refinement cycles.
    """
    GH = G + Hmat
    try:
        cho = scipy.linalg.cho_factor(GH)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"G + H is not positive definite: {exc}") from exc
    d = scipy.linalg.cho_solve(cho, g)
    for _ in range(min(r, L_max)):
        d = scipy.linalg.cho_solve(cho, g + G @ d)
    return d


def contraction_factor(Hmat: np.ndarray, G: np.ndarray) -> float:
    """Spectral radius of (G+H)^-1 G; lies in (0, 1) for SPD G and H."""
    Hmat = np.asarray(Hmat, dtype=float)
    G = np.asarray(G, dtype=float)
    if np.linalg.eigvalsh(0.5 * (Hmat + Hmat.T)).min() <= 0:
        raise PreconditionError("Hessian must be positive definite")
    if np.linalg.eigvalsh(0.5 * (G + G.T)).min() <= 0:
        raise PreconditionError("G must be positive definite")
    # Generalized symmetric-definite problem G v = w (G+H) v.
    w = scipy.linalg.eigh(G, G + Hmat, eigvals_only=True)
    return float(np.max(np.abs(w)))


def ocp_solve(problem: LocalProblem, u0, cfg: SolverConfig) -> SolveResult:
    """Iterate the accelerated update until the configured stopping rule fires."""
    u = np.asarray(u0, dtype=float).copy()
    H, m = u.shape
    G = cfg.c * np.eye(H * m)
    history = [u.reshape(-1).copy()]
    gnorm = np.inf
    for r in range(cfg.max_outer):
        traj, lam, g = problem.sweep(u)
        gnorm = float(np.linalg.norm(g))
        if cfg.stop == "grad" and gnorm < cfg.eps_grad:
            return SolveResult(u, r, gnorm, True, history=history)
        Hmat = regularize(problem.hessian(u, traj, lam), cfg.reg_floor)
        d = ocp_direction(g, Hmat, G, r, cfg.L_max)
        u = u - d.reshape(H, m)
        history.append(u.reshape(-1).copy())
        if cfg.stop == "step" and float(np.linalg.norm(d)) < cfg.eps_step:
            _, _, g = problem.sweep(u)
            return SolveResult(u, r + 1, float(np.linalg.norm(g)), True,
                               history=history)
    _, _, g = problem.sweep(u)
    return SolveResult(u, cfg.max_outer, float(np.linalg.norm(g)), False,
                       history=history)


def backtrack_step(cost_fn, u, g, J, eta):
    """One gradient step with Armijo backtracking.

    Halves eta until J(u - eta g) <= J - 1e-4 eta ||g||^2.  Once the
    predicted decrease drops below the floating-point resolution of J the
    test is unverifiable, so the step is accepted on mere non-increase (to
    within the same resolution) instead of halving eta into the ground.
    Returns (u_new, J_new, eta, step_norm) or None when eta collapses.
    """
    gnorm2 = float(g.reshape(-1) @ g.reshape(-1))
    while True:
        u_try = u - eta * g.reshape(u.shape)
        J_try = cost_fn(u_try)
        resolution = 4.0 * np.finfo(float).eps * (1.0 + abs(J))
        predicted = 1e-4 * eta * gnorm2
        if predicted < resolution:
            if J_try <= J + resolution:
                break
        elif J_try <= J - predicted:
            break
        eta *= 0.5
        if eta < 1e-15:
            return None
    return u_try, J_try, eta, float(np.linalg.norm(eta * g))


def msa_solve(problem: LocalProblem, u0, cfg: SolverConfig) -> SolveResult:
    """Gradient descent with backtracking on cost increase (slow baseline)."""
    u = np.asarray(u0, dtype=float).copy()
    eta = cfg.msa_eta0
    history = [u.reshape(-1).copy()]
    J = problem.cost(u)
    for r in range(cfg.max_outer):
        _, _, g = problem.sweep(u)
        gnorm = float(np.linalg.norm(g))
        if cfg.stop == "grad" and gnorm < cfg.eps_grad:
            return SolveResult(u, r, gnorm, True, history=history)
        taken = backtrack_step(problem.cost, u, g, J, eta)
        if taken is None:
            return SolveResult(u, r, gnorm, False, stagnated=True,
                               history=history)
        u, J, eta, step = taken
        history.append(u.reshape(-1).copy())
        if cfg.stop == "step" and step < cfg.eps_step:
            _, _, g = problem.sweep(u)
            return SolveResult(u, r + 1, float(np.linalg.norm(g)), True,
                               history=history)
    _, _, g = problem.sweep(u)
    return SolveResult(u, cfg.max_outer, float(np.linalg.norm(g)), False,
                       history=history)
