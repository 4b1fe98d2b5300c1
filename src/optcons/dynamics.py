"""Agent dynamics, Jacobians, rollouts, and the built-in models.

Conventions used package-wide:

* a state trajectory is an ``(H+1, p)`` array, a control sequence an
  ``(H, m)`` array with ``H`` controls; flattening is time-major
  (``controls.reshape(-1)``, u(0) first);
* ``step(x, u, k)`` maps state x and control u at time index k to the next
  state; k only matters for time-varying (leader) models;
* a costate is a length-p vector that multiplies Jacobians from the left
  (``lam @ A``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, NumericError


@dataclass(frozen=True)
class Model:
    """Discrete-time dynamics with first- and second-order information.

    ``second_order_fn(x, u, k, lam)`` returns the (p+m, p+m) matrix of
    lam-weighted second derivatives, ordered state-then-control; it may be
    None, in which case callers fall back to differencing the analytic
    Jacobians.
    """

    state_dim: int
    control_dim: int
    step_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    jac_x_fn: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None
    jac_u_fn: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None
    second_order_fn: Optional[Callable[[np.ndarray, np.ndarray, int, np.ndarray], np.ndarray]] = None
    name: str = "model"


def _check_dims(model: Model, x, u):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (model.state_dim,):
        raise ValueError(
            f"{model.name}: state has shape {x.shape}, expected ({model.state_dim},)")
    if u.shape != (model.control_dim,):
        raise ValueError(
            f"{model.name}: control has shape {u.shape}, expected ({model.control_dim},)")
    return x, u


def step(model: Model, x, u, k: int = 0) -> np.ndarray:
    """Evaluate x(k+1) = f(x, u, k), validating shapes and finiteness."""
    x, u = _check_dims(model, x, u)
    out = np.asarray(model.step_fn(x, u, k), dtype=float)
    if out.shape != (model.state_dim,):
        raise ValueError(f"{model.name}: step returned shape {out.shape}")
    if not np.isfinite(out).all():
        raise NumericError(f"{model.name}: non-finite state at k={k}")
    return out


def linearize(model: Model, x, u, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Return (df/dx, df/du) at (x, u, k); falls back to differencing."""
    x, u = _check_dims(model, x, u)
    if model.jac_x_fn is None or model.jac_u_fn is None:
        return fd_jacobian(model, x, u, k)
    A = np.asarray(model.jac_x_fn(x, u, k), dtype=float)
    B = np.asarray(model.jac_u_fn(x, u, k), dtype=float)
    if A.shape != (model.state_dim, model.state_dim):
        raise ValueError(f"{model.name}: jac_x returned shape {A.shape}")
    if B.shape != (model.state_dim, model.control_dim):
        raise ValueError(f"{model.name}: jac_u returned shape {B.shape}")
    return A, B


def fd_jacobian(model: Model, x, u, k: int = 0, h: float = 1e-6):
    """Central-difference Jacobians of step; oracle for linearize."""
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    x, u = _check_dims(model, x, u)
    p, m = model.state_dim, model.control_dim
    A = np.empty((p, p))
    for a in range(p):
        e = np.zeros(p)
        e[a] = h
        A[:, a] = (step(model, x + e, u, k) - step(model, x - e, u, k)) / (2.0 * h)
    B = np.empty((p, m))
    for a in range(m):
        e = np.zeros(m)
        e[a] = h
        B[:, a] = (step(model, x, u + e, k) - step(model, x, u - e, k)) / (2.0 * h)
    return A, B


def second_order_action(model: Model, x, u, k, lam, allow_fd: bool = True) -> np.ndarray:
    """(p+m, p+m) matrix of lam-weighted second derivatives of step.

    Uses the model's analytic second-order data when available, else
    central differences of the analytic Jacobians with step 1e-5*(1+|z|).
    """
    x, u = _check_dims(model, x, u)
    lam = np.asarray(lam, dtype=float)
    p, m = model.state_dim, model.control_dim
    if model.second_order_fn is not None:
        M = np.asarray(model.second_order_fn(x, u, k, lam), dtype=float)
        if M.shape != (p + m, p + m):
            raise ValueError(f"{model.name}: second_order returned shape {M.shape}")
        return M
    if not allow_fd:
        raise CapabilityError(
            f"{model.name} has no second-order information and the fallback is disabled")

    # Row r(z) = [lam @ df/dx, lam @ df/du]; the action matrix is dr/dz.
    def row(xv, uv):
        A, B = linearize(model, xv, uv, k)
        return np.concatenate([lam @ A, lam @ B])

    M = np.empty((p + m, p + m))
    for a in range(p + m):
        if a < p:
            h = 1e-5 * (1.0 + abs(x[a]))
            e = np.zeros(p)
            e[a] = h
            M[a, :] = (row(x + e, u) - row(x - e, u)) / (2.0 * h)
        else:
            h = 1e-5 * (1.0 + abs(u[a - p]))
            e = np.zeros(m)
            e[a - p] = h
            M[a, :] = (row(x, u + e) - row(x, u - e)) / (2.0 * h)
    return 0.5 * (M + M.T)


def rollout(model: Model, x0, controls, k0: int = 0) -> np.ndarray:
    """Simulate H steps from x0; returns the (H+1, p) state trajectory."""
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2 or controls.shape[1] != model.control_dim:
        controls = controls.reshape(-1, model.control_dim)
    H = controls.shape[0]
    states = np.empty((H + 1, model.state_dim))
    states[0] = np.asarray(x0, dtype=float)
    for t in range(H):
        try:
            states[t + 1] = step(model, states[t], controls[t], k0 + t)
        except NumericError as exc:
            raise NumericError(f"rollout failed at step {t}: {exc}") from exc
    return states


def flatten_controls(controls: np.ndarray) -> np.ndarray:
    """Time-major flattening, u(0) block first."""
    return np.asarray(controls, dtype=float).reshape(-1)


def unflatten_controls(vec: np.ndarray, H: int, m: int) -> np.ndarray:
    return np.asarray(vec, dtype=float).reshape(H, m)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def unicycle(delta: float = 0.05) -> Model:
    """Forward-Euler unicycle: state (x, y, theta), control (v, omega).

    The heading is not wrapped; consensus on theta runs over the real line.
    """

    def f(x, u, k):
        px, py, th = x
        v, w = u
        return np.array([px + delta * v * np.cos(th),
                         py + delta * v * np.sin(th),
                         th + delta * w])

    def jx(x, u, k):
        _, _, th = x
        v, _ = u
        return np.array([[1.0, 0.0, -delta * v * np.sin(th)],
                         [0.0, 1.0, delta * v * np.cos(th)],
                         [0.0, 0.0, 1.0]])

    def ju(x, u, k):
        _, _, th = x
        return np.array([[delta * np.cos(th), 0.0],
                         [delta * np.sin(th), 0.0],
                         [0.0, delta]])

    def so(x, u, k, lam):
        _, _, th = x
        v, _ = u
        M = np.zeros((5, 5))
        s, c = np.sin(th), np.cos(th)
        # d2f1/dth2 = -dv*c, d2f2/dth2 = -dv*s; cross terms with v.
        M[2, 2] = lam[0] * (-delta * v * c) + lam[1] * (-delta * v * s)
        M[2, 3] = M[3, 2] = lam[0] * (-delta * s) + lam[1] * (delta * c)
        return M

    return Model(3, 2, f, jx, ju, so, name=f"unicycle(d={delta})")


def unicycle_drift(delta: float = 0.05, v: float = 0.5, omega: float = 0.0) -> Model:
    """Autonomous unicycle moving at fixed speed and turn rate (leader use)."""
    base = unicycle(delta)
    uc = np.array([v, omega])

    def f(x, u, k):
        return base.step_fn(x, uc, k)

    def jx(x, u, k):
        return base.jac_x_fn(x, uc, k)

    def ju(x, u, k):
        return np.zeros((3, 0))

    def so(x, u, k, lam):
        return base.second_order_fn(x, uc, k, lam)[:3, :3]

    return Model(3, 0, f, jx, ju, so, name=f"unicycle_drift(v={v},w={omega})")


def linear(A, B) -> Model:
    """x+ = A x + B u."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    p, m = B.shape

    return Model(
        p, m,
        step_fn=lambda x, u, k: A @ x + B @ u,
        jac_x_fn=lambda x, u, k: A,
        jac_u_fn=lambda x, u, k: B,
        second_order_fn=lambda x, u, k, lam: np.zeros((p + m, p + m)),
        name="linear",
    )


def _sine_forcing(mode: str, amp: float, p: int):
    """Scalar forcing value, its gradient, and per-component curvature mask."""
    if mode == "sum":
        comps = list(range(p))
    elif mode == "first":
        comps = [0]
    else:
        raise ValueError(f"unknown sine mode {mode!r}")

    def value(x):
        return amp * sum(np.sin(x[a]) for a in comps)

    def grad(x):
        g = np.zeros(p)
        for a in comps:
            g[a] = amp * np.cos(x[a])
        return g

    def curv(x):
        c = np.zeros(p)
        for a in comps:
            c[a] = -amp * np.sin(x[a])
        return c

    return value, grad, curv


def linear_sine(A, b, amp: float = 0.01, mode: str = "sum") -> Model:
    """Follower model x+ = A x + b (u + forcing(x)) with scalar control.

    ``mode`` selects how the printed 2-vector sine nonlinearity is fed
    through the scalar control channel:

    * ``"sum"``   - forcing = amp * (sin x_1 + ... + sin x_p)  (default)
    * ``"first"`` - forcing = amp * sin x_1
    * ``"diag"``  - b is reinterpreted as diag(b) acting on the state-wise
      sine vector: x+ = A x + diag(b) (u * 1 + amp sin(x))
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    p = A.shape[0]

    if mode == "diag":
        Bd = np.diag(b)

        def f(x, u, k):
            return A @ x + Bd @ (u[0] * np.ones(p) + amp * np.sin(x))

        def jx(x, u, k):
            return A + Bd @ np.diag(amp * np.cos(x))

        def ju(x, u, k):
            return b[:, None].copy()

        def so(x, u, k, lam):
            M = np.zeros((p + 1, p + 1))
            for a in range(p):
                M[a, a] = lam[a] * b[a] * (-amp * np.sin(x[a]))
            return M

        return Model(p, 1, f, jx, ju, so, name=f"linear_sine(diag,amp={amp})")

    value, grad, curv = _sine_forcing(mode, amp, p)

    def f(x, u, k):
        return A @ x + b * (u[0] + value(x))

    def jx(x, u, k):
        return A + np.outer(b, grad(x))

    def ju(x, u, k):
        return b[:, None].copy()

    def so(x, u, k, lam):
        M = np.zeros((p + 1, p + 1))
        lb = float(lam @ b)
        c = curv(x)
        for a in range(p):
            M[a, a] = lb * c[a]
        return M

    return Model(p, 1, f, jx, ju, so, name=f"linear_sine({mode},amp={amp})")


def leader_sine(A, b, amp: float = 0.01, h_amp: float = 0.1,
                h_freq: float = 0.05, mode: str = "sum") -> Model:
    """Autonomous leader x+ = A x + b (forcing(x) + h_amp sin(h_freq k))."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    p = A.shape[0]

    def h(k):
        return h_amp * np.sin(h_freq * k)

    if mode == "diag":
        Bd = np.diag(b)

        def f(x, u, k):
            return A @ x + Bd @ (amp * np.sin(x) + h(k) * np.ones(p))

        def jx(x, u, k):
            return A + Bd @ np.diag(amp * np.cos(x))

        def so(x, u, k, lam):
            M = np.zeros((p, p))
            for a in range(p):
                M[a, a] = lam[a] * b[a] * (-amp * np.sin(x[a]))
            return M

        return Model(p, 0, f, jx, lambda x, u, k: np.zeros((p, 0)), so,
                     name=f"leader_sine(diag,amp={amp})")

    value, grad, curv = _sine_forcing(mode, amp, p)

    def f(x, u, k):
        return A @ x + b * (value(x) + h(k))

    def jx(x, u, k):
        return A + np.outer(b, grad(x))

    def so(x, u, k, lam):
        M = np.zeros((p, p))
        lb = float(lam @ b)
        c = curv(x)
        for a in range(p):
            M[a, a] = lb * c[a]
        return M

    return Model(p, 0, f, jx, lambda x, u, k: np.zeros((p, 0)), so,
                 name=f"leader_sine({mode},amp={amp})")


# Matrices printed for the leader-follower experiment; shared by presets
# and tests.
FOLLOWER_A = np.array([[0.898, 0.056],
                       [0.968, -0.084]])
FOLLOWER_B = np.array([0.87, -1.8])
