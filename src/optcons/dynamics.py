"""Agent dynamics, Jacobians, rollouts, and the built-in models.

Conventions used package-wide:

* a state trajectory is an ``(H+1, p)`` array, a control sequence an
  ``(H, m)`` array with ``H`` controls; flattening is time-major
  (``controls.reshape(-1)``, u(0) first);
* ``step(x, u, k)`` maps state x and control u at time index k to the next
  state; k only matters for time-varying (leader) models;
* derivatives are taken a window at a time: ``linearize`` and
  ``second_order_action`` read the stage states X = traj[:H] and controls U
  of a window whose stage t sits at time k0 + t, and return one stacked
  array per quantity, stage t first;
* a costate is a length-p vector that multiplies Jacobians from the left
  (``lam @ A``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class Model:
    """Discrete-time dynamics with first- and second-order information.

    ``step_fn(x, u, k)`` returns the next state as a (p,) float array.  The
    derivative functions work on a window's stage states X (H, p) and
    controls U (H, m), with stage t at time k0 + t:

    * ``jac_fn(X, U, k0)`` returns the stage Jacobians df/dx and df/du
      stacked as (H, p, p) and (H, p, m);
    * ``second_order_fn(X, U, k0, Lam)`` returns the (H, p+m, p+m) stack of
      Lam[t]-weighted second derivatives of f at stage t, ordered
      state-then-control.

    Both return fresh C-contiguous arrays.
    """

    state_dim: int
    control_dim: int
    step_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    jac_fn: Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray]]
    second_order_fn: Callable[[np.ndarray, np.ndarray, int, np.ndarray], np.ndarray]
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


def _check_window(model: Model, X, U, *extra):
    """The window's stage inputs as float arrays; X (H, p), U (H, m) and
    every extra array (H, p)."""
    arrays = [np.asarray(a, dtype=float) for a in (X, U) + extra]
    H, p = len(arrays[0]), model.state_dim
    expected = ((H, p), (H, model.control_dim)) + ((H, p),) * len(extra)
    shapes = tuple(a.shape for a in arrays)
    if shapes != expected:
        raise ValueError(f"{model.name}: window inputs have shapes {shapes}, "
                         f"expected {expected}")
    return arrays


def step(model: Model, x, u, k: int = 0) -> np.ndarray:
    """Evaluate x(k+1) = f(x, u, k), validating shapes and finiteness."""
    x, u = _check_dims(model, x, u)
    out = np.asarray(model.step_fn(x, u, k), dtype=float)
    if out.shape != (model.state_dim,):
        raise ValueError(f"{model.name}: step returned shape {out.shape}")
    if not np.isfinite(out).all():
        raise NumericError(f"{model.name}: non-finite state at k={k}")
    return out


def linearize(model: Model, X, U, k0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stage Jacobians of a window: (df/dx, df/du) at (X[t], U[t], k0 + t),
    stacked as (H, p, p) and (H, p, m)."""
    X, U = _check_window(model, X, U)
    H, p, m = len(X), model.state_dim, model.control_dim
    A, B = model.jac_fn(X, U, k0)
    if (A.shape, B.shape) != ((H, p, p), (H, p, m)):
        raise ValueError(f"{model.name}: jac returned shapes {A.shape} and {B.shape}")
    return A, B


def fd_jacobian(model: Model, x, u, k: int = 0, h: float = 1e-6):
    """Central-difference Jacobians of step at one stage; oracle for
    linearize."""
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


def second_order_action(model: Model, X, U, k0: int, Lam) -> np.ndarray:
    """(H, p+m, p+m) stack of the Lam[t]-weighted second derivatives of f at
    (X[t], U[t], k0 + t); Lam is the window's lambda(1..H)."""
    X, U, Lam = _check_window(model, X, U, Lam)
    n = model.state_dim + model.control_dim
    M = model.second_order_fn(X, U, k0, Lam)
    if M.shape != (len(X), n, n):
        raise ValueError(f"{model.name}: second_order returned shape {M.shape}")
    return M


def rollout(model: Model, x0, controls, k0: int = 0) -> np.ndarray:
    """Simulate H steps from x0; returns the (H+1, p) state trajectory.

    ``step_fn`` runs once per stage, its output shape compared each time;
    finiteness is checked once for the whole window.  Floating-point
    warnings are held back while stepping: the first stage whose state is
    not finite is evaluated again so that its own warnings surface, and the
    error names it.
    """
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2 or controls.shape[1] != model.control_dim:
        controls = controls.reshape(-1, model.control_dim)
    x0 = np.asarray(x0, dtype=float)
    shape = (model.state_dim,)
    if x0.shape != shape:
        raise ValueError(f"{model.name}: initial state has shape {x0.shape}, "
                         f"expected {shape}")
    H = controls.shape[0]
    f = model.step_fn
    states = np.empty((H + 1, model.state_dim))
    states[0] = x0
    with np.errstate(all="ignore"):
        for t in range(H):
            out = f(states[t], controls[t], k0 + t)
            if out.shape != shape:
                raise ValueError(f"{model.name}: step returned shape {out.shape}")
            states[t + 1] = out
    finite = np.isfinite(states[1:])
    if not finite.all():
        t = int(np.argmin(finite.all(axis=1)))
        f(states[t], controls[t], k0 + t)
        raise NumericError(f"rollout failed at step {t}: {model.name}: "
                           f"non-finite state at k={k0 + t}")
    return states


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

    def jac(X, U, k0):
        v = U[:, 0]
        s, c = np.sin(X[:, 2]), np.cos(X[:, 2])
        A = np.zeros((len(X), 3, 3))
        A[:, [0, 1, 2], [0, 1, 2]] = 1.0
        A[:, 0, 2] = -delta * v * s
        A[:, 1, 2] = delta * v * c
        B = np.zeros((len(X), 3, 2))
        B[:, 0, 0] = delta * c
        B[:, 1, 0] = delta * s
        B[:, 2, 1] = delta
        return A, B

    def so(X, U, k0, Lam):
        v = U[:, 0]
        s, c = np.sin(X[:, 2]), np.cos(X[:, 2])
        M = np.zeros((len(X), 5, 5))
        # d2f1/dth2 = -dv*c, d2f2/dth2 = -dv*s; cross terms with v.
        M[:, 2, 2] = Lam[:, 0] * (-delta * v * c) + Lam[:, 1] * (-delta * v * s)
        M[:, 2, 3] = M[:, 3, 2] = Lam[:, 0] * (-delta * s) + Lam[:, 1] * (delta * c)
        return M

    return Model(3, 2, f, jac, so, name=f"unicycle(d={delta})")


def unicycle_drift(delta: float = 0.05, v: float = 0.5, omega: float = 0.0) -> Model:
    """Autonomous unicycle moving at fixed speed and turn rate (leader use)."""
    base = unicycle(delta)
    uc = np.array([v, omega])

    def f(x, u, k):
        return base.step_fn(x, uc, k)

    def jac(X, U, k0):
        A, _ = base.jac_fn(X, np.tile(uc, (len(X), 1)), k0)
        return A, np.zeros((len(X), 3, 0))

    def so(X, U, k0, Lam):
        M = base.second_order_fn(X, np.tile(uc, (len(X), 1)), k0, Lam)
        return np.ascontiguousarray(M[:, :3, :3])

    return Model(3, 0, f, jac, so, name=f"unicycle_drift(v={v},w={omega})")


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
        jac_fn=lambda X, U, k0: (np.repeat(A[None], len(X), axis=0),
                                 np.repeat(B[None], len(X), axis=0)),
        second_order_fn=lambda X, U, k0, Lam: np.zeros((len(X), p + m, p + m)),
        name="linear",
    )


def _sine_model(A, b, amp: float, mode: str, m: int):
    """The sine forcing value(x) and the window jac_fn and second_order_fn
    shared by linear_sine (m=1) and leader_sine (m=0).  The control and the
    leader's time forcing enter linearly, so only the forcing, described at
    linear_sine, curves f."""
    if mode not in ("sum", "first", "diag"):
        raise ValueError(f"unknown sine mode {mode!r}")
    p = A.shape[0]
    idx = np.arange(p)
    comps = [0] if mode == "first" else list(range(p))

    def value(x):
        return amp * sum(np.sin(x[a]) for a in comps)

    def jac_u(H):
        return np.repeat(b[None, :, None], H, axis=0) if m else np.zeros((H, p, 0))

    if mode == "diag":
        def jac(X, U, k0):
            J = np.repeat(A[None], len(X), axis=0)
            J[:, idx, idx] += b * (amp * np.cos(X))
            return J, jac_u(len(X))

        def so(X, U, k0, Lam):
            M = np.zeros((len(X), p + m, p + m))
            M[:, idx, idx] = Lam * b * (-amp * np.sin(X))
            return M

        return value, jac, so

    def jac(X, U, k0):
        G = np.zeros((len(X), p))
        G[:, comps] = amp * np.cos(X[:, comps])
        return A + b[:, None] * G[:, None, :], jac_u(len(X))

    def so(X, U, k0, Lam):
        C = np.zeros((len(X), p))
        C[:, comps] = -amp * np.sin(X[:, comps])
        # One dot product per stage (Lam[t] @ b), summed as the stage-wise
        # lam @ b is; a matrix-vector Lam @ b can round differently.
        lb = (Lam[:, None, :] @ b[:, None])[:, 0]
        M = np.zeros((len(X), p + m, p + m))
        M[:, idx, idx] = lb * C
        return M

    return value, jac, so


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
    value, jac, so = _sine_model(A, b, amp, mode, 1)

    if mode == "diag":
        Bd = np.diag(b)

        def f(x, u, k):
            return A @ x + Bd @ (u[0] * np.ones(p) + amp * np.sin(x))
    else:
        def f(x, u, k):
            return A @ x + b * (u[0] + value(x))

    return Model(p, 1, f, jac, so, name=f"linear_sine({mode},amp={amp})")


def leader_sine(A, b, amp: float = 0.01, h_amp: float = 0.1,
                h_freq: float = 0.05, mode: str = "sum") -> Model:
    """Autonomous leader x+ = A x + b (forcing(x) + h_amp sin(h_freq k))."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    p = A.shape[0]
    value, jac, so = _sine_model(A, b, amp, mode, 0)

    def h(k):
        return h_amp * np.sin(h_freq * k)

    if mode == "diag":
        Bd = np.diag(b)

        def f(x, u, k):
            return A @ x + Bd @ (amp * np.sin(x) + h(k) * np.ones(p))
    else:
        def f(x, u, k):
            return A @ x + b * (value(x) + h(k))

    return Model(p, 0, f, jac, so, name=f"leader_sine({mode},amp={amp})")


# Matrices printed for the leader-follower experiment; shared by presets
# and tests.
FOLLOWER_A = np.array([[0.898, 0.056],
                       [0.968, -0.084]])
FOLLOWER_B = np.array([0.87, -1.8])
