"""Agent dynamics, Jacobians, rollouts, and the built-in models.

Conventions used package-wide:

* a state trajectory is an ``(H+1, p)`` array, a control sequence an
  ``(H, m)`` array with ``H`` controls; flattening is time-major
  (``controls.reshape(-1)``, u(0) first);
* ``rollout``, the window functions and a Model's own functions take a
  stack of K agents along a leading axis, e.g. windows ``(K, H, m)``;
  one agent is a stack of one;
* ``step(x, u, k)`` maps state x and control u at time index k to the next
  state; k only matters for time-varying (leader) models;
* derivatives are taken a window at a time: ``linearize`` and
  ``second_order_action`` read the stage states X = traj[:, :H] and
  controls U of windows whose stage t sits at time k0 + t, and return one
  stacked array per quantity, agent first, then stage;
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

    Every function takes a stack of K agents.  ``step_fn(x, u, k)`` maps
    states x (K, p) and controls u (K, m) at time k to the next states as a
    (K, p) float array.  The derivative functions work on the windows' stage
    states X (K, H, p) and controls U (K, H, m), with stage t at time k0 + t:

    * ``jac_fn(X, U, k0)`` returns the stage Jacobians df/dx and df/du
      stacked as (K, H, p, p) and (K, H, p, m);
    * ``second_order_fn(X, U, k0, Lam)`` returns the (K, H, p+m, p+m) stack
      of Lam[a, t]-weighted second derivatives of f, ordered
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
    """The windows' stage inputs as float arrays; X (K, H, p), U (K, H, m)
    and every extra array (K, H, p).  Returns (K, H) and the arrays."""
    arrays = [np.asarray(a, dtype=float) for a in (X, U) + extra]
    KH, p = arrays[0].shape[:2], model.state_dim
    expected = (KH + (p,), KH + (model.control_dim,)) + (KH + (p,),) * len(extra)
    shapes = tuple(a.shape for a in arrays)
    if shapes != expected:
        raise ValueError(f"{model.name}: window inputs have shapes {shapes}, "
                         f"expected {expected}")
    return KH, arrays


def step(model: Model, x, u, k: int = 0) -> np.ndarray:
    """Evaluate x(k+1) = f(x, u, k) for one agent, validating shapes and
    finiteness."""
    x, u = _check_dims(model, x, u)
    out = np.asarray(model.step_fn(x[None], u[None], k), dtype=float)
    if out.shape != (1, model.state_dim):
        raise ValueError(f"{model.name}: step returned shape {out.shape}")
    if not np.isfinite(out).all():
        raise NumericError(f"{model.name}: non-finite state at k={k}")
    return out[0]


def linearize(model: Model, X, U, k0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stage Jacobians of a stack of windows: (df/dx, df/du) at
    (X[a, t], U[a, t], k0 + t), stacked as (K, H, p, p) and (K, H, p, m)."""
    KH, (X, U) = _check_window(model, X, U)
    p, m = model.state_dim, model.control_dim
    A, B = model.jac_fn(X, U, k0)
    if (A.shape, B.shape) != (KH + (p, p), KH + (p, m)):
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
    """(K, H, p+m, p+m) stack of the Lam[a, t]-weighted second derivatives
    of f at (X[a, t], U[a, t], k0 + t); Lam holds lambda(1..H)."""
    KH, (X, U, Lam) = _check_window(model, X, U, Lam)
    n = model.state_dim + model.control_dim
    M = model.second_order_fn(X, U, k0, Lam)
    if M.shape != KH + (n, n):
        raise ValueError(f"{model.name}: second_order returned shape {M.shape}")
    return M


def rollout(model: Model, x0, controls, k0: int = 0, known=None) -> np.ndarray:
    """Simulate H steps of a stack of K agents from x0 (K, p) under controls
    (K, H, m); returns the (K, H+1, p) state trajectories.

    ``known`` (K, s, p), s < H, gives stages 1..s when they are already
    known (a warm window's shifted predecessor); stepping starts at stage s.
    ``step_fn`` runs once per stepped stage on the whole stack, its output
    shape compared each time; finiteness is checked once for all windows.
    Floating-point warnings are held back while stepping: the first stage
    with a state that is not finite is evaluated again so that its own
    warnings surface, and the error names it.
    """
    x0 = np.asarray(x0, dtype=float)
    controls = np.asarray(controls, dtype=float)
    K, p = len(x0) if x0.ndim else 0, model.state_dim
    if x0.shape != (K, p):
        raise ValueError(f"{model.name}: initial states have shape {x0.shape}, "
                         f"expected (K, {p})")
    if controls.ndim != 3 or controls.shape[::2] != (K, model.control_dim):
        raise ValueError(f"{model.name}: controls have shape {controls.shape}, "
                         f"expected ({K}, H, {model.control_dim})")
    H = controls.shape[1]
    f = model.step_fn
    states = np.empty((K, H + 1, p))
    states[:, 0] = x0
    s = 0 if known is None else len(known[0])
    if s:
        states[:, 1:s + 1] = known
    with np.errstate(all="ignore"):
        for t in range(s, H):
            out = f(states[:, t], controls[:, t], k0 + t)
            if out.shape != (K, p):
                raise ValueError(f"{model.name}: step returned shape {out.shape}")
            states[:, t + 1] = out
    finite = np.isfinite(states[:, 1:]).all(axis=(0, 2))
    if not finite.all():
        t = int(np.argmin(finite))
        f(states[:, t], controls[:, t], k0 + t)
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
        th, v = x[:, 2], u[:, 0]
        out = np.empty((len(x), 3))
        out[:, 0] = x[:, 0] + delta * v * np.cos(th)
        out[:, 1] = x[:, 1] + delta * v * np.sin(th)
        out[:, 2] = th + delta * u[:, 1]
        return out

    def jac(X, U, k0):
        v = U[..., 0]
        s, c = np.sin(X[..., 2]), np.cos(X[..., 2])
        A = np.zeros(X.shape[:2] + (3, 3))
        A[..., [0, 1, 2], [0, 1, 2]] = 1.0
        A[..., 0, 2] = -delta * v * s
        A[..., 1, 2] = delta * v * c
        B = np.zeros(X.shape[:2] + (3, 2))
        B[..., 0, 0] = delta * c
        B[..., 1, 0] = delta * s
        B[..., 2, 1] = delta
        return A, B

    def so(X, U, k0, Lam):
        v = U[..., 0]
        s, c = np.sin(X[..., 2]), np.cos(X[..., 2])
        M = np.zeros(X.shape[:2] + (5, 5))
        # d2f1/dth2 = -dv*c, d2f2/dth2 = -dv*s; cross terms with v.
        M[..., 2, 2] = Lam[..., 0] * (-delta * v * c) + Lam[..., 1] * (-delta * v * s)
        M[..., 2, 3] = M[..., 3, 2] = Lam[..., 0] * (-delta * s) + Lam[..., 1] * (delta * c)
        return M

    return Model(3, 2, f, jac, so, name=f"unicycle(d={delta})")


def _autonomous(base: Model, control: Callable, name: str) -> Model:
    """The autonomous model (control_dim 0) that drives ``base`` with the
    input ``control(k)``, shaped (m,) for a time k and (H, m) for an array
    of H stage times (or anything that broadcasts to them)."""
    p, m = base.state_dim, base.control_dim

    def schedule(X, k0):
        return np.broadcast_to(control(k0 + np.arange(X.shape[1])), X.shape[:2] + (m,))

    def f(x, u, k):
        return base.step_fn(x, np.broadcast_to(control(k), (len(x), m)), k)

    def jac(X, U, k0):
        A, _ = base.jac_fn(X, schedule(X, k0), k0)
        return A, np.zeros(X.shape[:2] + (p, 0))

    def so(X, U, k0, Lam):
        M = base.second_order_fn(X, schedule(X, k0), k0, Lam)
        return np.ascontiguousarray(M[..., :p, :p])

    return Model(p, 0, f, jac, so, name=name)


def unicycle_drift(delta: float = 0.05, v: float = 0.5, omega: float = 0.0) -> Model:
    """Autonomous unicycle moving at fixed speed and turn rate (leader use):
    the unicycle under the fixed input (v, omega)."""
    uc = np.array([v, omega])
    return _autonomous(unicycle(delta), lambda k: uc, f"unicycle_drift(v={v},w={omega})")


def _mv(M, x):
    """M @ x[a] for each row, one matrix-vector product each (same rounding)."""
    return (M @ x[..., None])[..., 0]


def linear(A, B) -> Model:
    """x+ = A x + B u."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    p, m = B.shape

    return Model(
        p, m,
        step_fn=lambda x, u, k: _mv(A, x) + _mv(B, u),
        jac_fn=lambda X, U, k0: (np.tile(A, X.shape[:2] + (1, 1)),
                                 np.tile(B, X.shape[:2] + (1, 1))),
        second_order_fn=lambda X, U, k0, Lam: np.zeros(X.shape[:2] + (p + m, p + m)),
        name="linear",
    )


def linear_sine(A, b, amp: float = 0.01, mode: str = "sum") -> Model:
    """Follower model x+ = A x + b (u + forcing(x)) with scalar control.

    ``mode`` selects how the printed 2-vector sine nonlinearity is fed
    through the scalar control channel:

    * ``"sum"``   - forcing = amp * (sin x_1 + ... + sin x_p)  (default)
    * ``"first"`` - forcing = amp * sin x_1
    * ``"diag"``  - b is reinterpreted as diag(b) acting on the state-wise
      sine vector: x+ = A x + diag(b) (u * 1 + amp sin(x))

    The control enters linearly, so only the forcing curves f.
    """
    if mode not in ("sum", "first", "diag"):
        raise ValueError(f"unknown sine mode {mode!r}")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    p = A.shape[0]
    idx = np.arange(p)

    def jac_u(X):
        return np.tile(b[:, None], X.shape[:2] + (1, 1))

    if mode == "diag":
        Bd = np.diag(b)

        def f(x, u, k):
            return _mv(A, x) + _mv(Bd, u[:, :1] * np.ones(p) + amp * np.sin(x))

        def jac(X, U, k0):
            J = np.tile(A, X.shape[:2] + (1, 1))
            J[..., idx, idx] += b * (amp * np.cos(X))
            return J, jac_u(X)

        def so(X, U, k0, Lam):
            M = np.zeros(X.shape[:2] + (p + 1, p + 1))
            M[..., idx, idx] = Lam * b * (-amp * np.sin(X))
            return M
    else:
        comps = [0] if mode == "first" else list(range(p))

        def f(x, u, k):
            forcing = amp * sum(np.sin(x[:, a:a + 1]) for a in comps)
            return _mv(A, x) + b * (u[:, :1] + forcing)

        def jac(X, U, k0):
            G = np.zeros(X.shape)
            G[..., comps] = amp * np.cos(X[..., comps])
            return A + b[:, None] * G[..., None, :], jac_u(X)

        def so(X, U, k0, Lam):
            C = np.zeros(X.shape)
            C[..., comps] = -amp * np.sin(X[..., comps])
            # One dot product per stage (Lam[a, t] @ b), summed as the stage-wise
            # lam @ b is; a matrix-vector Lam @ b can round differently.
            lb = (Lam[..., None, :] @ b[:, None])[..., 0]
            M = np.zeros(X.shape[:2] + (p + 1, p + 1))
            M[..., idx, idx] = lb * C
            return M

    return Model(p, 1, f, jac, so, name=f"linear_sine({mode},amp={amp})")


def leader_sine(A, b, amp: float = 0.01, h_amp: float = 0.1,
                h_freq: float = 0.05, mode: str = "sum") -> Model:
    """Autonomous leader x+ = A x + b (forcing(x) + h_amp sin(h_freq k)): the
    ``linear_sine`` follower under the input h_amp sin(h_freq k)."""
    return _autonomous(linear_sine(A, b, amp, mode),
                       lambda k: h_amp * np.sin(h_freq * k)[..., None],
                       f"leader_sine({mode},amp={amp})")


# Matrices printed for the leader-follower experiment; shared by presets
# and tests.
FOLLOWER_A = np.array([[0.898, 0.056],
                       [0.968, -0.084]])
FOLLOWER_B = np.array([0.87, -1.8])
