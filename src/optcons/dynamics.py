"""Agent dynamics, Jacobians, rollouts, and the built-in models.

Conventions used package-wide:

* a state trajectory is an ``(H+1, p)`` array, a control sequence an
  ``(H, m)`` array with ``H`` controls; flattening is time-major
  (``controls.reshape(-1)``, u(0) first);
* ``step``, ``rollout``, the window functions and a Model's own functions
  take a stack of K agents along a leading axis, e.g. states ``(K, p)``,
  windows ``(K, H, m)``; one agent is a stack of one;
* ``step(x, u, k)`` maps states x and controls u at time index k to the
  next states; k only matters for time-varying (leader) models;
* ``rollout`` steps windows by the model's optional ``step_fn.window``
  (the unicycle's running sums), bit for bit as the ``step_fn`` loop;
* a model's optional ``step_fn.stages`` evaluates f at every stage of
  windows in one call (see ``Model``); it is no rollout;
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
      of Lam[a, t]-weighted second derivatives of f, symmetric blocks
      ordered state-then-control (``second_order_action`` checks them).

    Both return fresh C-contiguous arrays.

    An optional ``step_fn.window(X, U, k)`` fills stages 1..L of states X
    (K, L+1, p) in place from stage 0 under controls U (K, L, m), stage t at
    time k + t, bit for bit as L ``step_fn`` calls.  An optional
    ``step_fn.stages(X, U, k0)``, shaped like ``jac_fn``, returns f at every
    stage as (K, H, p), the next states of X (K, H, p) under U (K, H, m)
    with stage t at time k0 + t; ``adjoint.newton_rollout`` solves a
    window's stage defects with it.  A replaced ``step_fn`` drops both.
    """

    state_dim: int
    control_dim: int
    step_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    jac_fn: Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray]]
    second_order_fn: Callable[[np.ndarray, np.ndarray, int, np.ndarray], np.ndarray]
    name: str = "model"


def _check_inputs(model: Model, kind: str, X, U, *extra):
    """A stack's stage inputs as float arrays: X (*L, p), U (*L, m) and every
    extra array (*L, p), with L = (K,) for a "step" and (K, H) for a
    "window".  Returns L and the arrays."""
    arrays = [np.asarray(a, dtype=float) for a in (X, U) + extra]
    L, p = arrays[0].shape[:1 + (kind == "window")], model.state_dim
    expected = (L + (p,), L + (model.control_dim,)) + (L + (p,),) * len(extra)
    shapes = tuple(a.shape for a in arrays)
    if shapes != expected:
        raise ValueError(f"{model.name}: {kind} inputs have shapes {shapes}, "
                         f"expected {expected}")
    return L, arrays


def step(model: Model, x, u, k: int = 0) -> np.ndarray:
    """Evaluate x(k+1) = f(x, u, k) for a stack of K agents, states x (K, p)
    and controls u (K, m); returns (K, p), validating shapes; a non-finite
    state raises NumericError with the first such ``row``."""
    (K,), (x, u) = _check_inputs(model, "step", x, u)
    out = np.asarray(model.step_fn(x, u, k), dtype=float)
    if out.shape != (K, model.state_dim):
        raise ValueError(f"{model.name}: step returned shape {out.shape}")
    if not np.isfinite(out).all():
        a = int(np.isfinite(out).all(axis=1).argmin())
        raise NumericError(f"{model.name}: non-finite state at k={k}", row=a)
    return out


def linearize(model: Model, X, U, k0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stage Jacobians of a stack of windows: (df/dx, df/du) at (X[a, t],
    U[a, t], k0 + t), stacked as (K, H, p, p) and (K, H, p, m); a row with
    a non-finite entry raises NumericError with that ``row``, naming its
    own first such stage's time k0 + t, as its stack of one would."""
    KH, (X, U) = _check_inputs(model, "window", X, U)
    p, m = model.state_dim, model.control_dim
    A, B = model.jac_fn(X, U, k0)
    if (A.shape, B.shape) != (KH + (p, p), KH + (p, m)):
        raise ValueError(f"{model.name}: jac returned shapes {A.shape} and {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        bad = ~(np.isfinite(A).all(axis=(2, 3)) & np.isfinite(B).all(axis=(2, 3)))
        a = int(bad.any(axis=1).argmax())
        raise NumericError(f"{model.name}: non-finite Jacobian at k={k0 + bad[a].argmax()}",
                           row=a)
    return A, B


def fd_jacobian(model: Model, x, u, k: int = 0, h: float = 1e-6):
    """Central-difference Jacobians of step at one stage, x (p,) and u (m,);
    oracle for linearize.  The 2(p+m) perturbed points are one stack."""
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    p, m = model.state_dim, model.control_dim
    ex, eu = h * np.eye(p), h * np.eye(m)
    out = step(model, np.concatenate([x + ex, x - ex, np.tile(x, (2 * m, 1))]),
               np.concatenate([np.tile(u, (2 * p, 1)), u + eu, u - eu]), k)
    A = (out[:p] - out[p:2 * p]) / (2.0 * h)
    B = (out[2 * p:2 * p + m] - out[2 * p + m:]) / (2.0 * h)
    return A.T.copy(), B.T.copy()


def second_order_action(model: Model, X, U, k0: int, Lam) -> np.ndarray:
    """(K, H, p+m, p+m) stack of the Lam[a, t]-weighted second derivatives of
    f at (X[a, t], U[a, t], k0 + t), Lam holding lambda(1..H), and the one
    check that curvature is symmetric: an exactly symmetric M is returned as
    it is, a row asymmetric within 1e-8 relative (Frobenius) symmetrized; a
    row beyond that, or non-finite, raises NumericError with that ``row``,
    naming its own first such stage's time, as its stack of one would."""
    KH, (X, U, Lam) = _check_inputs(model, "window", X, U, Lam)
    M = model.second_order_fn(X, U, k0, Lam)
    if M.shape != KH + (model.state_dim + model.control_dim,) * 2:
        raise ValueError(f"{model.name}: second_order returned shape {M.shape}")
    MT = M.swapaxes(-1, -2)
    if np.isfinite(M).all() and (M == MT).all():
        return M
    bad, drift = ~np.isfinite(M).all(axis=(2, 3)), None  # bad: (K, H) failing stages
    if not bad.any():
        drift, scale = (np.square(S).sum(axis=(1, 2, 3)) for S in (M - MT, M))
        fix = (drift > 0) & (drift <= 1e-16 * scale)
        M[fix] = 0.5 * (M[fix] + MT[fix])
        bad = (M != MT).any(axis=(2, 3))
    if bad.any():
        a = int(bad.any(axis=1).argmax())
        what = ("non-finite second-order action" if drift is None else
                f"second-order action asymmetric by {np.sqrt(drift[a] / scale[a]):.2e}")
        raise NumericError(f"{model.name}: {what} at k={k0 + bad[a].argmax()}", row=a)
    return M


def rollout(model: Model, x0, controls, k0: int = 0, known=None) -> np.ndarray:
    """Simulate H steps of a stack of K agents from x0 (K, p) under controls
    (K, H, m); returns the (K, H+1, p) state trajectories.

    ``known`` (K, s, p), s < H, gives stages 1..s when they are already
    known (a warm window's shifted predecessor); stepping starts at stage s.
    The model's window function, if it has one, steps two or more stages at
    once; otherwise ``step_fn`` runs once per stepped stage on the whole
    stack, its output shape compared each time.  Finiteness is checked once
    for all stepped stages.  Floating-point warnings are held back while
    stepping: a non-finite state raises NumericError with the first failing
    ``row``, naming that row's first failing stage, which ``step_fn`` steps
    again, the row alone, so that its warnings surface, as its stack of one.
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
    window = getattr(f, "window", None)
    with np.errstate(all="ignore"):
        if window is not None and H - s > 1:
            window(states[:, s:], controls[:, s:], k0 + s)
        else:
            for t in range(s, H):
                out = f(states[:, t], controls[:, t], k0 + t)
                if out.shape != (K, p):
                    raise ValueError(f"{model.name}: step returned shape {out.shape}")
                states[:, t + 1] = out
    if not np.isfinite(states[:, s + 1:]).all():
        bad = ~np.isfinite(states[:, s + 1:]).all(axis=2)  # (K, H-s) failing stages
        a = int(bad.any(axis=1).argmax())
        t = s + int(bad[a].argmax())
        f(states[a:a + 1, t], controls[a:a + 1, t], k0 + t)
        raise NumericError(f"rollout failed at step {t}: {model.name}: "
                           f"non-finite state at k={k0 + t}", row=a)
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

    def window(X, U, k):
        # Running sums in f's order: the headings first, then x and y from
        # (delta * v) * cos/sin of the heading each stage starts from.
        X[:, 1:, 2] = delta * U[..., 1]
        np.add.accumulate(X[..., 2], axis=1, out=X[..., 2])
        dv, th = delta * U[..., 0], X[:, :-1, 2]
        X[:, 1:, 0] = dv * np.cos(th)
        X[:, 1:, 1] = dv * np.sin(th)
        np.add.accumulate(X[..., :2], axis=1, out=X[..., :2])

    f.window = window

    def jac(X, U, k0):
        v = U[..., 0]
        s, c = np.sin(X[..., 2]), np.cos(X[..., 2])
        A = np.zeros(X.shape[:2] + (3, 3))
        A.reshape(-1, 9)[:, ::4] = 1.0  # every stage's identity
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

    base_window = getattr(base.step_fn, "window", None)
    if base_window is not None:
        f.window = lambda X, U, k: base_window(X, schedule(U, k), k)

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


def _square(A) -> np.ndarray:
    """A as a (p, p) float array; any other shape raises ValueError."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A has shape {A.shape}, expected a square matrix")
    return A


def linear(A, B) -> Model:
    """x+ = A x + B u, with A (p, p) and B (p, m) or, for m = 1, (p,)."""
    A = _square(A)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] != len(A):
        raise ValueError(f"B has shape {B.shape}, expected ({len(A)}, m) for A {A.shape}")
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

    The control enters linearly, so only the forcing curves f.  A is
    (p, p) and b has p entries.
    """
    if mode not in ("sum", "first", "diag"):
        raise ValueError(f"unknown sine mode {mode!r}")
    A = _square(A)
    b = np.asarray(b, dtype=float).reshape(-1)
    p = A.shape[0]
    if b.size != p:
        raise ValueError(f"b has {b.size} entries, expected {p} for A {A.shape}")
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
            # sum()'s left fold; "+ 0.0" maps -0.0 to 0.0 as its start 0 does.
            s = np.sin(x[:, :len(comps)])
            forcing = s[:, :1] + 0.0
            for a in comps[1:]:
                forcing += s[:, a:a + 1]
            return _mv(A, x) + b * (u[:, :1] + amp * forcing)

        def jac(X, U, k0):
            G = np.zeros(X.shape)
            G[..., :len(comps)] = amp * np.cos(X[..., :len(comps)])
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

    def stages(X, U, k0):
        # f ignores k: every window's stages are the rows of one call.
        return f(X.reshape(-1, p), U.reshape(-1, 1), k0).reshape(X.shape)

    f.stages = stages
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
