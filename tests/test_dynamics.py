import dataclasses
import re
import warnings

import numpy as np
import pytest

from optcons import dynamics as dyn
from optcons.errors import NumericError


def test_unicycle_step_origin():
    m = dyn.unicycle(0.05)
    out = dyn.step(m, [[0.0, 0.0, 0.0]], [[1.0, 0.0]])
    np.testing.assert_allclose(out, [[0.05, 0.0, 0.0]])


def test_unicycle_step_quarter_turn():
    m = dyn.unicycle(0.05)
    out = dyn.step(m, [[0.0, 0.0, np.pi / 2]], [[2.0, 1.0]])
    np.testing.assert_allclose(out, [[0.0, 0.1, np.pi / 2 + 0.05]], atol=1e-15)


def test_follower_fixed_point():
    m = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode="sum")
    out = dyn.step(m, [[0.0, 0.0]], [[0.0]])
    np.testing.assert_allclose(out, [[0.0, 0.0]])


def test_leader_vanishing_forcing_at_k0():
    m = dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B)
    out = dyn.step(m, [[0.0, 0.0]], np.zeros((1, 0)), k=0)
    np.testing.assert_allclose(out, [[0.0, 0.0]])


def test_linear_jacobians_constant():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 2))
    m = dyn.linear(A, B)
    for _ in range(3):
        Ax, Bu = dyn.linearize(m, rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 2)))
        for a in range(2):
            for t in range(4):
                np.testing.assert_array_equal(Ax[a, t], A)
                np.testing.assert_array_equal(Bu[a, t], B)


def test_unicycle_linearize_hand_values():
    m = dyn.unicycle(0.05)
    A, B = dyn.linearize(m, [[[0.0, 0.0, 0.0]]], [[[1.0, 0.0]]])
    np.testing.assert_allclose(A[0, 0], [[1, 0, 0], [0, 1, 0.05], [0, 0, 1]])
    np.testing.assert_allclose(B[0, 0], [[0.05, 0], [0, 0], [0, 0.05]])


def broadcast_unicycle_jac(delta, X, U):
    """Oracle: the unicycle's (A, B) with A's identity copied from a
    broadcast eye, as the model first built it."""
    v = U[..., 0]
    s, c = np.sin(X[..., 2]), np.cos(X[..., 2])
    A = np.broadcast_to(np.eye(3), X.shape[:2] + (3, 3)).copy()
    A[..., 0, 2] = -delta * v * s
    A[..., 1, 2] = delta * v * c
    B = np.zeros(X.shape[:2] + (3, 2))
    B[..., 0, 0] = delta * c
    B[..., 1, 0] = delta * s
    B[..., 2, 1] = delta
    return A, B


@pytest.mark.parametrize("shape", [(1, 1), (4, 8), (3, 33)])
def test_unicycle_jac_is_fresh_and_equals_broadcast_formula(shape):
    rng = np.random.default_rng(shape[1])
    m = dyn.unicycle(0.05)
    for _ in range(3):
        X, U = rng.normal(size=shape + (3,)), rng.normal(size=shape + (2,))
        U[0, 0, 0] = -0.0  # signed zeros in A's and B's formulas
        got, again = m.jac_fn(X, U, 0), m.jac_fn(X, U, 0)
        for out, want, other in zip(got, broadcast_unicycle_jac(0.05, X, U), again):
            assert out.tobytes() == want.tobytes() and out.shape == want.shape
            assert out.flags.c_contiguous and out.flags.writeable
            assert not any(np.shares_memory(out, x) for x in (other, X, U))


def test_follower_linearize_structure():
    # d/dx of b*(u + amp(sin x1 + sin x2)) at 0 adds amp * b per column.
    m = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, amp=0.01, mode="sum")
    A, B = dyn.linearize(m, [[[0.0, 0.0]]], [[[0.0]]])
    expected = dyn.FOLLOWER_A + np.outer(dyn.FOLLOWER_B, [0.01, 0.01])
    np.testing.assert_allclose(A[0, 0], expected)
    np.testing.assert_allclose(B[0, 0], dyn.FOLLOWER_B[:, None])


def test_fd_jacobian_exact_on_linear():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 1))
    m = dyn.linear(A, B)
    for h in (1e-7, 1e-5, 1e-3):
        Af, Bf = dyn.fd_jacobian(m, rng.normal(size=2), rng.normal(size=1), h=h)
        np.testing.assert_allclose(Af, A, atol=1e-8)
        np.testing.assert_allclose(Bf, B, atol=1e-8)


def test_fd_jacobian_matches_analytic_unicycle():
    m = dyn.unicycle(0.05)
    A, B = dyn.linearize(m, [[[0.0, 0.0, 0.0]]], [[[1.0, 0.0]]])
    Af, Bf = dyn.fd_jacobian(m, [0.0, 0.0, 0.0], [1.0, 0.0], h=1e-6)
    np.testing.assert_allclose(Af, A[0, 0], atol=1e-8)
    np.testing.assert_allclose(Bf, B[0, 0], atol=1e-8)


def test_fd_jacobian_rejects_bad_step():
    m = dyn.unicycle()
    with pytest.raises(ValueError):
        dyn.fd_jacobian(m, [0.0, 0.0, 0.0], [0.0, 0.0], h=0.0)


@pytest.mark.parametrize("factory,p,m_dim", [
    (lambda: dyn.unicycle(0.05), 3, 2),
    (lambda: dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode="sum"), 2, 1),
    (lambda: dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode="first"), 2, 1),
    (lambda: dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode="diag"), 2, 1),
])
def test_jacobian_consistency_random_points(factory, p, m_dim):
    model = factory()
    rng = np.random.default_rng(123)
    X, U = [], []
    for _ in range(100):
        X.append(rng.normal(size=p))
        U.append(rng.normal(size=m_dim))
    A, B = (J[0] for J in dyn.linearize(model, [X], [U]))
    for t in range(100):
        Af, Bf = dyn.fd_jacobian(model, X[t], U[t], k=t)
        assert np.linalg.norm(A[t] - Af) / (1 + np.linalg.norm(Af)) < 1e-5
        assert np.linalg.norm(B[t] - Bf) / (1 + np.linalg.norm(Bf)) < 1e-5


def fd_second_order(model, x, u, k, lam):
    """Central differences of the row [lam @ df/dx, lam @ df/du] of the
    analytic Jacobians, step 1e-5*(1+|z|); the second-order oracle."""
    p, m = model.state_dim, model.control_dim

    def row(xv, uv):
        A, B = dyn.linearize(model, xv[None, None], uv[None, None], k)
        return np.concatenate([lam @ A[0, 0], lam @ B[0, 0]])

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


@pytest.mark.parametrize("factory,p,m_dim", [
    (lambda: dyn.unicycle(0.05), 3, 2),
    (lambda: dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode="sum"), 2, 1),
    (lambda: dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode="diag"), 2, 1),
    (lambda: dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode="first"), 2, 0),
    (lambda: dyn.unicycle_drift(0.05, v=1.2, omega=0.3), 3, 0),
])
def test_second_order_action_matches_fd(factory, p, m_dim):
    model = factory()
    rng = np.random.default_rng(5)
    X, U, Lam = [], [], []
    for _ in range(20):
        X.append(rng.normal(size=p))
        U.append(rng.normal(size=m_dim))
        Lam.append(rng.normal(size=p))
    M = dyn.second_order_action(model, [X], [U], 3, [Lam])[0]
    for t in range(20):
        Mfd = fd_second_order(model, X[t], U[t], 3 + t, Lam[t])
        assert np.abs(M[t] - Mfd).max() < 1e-6
        np.testing.assert_allclose(M[t], M[t].T)


def test_rollout_fixed_point():
    m = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B)
    traj = dyn.rollout(m, [[0.0, 0.0]], np.zeros((1, 5, 1)))
    np.testing.assert_array_equal(traj, np.zeros((1, 6, 2)))


def test_rollout_scalar_integrator():
    m = dyn.linear([[1.0]], [[1.0]])
    traj = dyn.rollout(m, [[1.0]], np.ones((1, 3, 1)))
    np.testing.assert_allclose(traj.ravel(), [1, 2, 3, 4])


def test_rollout_unicycle_two_steps():
    m = dyn.unicycle(0.05)
    traj = dyn.rollout(m, [[0.0, 0.0, 0.0]], np.array([[[1.0, 0.0], [1.0, 0.0]]]))
    np.testing.assert_allclose(traj, [[[0, 0, 0], [0.05, 0, 0], [0.1, 0, 0]]])


def test_rollout_length_invariant():
    m = dyn.unicycle()
    rng = np.random.default_rng(2)
    for H in (1, 4, 9):
        traj = dyn.rollout(m, rng.normal(size=(2, 3)), rng.normal(size=(2, H, 2)))
        assert traj.shape == (2, H + 1, 3)


def test_rollout_deterministic():
    m = dyn.unicycle(0.05)
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(2, 3))
    u = rng.normal(size=(2, 6, 2))
    t1 = dyn.rollout(m, x0, u)
    t2 = dyn.rollout(m, x0, u)
    assert (t1 == t2).all()


def test_nonfinite_state_raises_with_context():
    bad = dyn.Model(1, 1, lambda x, u, k: x * np.inf,
                    lambda X, U, k0: (np.ones(X.shape[:2] + (1, 1)),
                                      np.ones(X.shape[:2] + (1, 1))),
                    lambda X, U, k0, Lam: np.zeros(X.shape[:2] + (2, 2)),
                    name="exploder")
    with pytest.raises(NumericError, match="exploder"):
        dyn.step(bad, [[1.0]], [[0.0]], k=7)
    with pytest.raises(NumericError, match="step 0"):
        dyn.rollout(bad, [[1.0]], np.zeros((1, 2, 1)))


def test_rollout_failure_names_first_bad_stage_and_keeps_its_warnings():
    # Stage 1 overflows the heading; stage 2 would take sin(inf).  The error
    # names stage 1, and the only warnings are the ones stage 1 raises when
    # stepped on its own.
    m = dyn.unicycle(1.0)
    u = np.array([[0.0, 1e308], [0.0, 1e308], [1.0, 0.0]])
    x1 = dyn.step(m, [[0.0, 0.0, 0.0]], u[:1])
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        m.step_fn(x1, u[1:2], 5)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as exc:
            dyn.rollout(m, [[0.0, 0.0, 0.0]], u[None], k0=4)
    assert str(exc.value) == f"rollout failed at step 1: {m.name}: non-finite state at k=5"
    assert alone
    assert [str(w.message) for w in seen] == [str(w.message) for w in alone]


def test_rollout_and_step_name_the_first_failing_row():
    # Row 0 overflows at stage 5 and row 1 at stage 2: the error is row 0's,
    # with the text and warnings of its stack of one, though row 1 fails at
    # an earlier stage; a step names its first non-finite row too.
    m = dyn.linear([[1.0]], [[1.0]])
    u = np.zeros((2, 8, 1))
    u[0, 4:6] = u[1, 1:3] = 1e308
    outcomes = []
    for rows in (slice(0, 1), slice(None)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as exc:
                dyn.rollout(m, np.zeros((2, 1))[rows], u[rows], k0=3)
        outcomes.append((str(exc.value), exc.value.row, [str(w.message) for w in seen]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == ("rollout failed at step 5: linear: non-finite state at k=8", 0)
    assert outcomes[0][2]
    with pytest.raises(NumericError, match=r"^linear: non-finite state at k=2$") as exc:
        dyn.step(m, [[0.0], [np.inf], [np.inf]], np.zeros((3, 1)), 2)
    assert exc.value.row == 1


def test_rollout_rejects_misshapen_initial_state():
    m = dyn.unicycle()
    for x0 in ([1.0], 1.0, np.zeros(4), np.zeros((1, 4)), np.zeros(3)):
        with pytest.raises(ValueError, match="initial state"):
            dyn.rollout(m, x0, np.zeros((1, 2, 2)))


def test_a_step_of_the_wrong_shape_is_rejected():
    # step and rollout check what the model's step function returns before
    # they use it.
    base = dyn.linear(np.eye(2), np.eye(2))
    model = dataclasses.replace(base, step_fn=lambda X, U, k: X[:, :1])
    with pytest.raises(ValueError, match=rf"^{re.escape(model.name)}: step returned "
                                         rf"shape \(1, 1\)$"):
        dyn.step(model, [[0.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match=rf"^{re.escape(model.name)}: step returned "
                                         rf"shape \(3, 1\)$"):
        dyn.rollout(model, np.zeros((3, 2)), np.zeros((3, 4, 2)))


def test_step_dimension_mismatch():
    m = dyn.unicycle()
    with pytest.raises(ValueError, match="step inputs have shapes"):
        dyn.step(m, [[0.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="step inputs have shapes"):
        dyn.step(m, [[0.0, 0.0, 0.0]], [[0.0]])
    with pytest.raises(ValueError, match="step inputs have shapes"):
        dyn.step(m, [[0.0, 0.0, 0.0]] * 2, [[0.0, 0.0]])
    with pytest.raises(ValueError, match="step inputs have shapes"):
        dyn.step(m, [0.0, 0.0, 0.0], [0.0, 0.0])


# The per-stage formulas that the window functions replaced, kept as
# oracles.  Each returns (df/dx, df/du, lam-weighted second derivatives) at
# one stage; the window stacks must equal them bit for bit, signs of zeros
# included, so that runs stay byte-identical.

def stage_unicycle(delta, v_fixed=None):
    def at(x, u, k, lam):
        _, _, th = x
        v = u[0] if v_fixed is None else v_fixed
        jx = np.array([[1.0, 0.0, -delta * v * np.sin(th)],
                       [0.0, 1.0, delta * v * np.cos(th)],
                       [0.0, 0.0, 1.0]])
        ju = np.array([[delta * np.cos(th), 0.0],
                       [delta * np.sin(th), 0.0],
                       [0.0, delta]])
        M = np.zeros((5, 5))
        s, c = np.sin(th), np.cos(th)
        M[2, 2] = lam[0] * (-delta * v * c) + lam[1] * (-delta * v * s)
        M[2, 3] = M[3, 2] = lam[0] * (-delta * s) + lam[1] * (delta * c)
        if v_fixed is None:
            return jx, ju, M
        return jx, np.zeros((3, 0)), M[:3, :3]
    return at


def stage_linear(A, B):
    p, m = B.shape
    return lambda x, u, k, lam: (A, B, np.zeros((p + m, p + m)))


def stage_sine(A, b, amp, mode, m):
    p = A.shape[0]
    comps = [0] if mode == "first" else range(p)

    def at(x, u, k, lam):
        M = np.zeros((p + m, p + m))
        if mode == "diag":
            jx = A + np.diag(b) @ np.diag(amp * np.cos(x))
            for a in range(p):
                M[a, a] = lam[a] * b[a] * (-amp * np.sin(x[a]))
        else:
            g, c = np.zeros(p), np.zeros(p)
            for a in comps:
                g[a] = amp * np.cos(x[a])
                c[a] = -amp * np.sin(x[a])
            jx = A + np.outer(b, g)
            lb = float(lam @ b)
            for a in range(p):
                M[a, a] = lb * c[a]
        ju = b[:, None].copy() if m else np.zeros((p, 0))
        return jx, ju, M
    return at


LIN_A = np.array([[0.5, 0.0, -1.25], [2.0, 1.0, 0.0], [0.0, -0.75, 1.0]])
LIN_B = np.array([[1.0, 0.0], [0.0, -2.0], [0.5, 0.25]])
FA, FB = dyn.FOLLOWER_A, dyn.FOLLOWER_B
WINDOW_MODELS = {
    "unicycle": lambda: (dyn.unicycle(0.05), stage_unicycle(0.05)),
    "unicycle_drift": lambda: (dyn.unicycle_drift(0.05, v=-0.8, omega=0.2),
                               stage_unicycle(0.05, v_fixed=np.float64(-0.8))),
    "linear": lambda: (dyn.linear(LIN_A, LIN_B), stage_linear(LIN_A, LIN_B)),
    **{f"linear_sine:{mode}": (lambda mode=mode: (
        dyn.linear_sine(FA, FB, amp=0.01, mode=mode), stage_sine(FA, FB, 0.01, mode, 1)))
       for mode in ("sum", "first", "diag")},
    **{f"leader_sine:{mode}": (lambda mode=mode: (
        dyn.leader_sine(FA, FB, amp=0.01, mode=mode), stage_sine(FA, FB, 0.01, mode, 0)))
       for mode in ("sum", "first", "diag")},
}


def assert_bits_equal(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def signed_with_zeros(rng, shape, scale):
    """Normal draws of either sign with about a fifth exact +0 or -0."""
    out = rng.normal(size=shape) * scale
    zero = rng.random(shape) < 0.2
    out[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return out


@pytest.mark.parametrize("H", [1, 2, 8, 64])
@pytest.mark.parametrize("kind", list(WINDOW_MODELS))
def test_window_derivatives_equal_stage_formulas(kind, H):
    model, at = WINDOW_MODELS[kind]()
    p, m = model.state_dim, model.control_dim
    rng = np.random.default_rng(H)
    K = 3
    X = signed_with_zeros(rng, (K, H, p), 3.0)
    U = signed_with_zeros(rng, (K, H, m), 2.0)
    Lam = signed_with_zeros(rng, (K, H, p), 10.0)
    k0 = int(rng.integers(0, 40))
    A, B = dyn.linearize(model, X, U, k0)
    M = dyn.second_order_action(model, X, U, k0, Lam)
    assert A.shape == (K, H, p, p) and B.shape == (K, H, p, m)
    assert M.shape == (K, H, p + m, p + m)
    assert A.flags.c_contiguous and B.flags.c_contiguous and M.flags.c_contiguous
    for a in range(K):
        for t in range(H):
            jx, ju, Mt = at(X[a, t], U[a, t], k0 + t, Lam[a, t])
            assert_bits_equal(A[a, t], jx)
            assert_bits_equal(B[a, t], ju)
            assert_bits_equal(M[a, t], Mt)


def test_window_shapes_checked():
    m = dyn.unicycle()
    with pytest.raises(ValueError, match="window inputs"):
        dyn.linearize(m, np.zeros((1, 3, 3)), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="window inputs"):
        dyn.linearize(m, np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="window inputs"):
        dyn.second_order_action(m, np.zeros((1, 2, 3)), np.zeros((1, 2, 2)), 0,
                                np.zeros((1, 2, 2)))
    broken = dyn.Model(3, 2, m.step_fn,
                       lambda X, U, k0: m.jac_fn(X[:, :1], U[:, :1], k0),
                       lambda X, U, k0, Lam: np.zeros(X.shape[:2] + (5, 4)), name="broken")
    with pytest.raises(ValueError, match="broken: jac returned"):
        dyn.linearize(broken, np.zeros((1, 2, 3)), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="broken: second_order returned"):
        dyn.second_order_action(broken, np.zeros((1, 2, 3)), np.zeros((1, 2, 2)), 0,
                                np.zeros((1, 2, 3)))


@pytest.mark.parametrize("case", ["exact", "within", "beyond", "nonfinite"])
def test_second_order_action_holds_curvature_symmetric(case):
    # Rows 0 and 3 of M are exactly symmetric; rows 1 and 2 break it (or hold
    # a nan) from stages 5 and 2 on.  An exact M comes back as the model
    # returned it.  Rows asymmetric within 1e-8 relative come back
    # symmetrized, the others untouched.  Beyond that, or with a nan, the
    # error has row 1 and that row's own first stage, and reads as row 1's
    # stack of one's.
    K, H, k0 = 4, 8, 10
    M = np.random.default_rng(3).normal(size=(K, H, 3, 3))
    M += M.swapaxes(-1, -2)
    for a, t in [(1, 5), (2, 2)]:
        if case == "nonfinite":
            M[a, t, 0, 1] = np.nan
        elif case != "exact":
            M[a, t:, 0, 1] *= 1.0 + {"within": 1e-12, "beyond": 1e-3}[case]
    # Row a's windows start at state (a, 0), which picks its rows of M.
    model = dataclasses.replace(dyn.linear(np.eye(2), np.ones((2, 1))),
                                second_order_fn=lambda X, U, k0, Lam:
                                M[X[:, 0, 0].astype(int)].copy())
    X = np.zeros((K, H, 2))
    X[..., 0] = np.arange(K)[:, None]
    U, Lam = np.zeros((K, H, 1)), np.zeros((K, H, 2))
    if case in ("exact", "within"):
        got = dyn.second_order_action(model, X, U, k0, Lam)
        want = M.copy()
        want[1:3] = 0.5 * (M[1:3] + M[1:3].swapaxes(-1, -2))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, got.swapaxes(-1, -2))
        return
    errors = []
    for rows in (slice(None), slice(1, 2)):
        with pytest.raises(NumericError) as err:
            dyn.second_order_action(model, X[rows], U[rows], k0, Lam[rows])
        errors.append((str(err.value), err.value.row))
    assert [row for _, row in errors] == [1, 0]
    assert errors[0][0] == errors[1][0]
    what = ("non-finite second-order action" if case == "nonfinite"
            else r"second-order action asymmetric by \d\.\d\de-0\d")
    assert re.fullmatch(f"linear: {what} at k={k0 + 5}", errors[0][0])


@pytest.mark.parametrize("entry", ["A", "B"])
def test_linearize_names_the_failing_rows_own_stage(entry):
    # Rows 1 and 2 hold a nan in df/dx or df/du at stages 5 and 2: the error
    # has row 1 and that row's own first such stage, not the first over all
    # rows, and reads as row 1's stack of one's.
    K, H, k0 = 4, 8, 10
    base = dyn.linear(np.eye(2), np.ones((2, 1)))

    def jac(X, U, k0):
        A, B = base.jac_fn(X, U, k0)
        for a, t in [(1, 5), (2, 2)]:
            (A if entry == "A" else B)[X[:, 0, 0] == a, t, 0, 0] = np.nan
        return A, B

    model = dataclasses.replace(base, jac_fn=jac)
    X = np.zeros((K, H, 2))
    X[..., 0] = np.arange(K)[:, None]
    U = np.zeros((K, H, 1))
    errors = []
    for rows in (slice(None), slice(1, 2)):
        with pytest.raises(NumericError) as err:
            dyn.linearize(model, X[rows], U[rows], k0)
        errors.append((str(err.value), err.value.row))
    assert errors == [(f"linear: non-finite Jacobian at k={k0 + 5}", 1),
                      (f"linear: non-finite Jacobian at k={k0 + 5}", 0)]


# The per-agent step formulas that the stacked step functions replaced, kept
# as oracles: a rollout of a stack of agents must equal, row for row and bit
# for bit, stepping each agent alone through these.

def step_unicycle(delta, v_fixed=None, w_fixed=None):
    def f(x, u, k):
        px, py, th = x
        v, w = (u if v_fixed is None else (v_fixed, w_fixed))
        return np.array([px + delta * v * np.cos(th),
                         py + delta * v * np.sin(th),
                         th + delta * w])
    return f


def step_sine(A, b, amp, mode, leader, h_amp=0.1, h_freq=0.05):
    p = A.shape[0]
    comps = [0] if mode == "first" else list(range(p))

    def f(x, u, k):
        drive = h_amp * np.sin(h_freq * k) if leader else u[0]
        if mode == "diag":
            forcing = amp * np.sin(x)
            return A @ x + np.diag(b) @ ((forcing + drive * np.ones(p)) if leader
                                         else (drive * np.ones(p) + forcing))
        value = amp * sum(np.sin(x[a]) for a in comps)
        return A @ x + b * ((value + drive) if leader else (drive + value))
    return f


STEP_ORACLES = {
    "unicycle": lambda: (dyn.unicycle(0.05), step_unicycle(0.05)),
    "unicycle_drift": lambda: (dyn.unicycle_drift(0.05, v=-0.8, omega=0.2),
                               step_unicycle(0.05, -0.8, 0.2)),
    "linear": lambda: (dyn.linear(LIN_A, LIN_B), lambda x, u, k: LIN_A @ x + LIN_B @ u),
    **{f"linear_sine:{mode}": (lambda mode=mode: (
        dyn.linear_sine(FA, FB, amp=0.01, mode=mode), step_sine(FA, FB, 0.01, mode, False)))
       for mode in ("sum", "first", "diag")},
    **{f"leader_sine:{mode}": (lambda mode=mode: (
        dyn.leader_sine(FA, FB, amp=0.01, mode=mode), step_sine(FA, FB, 0.01, mode, True)))
       for mode in ("sum", "first", "diag")},
}


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("kind", list(STEP_ORACLES))
def test_stacked_rollout_equals_per_agent_steps(kind, K):
    model, f = STEP_ORACLES[kind]()
    p, m = model.state_dim, model.control_dim
    rng = np.random.default_rng(K)
    H, k0 = 16, int(rng.integers(0, 40))
    x0 = signed_with_zeros(rng, (K, p), 2.0)
    u = signed_with_zeros(rng, (K, H, m), 1.0)
    trajs = dyn.rollout(model, x0, u, k0)
    assert trajs.shape == (K, H + 1, p)
    for a in range(K):
        x = x0[a]
        assert_bits_equal(trajs[a, 0], x)
        for t in range(H):
            x = f(x, u[a, t], k0 + t)
            assert_bits_equal(trajs[a, t + 1], x)
        assert_bits_equal(dyn.step(model, trajs[a:a + 1, H - 1], u[a:a + 1, H - 1],
                                   k0 + H - 1)[0], trajs[a, H])
    assert_bits_equal(dyn.step(model, trajs[:, H - 1], u[:, H - 1], k0 + H - 1),
                      trajs[:, H])


def stage_loop(model):
    """The model with its step function wrapped, so that rollout steps it
    stage by stage instead of through its window function."""
    return dataclasses.replace(model, step_fn=lambda x, u, k: model.step_fn(x, u, k))


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("kind", ["unicycle", "unicycle_drift"])
def test_window_function_equals_stage_loop(kind, K):
    # The running sums fill every stepped stage as the step_fn loop does, bit
    # for bit, from a cold start (s = 0) and after s known stages; each row
    # equals its stack of one.
    model, _ = STEP_ORACLES[kind]()
    loop = stage_loop(model)
    assert hasattr(model.step_fn, "window") and not hasattr(loop.step_fn, "window")
    p, m = model.state_dim, model.control_dim
    rng = np.random.default_rng(10 + K)
    H, k0 = 8, int(rng.integers(0, 40))
    x0 = signed_with_zeros(rng, (K, p), 2.0)
    u = signed_with_zeros(rng, (K, H, m), 1.0)
    full = dyn.rollout(loop, x0, u, k0)
    for s in (0, 1, H - 1):
        known = full[:, 1:s + 1] if s else None
        assert_bits_equal(dyn.rollout(model, x0, u, k0, known), full)
        stepped = full.copy()
        stepped[:, s + 1:] = np.nan
        model.step_fn.window(stepped[:, s:], u[:, s:], k0 + s)
        assert_bits_equal(stepped, full)
        for a in range(K):
            one = dyn.rollout(model, x0[a:a + 1], u[a:a + 1], k0,
                              None if known is None else known[a:a + 1])
            assert_bits_equal(one[0], full[a])


def test_overflow_after_known_stages_fails_as_the_stage_loop_does():
    # Row 1's heading overflows at stage 5, three stages after the known
    # ones, and stage 6 takes cos(inf).  The running sums and the stage loop
    # name the same first bad stage with the same message and warnings.
    model = dyn.unicycle(1.0)
    loop = stage_loop(model)
    H, s, k0 = 6, 2, 9
    u = np.zeros((2, H, 2))
    u[:, :, 0] = 0.5
    u[1, 3:5, 1] = 1e308
    u[1, 5] = (1.0, 0.0)
    x0 = np.array([[0.0, 0.0, 0.0], [1.0, -0.0, 0.25]])
    known = dyn.rollout(model, x0, u[:, :s], k0)[:, 1:]
    outcomes = []
    for each in (model, loop):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as exc:
                dyn.rollout(each, x0, u, k0, known)
        outcomes.append((str(exc.value), [str(w.message) for w in seen]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (f"rollout failed at step 4: {model.name}: "
                              f"non-finite state at k={k0 + 4}")
    assert outcomes[0][1]


def test_rollout_rejects_misshapen_controls():
    # Controls are never reshaped: an (8, 1) window on the 2-input unicycle
    # is not 4 stages, and a (2, 3) window on a 1-input model is not 6.
    uni = dyn.unicycle()
    lin = dyn.linear([[1.0]], [[1.0]])
    for model, x0, controls in ((uni, [[0.0, 0.0, 0.0]], np.zeros((1, 8, 1))),
                                (uni, [[0.0, 0.0, 0.0]], np.zeros((8, 1))),
                                (uni, [[0.0, 0.0, 0.0]], np.zeros((1, 4, 2, 1))),
                                (lin, [[0.0]], np.zeros((1, 2, 3))),
                                (lin, [[0.0]], np.zeros((2, 3))),
                                (lin, [[0.0], [1.0]], np.zeros((1, 2, 1)))):
        with pytest.raises(ValueError, match="controls have shape"):
            dyn.rollout(model, x0, controls)


# The leader factories as they were written before the leaders became
# followers under a fixed input, kept as oracles: the driven followers must
# equal them bit for bit.

def old_unicycle_drift(delta=0.05, v=0.5, omega=0.0):
    base = dyn.unicycle(delta)
    uc = np.array([v, omega])

    def f(x, u, k):
        return base.step_fn(x, np.broadcast_to(uc, (len(x), 2)), k)

    def jac(X, U, k0):
        A, _ = base.jac_fn(X, np.broadcast_to(uc, X.shape[:2] + (2,)), k0)
        return A, np.zeros(X.shape[:2] + (3, 0))

    def so(X, U, k0, Lam):
        M = base.second_order_fn(X, np.broadcast_to(uc, X.shape[:2] + (2,)), k0, Lam)
        return np.ascontiguousarray(M[..., :3, :3])

    return f, jac, so


def old_leader_sine(A, b, amp=0.01, h_amp=0.1, h_freq=0.05, mode="sum"):
    p = A.shape[0]
    idx = np.arange(p)
    comps = [0] if mode == "first" else list(range(p))

    def value(x):
        return amp * sum(np.sin(x[:, a:a + 1]) for a in comps)

    def h(k):
        return h_amp * np.sin(h_freq * k)

    if mode == "diag":
        Bd = np.diag(b)

        def f(x, u, k):
            return dyn._mv(A, x) + dyn._mv(Bd, amp * np.sin(x) + h(k) * np.ones(p))

        def jac(X, U, k0):
            J = np.tile(A, X.shape[:2] + (1, 1))
            J[..., idx, idx] += b * (amp * np.cos(X))
            return J, np.zeros(X.shape[:2] + (p, 0))

        def so(X, U, k0, Lam):
            M = np.zeros(X.shape[:2] + (p, p))
            M[..., idx, idx] = Lam * b * (-amp * np.sin(X))
            return M

        return f, jac, so

    def f(x, u, k):
        return dyn._mv(A, x) + b * (value(x) + h(k))

    def jac(X, U, k0):
        G = np.zeros(X.shape)
        G[..., comps] = amp * np.cos(X[..., comps])
        return A + b[:, None] * G[..., None, :], np.zeros(X.shape[:2] + (p, 0))

    def so(X, U, k0, Lam):
        C = np.zeros(X.shape)
        C[..., comps] = -amp * np.sin(X[..., comps])
        lb = (Lam[..., None, :] @ b[:, None])[..., 0]
        M = np.zeros(X.shape[:2] + (p, p))
        M[..., idx, idx] = lb * C
        return M

    return f, jac, so


LEADER_ORACLES = {
    "unicycle_drift": lambda amp: (dyn.unicycle_drift(0.05, v=-0.8, omega=0.2),
                                   old_unicycle_drift(0.05, v=-0.8, omega=0.2)),
    **{f"leader_sine:{mode}": (lambda amp, mode=mode: (
        dyn.leader_sine(FA, FB, amp=amp, h_amp=0.3, mode=mode),
        old_leader_sine(FA, FB, amp=amp, h_amp=0.3, mode=mode)))
       for mode in ("sum", "first", "diag")},
}


@pytest.mark.parametrize("amp", [0.01, 0.7])
@pytest.mark.parametrize("kind", list(LEADER_ORACLES))
def test_driven_leaders_equal_old_factories(kind, amp):
    model, (f, jac, so) = LEADER_ORACLES[kind](amp)
    p = model.state_dim
    assert model.control_dim == 0
    rng = np.random.default_rng(int(amp * 100))
    for _ in range(200):
        K, H, k0 = int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(0, 500))
        x = signed_with_zeros(rng, (K, p), 3.0)
        X = signed_with_zeros(rng, (K, H, p), 3.0)
        Lam = signed_with_zeros(rng, (K, H, p), 10.0)
        U = np.zeros((K, H, 0))
        assert_bits_equal(model.step_fn(x, np.zeros((K, 0)), k0), f(x, None, k0))
        for new, old in zip(model.jac_fn(X, U, k0), jac(X, U, k0)):
            assert new.shape == old.shape
            assert_bits_equal(new, old)
        new, old = model.second_order_fn(X, U, k0, Lam), so(X, U, k0, Lam)
        assert new.shape == old.shape and new.flags.c_contiguous
        assert_bits_equal(new, old)


@pytest.mark.parametrize("factory, A, B, message", [
    (dyn.linear, np.eye(2), np.ones((3, 1)), r"B has shape \(3, 1\), expected \(2, m\)"),
    (dyn.linear, np.ones((2, 3)), np.ones((2, 1)), r"A has shape \(2, 3\), expected a square"),
    (dyn.linear, np.ones(2), np.ones((2, 1)), r"A has shape \(2,\), expected a square"),
    (dyn.linear, np.eye(2), 1.0, r"B has shape \(\), expected \(2, m\)"),
    (dyn.linear_sine, np.eye(2), np.ones(3), "b has 3 entries, expected 2"),
    (dyn.leader_sine, np.eye(2), np.ones(3), "b has 3 entries, expected 2"),
    (dyn.leader_sine, np.ones((1, 2, 2)), np.ones(2), r"A has shape \(1, 2, 2\)"),
])
def test_linear_factories_refuse_shapes_that_disagree(factory, A, B, message):
    with pytest.raises(ValueError, match=message):
        factory(A, B)


def test_linear_factories_take_a_column_b_and_no_controls():
    assert (dyn.linear(np.eye(2), [1.0, 0.0]).control_dim,
            dyn.linear(np.eye(2), np.zeros((2, 0))).control_dim,
            dyn.linear_sine(np.eye(2), [[1.0], [0.0]]).state_dim) == (1, 0, 2)
