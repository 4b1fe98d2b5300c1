"""Window rollouts by Newton on the stage defects (``adjoint.newton_rollout``)
against the stage loop of ``dyn.rollout``."""

import warnings

import numpy as np
import pytest

from optcons import adjoint
from optcons import dynamics as dyn
from optcons.errors import NumericError


def sine_model(mode, p=3, amp=0.1, seed=0):
    """A random linear_sine follower with spectral radius 0.9."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, p))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    return dyn.linear_sine(A, rng.normal(size=p), amp, mode)


def warm_round(model, K, H, steps, k0=3, seed=1):
    """A warm round's inputs: the new windows us (K, H, m), each row the
    previous round's moved by ``steps[a]`` times a random step, and that
    round's rollouts and the band of L from their state Jacobians."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(K, model.state_dim))
    before = rng.normal(size=(K, H, model.control_dim))
    guess = dyn.rollout(model, x0, before, k0)
    A, _ = dyn.linearize(model, guess[:, :H], before, k0)
    us = before + np.reshape(steps, (K, 1, 1)) * rng.normal(size=before.shape)
    return us, k0, guess, adjoint._lower_band(A)


def first_iterate(model, us, k0, guess, band):
    """The first Newton step from the guess, L^-1 [0; F], in stages 1..H:
    for these control-affine models, the state change that
    ``solver.banded_direction``'s state responses predict."""
    H = us.shape[1]
    rhs = np.zeros(guess.shape)
    rhs[:, 1:] = model.step_fn.stages(guess[:, :H], us, k0) - guess[:, 1:]
    x = adjoint._band_solve(band, rhs.reshape(-1, 1), "N")
    return x.reshape(guess.shape)[:, 1:]


def spy(monkeypatch, name):
    """The calls that newton_rollout makes to dyn.<name>, by their args."""
    fn, calls = getattr(dyn, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(dyn, name, counted)
    return calls


@pytest.mark.parametrize("H", [16, 64])
@pytest.mark.parametrize("mode", ["sum", "first", "diag"])
def test_newton_rollout_matches_the_stage_loop(monkeypatch, mode, H):
    model = sine_model(mode)
    us, k0, guess, band = warm_round(model, 4, H, [0.02] * 4)
    loop = dyn.rollout(model, guess[:, 0], us, k0)
    rollouts = spy(monkeypatch, "rollout")
    X = adjoint.newton_rollout(model, us, k0, guess, band)
    assert not rollouts
    np.testing.assert_array_equal(X[:, 0], guess[:, 0])
    assert abs(X - loop).max() <= 1e-14 * max(1.0, abs(loop).max())


@pytest.mark.parametrize("H", [16, 64])
@pytest.mark.parametrize("mode", ["sum", "first", "diag"])
def test_a_predicted_start_matches_the_stage_loop_row_for_row(monkeypatch, mode, H):
    # Started from the predicted states, every row agrees with the stage loop
    # to rounding, without a fallback, and equals its stack of one bit for
    # bit.
    model = sine_model(mode)
    us, k0, guess, band = warm_round(model, 4, H, [0.02] * 4)
    step = first_iterate(model, us, k0, guess, band)
    loop = dyn.rollout(model, guess[:, 0], us, k0)
    rollouts = spy(monkeypatch, "rollout")
    X = adjoint.newton_rollout(model, us, k0, guess, band, step)
    assert not rollouts
    np.testing.assert_array_equal(X[:, 0], guess[:, 0])
    assert abs(X - loop).max() <= 1e-14 * max(1.0, abs(loop).max())
    for a in range(4):
        one = adjoint.newton_rollout(model, us[a:a + 1], k0, guess[a:a + 1], band[a:a + 1],
                                     step[a:a + 1])
        np.testing.assert_array_equal(one[0], X[a])


def test_only_the_rows_whose_step_did_not_shrink_are_relinearized(monkeypatch):
    # Row 0 starts from its predicted states, and its first delta is far
    # below NEWTON_THETA times the step: it keeps the guess's A.  Row 1 has
    # no step (a zero row), so it starts from the guess and is relinearized
    # alone before its second iteration.  Each equals its stack of one.
    model = sine_model("sum")
    us, k0, guess, band = warm_round(model, 2, 32, [0.002] * 2)
    step = first_iterate(model, us, k0, guess, band)
    step[1] = 0.0
    linearized = spy(monkeypatch, "linearize")
    X = adjoint.newton_rollout(model, us, k0, guess, band, step)
    assert [len(args[1]) for args in linearized] == [1]
    np.testing.assert_array_equal(linearized[0][2], us[1:2])
    for a in range(2):
        one = adjoint.newton_rollout(model, us[a:a + 1], k0, guess[a:a + 1], band[a:a + 1],
                                     step[a:a + 1])
        np.testing.assert_array_equal(one[0], X[a])
    np.testing.assert_array_equal(X[1], adjoint.newton_rollout(model, us[1:], k0, guess[1:],
                                                               band[1:])[0])


def test_a_row_equals_its_stack_of_one(monkeypatch):
    # Row 2 moves 25 times further than the others, so it needs more
    # iterations.  No row has a step before its first delta, so each is
    # relinearized once; then row 2 alone, whose second delta shrank least,
    # and the others keep their A.  The rows that stopped earlier are left
    # as they were, bit for bit.
    model = sine_model("sum")
    us, k0, guess, band = warm_round(model, 4, 32, [0.002, 0.002, 0.05, 0.002])
    rollouts, linearized = spy(monkeypatch, "rollout"), spy(monkeypatch, "linearize")
    X = adjoint.newton_rollout(model, us, k0, guess, band)
    assert not rollouts
    assert [len(args[1]) for args in linearized] == [4, 1]
    np.testing.assert_array_equal(linearized[-1][2], us[2:3])
    for a in range(4):
        one = adjoint.newton_rollout(model, us[a:a + 1], k0, guess[a:a + 1], band[a:a + 1])
        np.testing.assert_array_equal(one[0], X[a])


def test_a_non_finite_stage_fails_as_the_stage_loop_does():
    # Row 1's control overflows b u at stage 5: the Newton rollout hands the
    # stack to the stage loop, whose error, naming row 1 of the stack, and
    # overflow warning are the only ones raised.
    model = dyn.linear_sine(0.5 * np.eye(3), [4.0, -1.0, 0.5], 0.1, "first")
    us, k0, guess, band = warm_round(model, 3, 32, [0.02] * 3)
    us[1, 5] = 1e308
    outcomes = []
    for rollout in (lambda: dyn.rollout(model, guess[:, 0], us, k0),
                    lambda: adjoint.newton_rollout(model, us, k0, guess, band)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as exc:
                rollout()
        outcomes.append((str(exc.value), exc.value.row,
                         [(w.category, str(w.message)) for w in seen]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == (f"rollout failed at step 5: {model.name}: "
                               f"non-finite state at k={k0 + 5}", 1)
    assert outcomes[0][2]


def test_hitting_the_cap_returns_the_stage_loop(monkeypatch):
    # Two iterations do not settle rows that moved this far; their result is
    # then the stage loop's, bit for bit.
    monkeypatch.setattr(adjoint, "NEWTON_MAX_ITER", 2)
    model = sine_model("diag")
    us, k0, guess, band = warm_round(model, 4, 16, [1.0] * 4)
    rollouts = spy(monkeypatch, "rollout")
    X = adjoint.newton_rollout(model, us, k0, guess, band)
    assert len(rollouts) == 1
    np.testing.assert_array_equal(X, dyn.rollout(model, guess[:, 0], us, k0))


def test_a_row_at_the_cap_leaves_the_others_their_stacks_of_one(monkeypatch):
    # Row 1 moved so far that it is still moving at the cap: it alone is
    # rolled out by the stage loop, and every row equals its stack of one.
    monkeypatch.setattr(adjoint, "NEWTON_MAX_ITER", 3)
    model = sine_model("diag")
    us, k0, guess, band = warm_round(model, 4, 16, [1e-4, 1.0, 1e-4, 1e-4])
    loop = dyn.rollout(model, guess[:, 0], us, k0)
    rollouts = spy(monkeypatch, "rollout")
    X = adjoint.newton_rollout(model, us, k0, guess, band)
    assert len(rollouts) == 1 and len(rollouts[0][1]) == 1
    np.testing.assert_array_equal(X[1], loop[1])
    for a in range(4):
        one = adjoint.newton_rollout(model, us[a:a + 1], k0, guess[a:a + 1], band[a:a + 1])
        np.testing.assert_array_equal(one[0], X[a])
    assert len(rollouts) == 2  # only row 1's stack of one reached the loop


def test_newton_pays_for_long_windows_of_models_with_the_stages_hook():
    H = adjoint.NEWTON_MIN_H
    model = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B)
    assert adjoint.newton_pays(model, H)
    assert not adjoint.newton_pays(model, H - 1)
    # Running sums step as fast; linear models and the leader have no hook.
    assert not adjoint.newton_pays(dyn.unicycle(), H)
    assert not adjoint.newton_pays(dyn.linear(dyn.FOLLOWER_A, dyn.FOLLOWER_B), H)
    assert not adjoint.newton_pays(dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B), H)


@pytest.mark.parametrize("mode", ["sum", "first", "diag"])
def test_stages_hook_equals_step_at_every_stage(mode):
    model = sine_model(mode)
    rng = np.random.default_rng(2)
    X, U = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 5, model.control_dim))
    out = model.step_fn.stages(X, U, 7)
    assert out.shape == X.shape
    for t in range(5):
        np.testing.assert_allclose(out[:, t], dyn.step(model, X[:, t], U[:, t], 7 + t),
                                   rtol=1e-15, atol=1e-15)
