"""The banded Newton direction against the dense one.

``solver.banded_direction`` solves a model group's Newton systems as one
banded KKT system and never forms the Hessians; ``_round_update`` takes it
for long windows (``solver.banded_pays``).  The dense path -- Hessian,
``regularize``, ``ocp_direction`` -- is the oracle: the banded directions
must equal it to rounding, and every row that the banded path leaves to it
must come out of it bit for bit, error texts included.
"""

import dataclasses

import numpy as np
import pytest

from optcons import CostSpec, Topology, adjoint, coordinator, solver
from optcons import dynamics as dyn
from optcons.coordinator import _round_update
from optcons.cost import NeighborBundle
from optcons.errors import NumericError
from optcons.solver import (REG_FLOOR, SolverConfig, banded_direction, banded_pays,
                            ocp_direction, regularize, sweep)

from conftest import model_hessian

L_MAX = 10


def model_of(kind):
    if kind == "linear":
        return dyn.linear(dyn.FOLLOWER_A, dyn.FOLLOWER_B)
    if kind == "unicycle":
        return dyn.unicycle(0.05)
    if kind == "nearly_symmetric":
        return asymmetric_linear(1e-3, skew=1e-13)
    return dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode=kind)


def chain_spec(K, p, m, d=0.0):
    """The weights of a bidirectional chain of K+1 agents, terminal weight d."""
    n = K + 1
    top = Topology.from_edge_list(n, [[i, j] for i in range(1, n + 1)
                                      for j in (i - 1, i + 1) if 1 <= j <= n])
    return CostSpec.uniform(top, p, q=30.0, r=1.0, d=d,
                            control_dims={i: m for i in range(1, n + 1)})


def group_window(model, K, H, seed, d=0.0):
    """A model group of agents 1..K on a ``chain_spec`` of K+1 agents,
    random windows and neighbour trajectories: (model, terms, bundles, us,
    trajs, swept).  d is the terminal weight; 0 leaves C_term semidefinite."""
    rng = np.random.default_rng(seed)
    p, m = model.state_dim, model.control_dim
    terms = chain_spec(K, p, m, d).group_terms(list(range(1, K + 1)), p)
    us = 0.3 * rng.normal(size=(K, H, m))
    x0 = 3.0 * rng.normal(size=(K, p))
    trajs = dyn.rollout(model, x0, us, 0)
    bundles = [NeighborBundle({j: rng.normal(size=(H + 1, p)) for j in terms.senders[a]})
               for a in range(K)]
    return model, terms, bundles, us, trajs, sweep(model, 0, terms, bundles, us, trajs)


def row_window(window, a):
    """Row a of a ``group_window`` of terminal weight 0, a stack of one."""
    model, terms, bundles, us, trajs, ((A, B), band, lam, g) = window
    rows = slice(a, a + 1)
    p, m = model.state_dim, model.control_dim
    row_terms = chain_spec(len(terms.agents), p, m).group_terms([terms.agents[a]], p)
    return (model, row_terms, bundles[rows], us[rows], trajs[rows],
            ((A[rows], B[rows]), band[rows], lam[rows], g[rows]))


def dense_directions(model, terms, bundles, us, trajs, swept, r):
    jac, _, lam, g = swept
    Hs = model_hessian(terms, model, trajs, us, jac, lam)
    return ocp_direction(g, regularize(Hs, REG_FLOOR), 1.0, r, L_MAX)


def banded(model, terms, bundles, us, trajs, swept, r):
    jac, _, lam, g = swept
    M = dyn.second_order_action(model, trajs[:, :-1], us, 0, lam[:, 1:])
    return banded_direction(g, adjoint.stage_blocks(terms, M), jac, 1.0, r, L_MAX)


def linear_response(jac, d):
    """The states x(1..H) of x(t+1) = A(t) x(t) + B(t) d(t) from x(0) = 0,
    (K, H, p), by one ``adjoint._band_solve``."""
    A, B = jac
    K, H, p, m = B.shape
    rhs = np.zeros((K, H + 1, p))
    rhs[:, 1:] = (B @ d.reshape(K, H, m, 1))[..., 0]
    x = adjoint._band_solve(adjoint._lower_band(A), rhs.reshape(-1, 1), "N")
    return x.reshape(K, H + 1, p)[:, 1:]


@pytest.mark.parametrize("r", [0, 3, L_MAX])
@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("H", [1, 2, 8, 32, 64])
@pytest.mark.parametrize("kind", ["linear", "sum", "first", "diag", "nearly_symmetric"])
def test_banded_direction_equals_dense_path(kind, H, K, r):
    # Every built-in model whose stage blocks are convex passes the
    # certificate, and the directions agree with the dense path to 1e-12;
    # so does an M symmetric only to 1e-13, which dyn.second_order_action
    # symmetrizes for both paths.  The state unknowns are the linearized
    # dynamics' response to the direction, to 1e-12.
    window = group_window(model_of(kind), K, H, seed=H + K)
    d, ok, x = banded(*window, r)
    want = dense_directions(*window, r)
    assert ok.all()
    assert np.linalg.norm(d - want) <= 1e-12 * np.linalg.norm(want)
    response = linear_response(window[-1][0], d)
    assert np.linalg.norm(x - response) <= 1e-12 * np.linalg.norm(response)


@pytest.mark.parametrize("H", [1, 8, 64])
@pytest.mark.parametrize("kind", ["linear", "first", "diag"])
def test_banded_row_equals_its_stack_of_one(kind, H):
    window = group_window(model_of(kind), 4, H, seed=7)
    d, ok, x = banded(*window, 3)
    assert ok.all()
    for a in range(4):
        row = banded(*row_window(window, a), 3)
        assert row[1].all()
        np.testing.assert_array_equal(row[0][0], d[a])
        np.testing.assert_array_equal(row[2][0], x[a])


def test_semidefinite_terminal_weight_is_certified_and_unicycles_are_not():
    # A zero terminal weight leaves one stage block semidefinite, which the
    # certificate accepts; unicycle stage blocks are not convex.
    assert banded(*group_window(model_of("first"), 2, 16, seed=1, d=0.0), 0)[1].all()
    assert not banded(*group_window(model_of("unicycle"), 2, 16, seed=1), 0)[1].any()


def test_switch_rule_reads_window_size_and_depth():
    # Windows of up to 16 controls keep the dense path at every depth.
    assert not any(banded_pays(n, r, L_MAX) for n in (1, 8, 16) for r in range(30))
    assert banded_pays(64, 0, L_MAX) and banded_pays(64, 40, L_MAX)
    assert not banded_pays(32, 20, 20)


def dense_only(monkeypatch):
    monkeypatch.setattr(solver, "BANDED_MIN_N", 10 ** 9)


def round_outcome(model, terms, bundles, us, trajs, swept, r=3):
    """_round_update's new windows, or the text of its error."""
    try:
        return _round_update(model, 0, terms, bundles, us, trajs, swept, SolverConfig(), r,
                             {})[0]
    except (NumericError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


def curved_linear(kappa):
    """The chain model with a hand-made second-order action: Muu =
    kappa(x) lam . b, with kappa given per state; not f's curvature, but
    both paths read the same M."""
    base = dyn.linear(dyn.FOLLOWER_A, dyn.FOLLOWER_B)

    def so(X, U, k0, Lam):
        M = np.zeros(X.shape[:2] + (3, 3))
        M[..., 2, 2] = kappa(X) * (Lam @ dyn.FOLLOWER_B)
        return M

    return dataclasses.replace(base, second_order_fn=so, name="curved")


def asymmetric_linear(scale=0.5, first_row=0, skew=None):
    """The chain model with Mux = scale lam_1 and Mxu = 0 in the stack's rows
    from ``first_row`` on; given ``skew``, Mxu = (1 + skew) Mux^T instead."""
    base = dyn.linear(dyn.FOLLOWER_A, dyn.FOLLOWER_B)

    def so(X, U, k0, Lam):
        M = np.zeros(X.shape[:2] + (3, 3))
        M[first_row:, :, 2, 0] = scale * Lam[first_row:, :, 0]
        if skew is not None:
            M[..., 0, 2] = (1.0 + skew) * M[..., 2, 0]
        return M

    return dataclasses.replace(base, second_order_fn=so, name="asymmetric")


@pytest.mark.parametrize("case", ["unicycle", "asymmetric", "nonfinite", "slightly_asymmetric",
                                  "asymmetric_last_rows"])
def test_rows_left_to_the_dense_path_equal_it_bit_for_bit(case, monkeypatch):
    # A unicycle window fails the certificate and a non-finite gradient ends
    # in the round's error before either path: each outcome is the dense
    # path's exactly.  An M that breaks Mxu = Mux^T fails where it enters,
    # before either path, with the error of an 8-stage window, which only
    # the dense path takes; so do blocks asymmetric by 1e-3, which would
    # pass the certificate, as it reads one triangle; and when only the last
    # rows break symmetry, the error names the agent of the group's row.
    model = {"unicycle": model_of("unicycle"), "asymmetric": asymmetric_linear(),
             "nonfinite": model_of("first"), "slightly_asymmetric": asymmetric_linear(1e-3),
             "asymmetric_last_rows": asymmetric_linear(first_row=1)}[case]
    window = group_window(model, 3, 64 // model.control_dim, seed=5)
    *_, us, _, (*_, g) = window
    if case == "nonfinite":
        g[1, 5] = np.nan
    assert banded_pays(us.shape[1] * us.shape[2], 3, L_MAX)
    got = round_outcome(*window)
    if "asymmetric" in case:
        agent = 2 if case == "asymmetric_last_rows" else 1
        assert got == (f"NumericError: agent {agent}, round 3: asymmetric: "
                       f"second-order action asymmetric by 1.41e+00 at k=0")
        assert round_outcome(*group_window(model, 3, 8, seed=5)) == got
    else:
        assert not banded(*window, 3)[1].all()
    dense_only(monkeypatch)
    assert_same_outcome(got, round_outcome(*window))


@pytest.mark.parametrize("case,hessians", [("dense", 1), ("banded", 0), ("mixed", 1)])
def test_one_second_order_action_per_group_round(case, hessians, monkeypatch):
    # Both paths read the group-round's one curvature call through its one
    # set of stage blocks, the dense path's Hessian calls no model function
    # of its own, and no group-round walks the cost spec again.
    model, H = {"dense": (model_of("first"), 8), "banded": (model_of("first"), 64),
                "mixed": (curved_linear(lambda X: np.where(X[..., :1] > 0, -40.0, 0.0)[..., 0]),
                          64)}[case]
    window = group_window(model, 4, H, seed=2)
    calls = {"rollout": 0, "linearize": 0, "second_order_action": 0, "hessian": 0,
             "stage_blocks": 0, "terms": 0}
    for owner, name in [(dyn, "rollout"), (dyn, "linearize"), (dyn, "second_order_action"),
                        (adjoint, "hessian"), (adjoint, "stage_blocks"), (CostSpec, "terms")]:
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    assert not isinstance(round_outcome(*window), str)
    assert calls == {"rollout": 0, "linearize": 0, "second_order_action": 1,
                     "hessian": hessians, "stage_blocks": 1, "terms": 0}


def test_banded_round_returns_the_predicted_state_change():
    # Whenever the banded path runs, the update returns minus its state
    # responses, whether or not the model's windows roll out by Newton:
    # dyn.linear has no all-stages hook, so the next round does not read it.
    window = group_window(model_of("linear"), 3, 64, seed=6)
    model, terms, bundles, us, trajs, swept = window
    assert banded_pays(us[0].size, 3, L_MAX) and not adjoint.newton_pays(model, 64)
    _, ok, x = banded(*window, 3)
    assert ok.all()
    step = _round_update(model, 0, terms, bundles, us, trajs, swept, SolverConfig(), 3, None)[2]
    np.testing.assert_array_equal(step, -x)


@pytest.mark.parametrize("H", [8, 64])
def test_round_step_norms_equal_linalg_norm(H, monkeypatch):
    # The step norms are np.linalg.norm(d, axis=1) bit for bit, d the
    # directions that the round applied: the dense path's at H = 8 and the
    # banded path's at H = 64.
    seen = []
    for name in ("ocp_direction", "banded_direction"):
        def spy(*args, real=getattr(coordinator, name)):
            seen.append(real(*args))
            return seen[-1]
        monkeypatch.setattr(coordinator, name, spy)
    model, terms, bundles, us, trajs, swept = group_window(model_of("linear"), 3, H, seed=6)
    steps = _round_update(model, 0, terms, bundles, us, trajs, swept, SolverConfig(), 3,
                          None)[1]
    [out] = seen
    d = out[0] if H == 64 else out
    assert steps == np.linalg.norm(d, axis=1).tolist()


def test_mixed_stack_rows_equal_their_stacks_of_one():
    # Rows whose Muu breaks the certificate take the dense path and the
    # others the banded one, within one group-round; each row's update equals
    # its stack of one's bit for bit.
    model = curved_linear(lambda X: np.where(X[..., :1] > 0, -40.0, 0.0)[..., 0])
    window = group_window(model, 4, 64, seed=2)
    ok = banded(*window, 3)[1]
    assert ok.any() and not ok.all()
    new = round_outcome(*window)
    for a in range(4):
        one = round_outcome(*row_window(window, a))
        np.testing.assert_array_equal(one[0], new[a])


def test_zero_pivot_row_falls_back_and_the_others_stay_banded(monkeypatch):
    # dgbtrf reports a zero pivot in row 1 of the stack: that row is taken by
    # the dense path, and the band of the others is factored again.
    window = group_window(model_of("first"), 3, 64, seed=4)
    real = solver.dgbtrf
    calls = []

    def dgbtrf(band, kl, ku, **kw):
        lu, piv, info = real(band, kl, ku, **kw)
        calls.append(band.shape[1])
        return lu, piv, (info or 64 * 5 + 1) if len(calls) == 1 else info

    clean = round_outcome(*window)
    monkeypatch.setattr(solver, "dgbtrf", dgbtrf)
    d, ok, x = banded(*window, 3)
    assert ok.tolist() == [True, False, True] and calls == [3 * 64 * 5, 2 * 64 * 5]
    assert not x[1].any() and x[[0, 2]].any(axis=(1, 2)).all()
    calls.clear()
    got = round_outcome(*window)
    dense_only(monkeypatch)
    want = round_outcome(*window)
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_array_equal(got[[0, 2]], clean[[0, 2]])


def cholesky_certificate(blocks, m, floor):
    """``banded_certificate``'s decision with every row through
    ``_cholesky_rows``: the blocks of L - 2 floor P_u, each shifted by its
    row's delta."""
    K, H, s = blocks.shape[:2] + blocks.shape[-1:]
    B = blocks.copy()
    B.reshape(K, H, s * s)[..., (s + 1) * (s - m)::s + 1] -= 2 * floor
    delta = 2 * s * s * np.finfo(float).eps * abs(B).reshape(K, H * s * s).max(axis=1)
    return solver._cholesky_rows(B, delta)


def cholesky_calls(monkeypatch):
    """The shapes of the stacks handed to np.linalg.cholesky from now on."""
    calls, real = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda B: calls.append(B.shape) or real(B))
    return calls


def diagonal_rows(floor, H=4, p=2, m=1):
    """Named rows (H, p+m, p+m) of diagonal stage blocks, one entry of each
    set to exactly 1 so that every row's delta is 2 s^2 eps."""
    delta = 2 * (p + m) ** 2 * np.finfo(float).eps

    def row(diag, u=None):
        blocks = np.zeros((H, p + m, p + m))
        idx = np.arange(p + m)
        blocks[:, idx, idx] = 0.5
        blocks[1, 0, 0] = 1.0
        blocks[0, :p, :p] = np.diag(diag)
        if u is not None:
            blocks[2, p:, p:] = np.diag(u)
        return blocks

    rows = {
        "positive": row([0.25, 0.75]),
        "zero terminal": row([0.0, 0.0]),
        "negative within delta": row([-delta / 4, 0.5]),
        "negative at -delta": row([-delta, 0.5]),
        "negative beyond delta": row([0.5, -2 * delta]),
        "u at 2 floor": row([0.5, 0.5], u=[2 * floor] * m),
        "u below 2 floor": row([0.5, 0.5], u=[floor] * m),
        "negative zero off-diagonals": row([0.5, 0.5]),
    }
    rows["negative zero off-diagonals"][:, 0, 1] = -0.0
    rows["negative zero off-diagonals"][:, 1, 0] = -0.0
    rows["all zero but u at 2 floor"] = np.zeros((H, p + m, p + m))
    rows["all zero but u at 2 floor"][:, p:, p:] = 2 * floor * np.eye(m)
    rows["nan diagonal"] = row([np.nan, 0.5])
    rows["inf diagonal"] = row([np.inf, 0.5])
    rows["-inf diagonal"] = row([0.5, -np.inf])
    return rows


@pytest.mark.parametrize("K", [1, 3])
def test_diagonal_blocks_are_decided_as_the_cholesky_decides(K, monkeypatch):
    # Rows of diagonal stage blocks skip the factorization; each row's
    # decision equals _cholesky_rows' bit for bit, and its stack of one's,
    # at zero diagonals, -0.0 off the diagonal, negative diagonals within
    # and beyond the rounding margin delta, u at exactly 2 floor, and
    # non-finite entries.
    rows = diagonal_rows(REG_FLOOR)
    names = list(rows)
    assert len(names) % K == 0
    calls = cholesky_calls(monkeypatch)
    got = []
    for at in range(0, len(names), K):
        stack = np.array([rows[name] for name in names[at:at + K]])
        want = cholesky_certificate(stack, 1, REG_FLOOR)
        calls.clear()
        ok = solver.banded_certificate(stack, 1, REG_FLOOR)
        assert calls == []
        np.testing.assert_array_equal(ok, want)
        for a in range(K):
            assert solver.banded_certificate(stack[a:a + 1], 1, REG_FLOOR)[0] == ok[a]
        got += ok.tolist()
    decided = dict(zip(names, got))
    assert [name for name in rows if decided[name]] == [
        "positive", "zero terminal", "negative within delta", "u at 2 floor",
        "negative zero off-diagonals"]


def test_random_diagonal_blocks_are_decided_as_the_cholesky_decides(monkeypatch):
    # Diagonal entries drawn around the margin: zeros of both signs, small
    # multiples of delta of either sign, and u entries at and near 2 floor.
    rng = np.random.default_rng(3)
    K, H, s, m = 60, 5, 3, 1
    delta = 2 * s * s * np.finfo(float).eps
    picks = np.array([0.0, -0.0, 0.5, 1.0, 2 * REG_FLOOR, 2 * REG_FLOOR - delta,
                      -delta / 2, -delta, -2 * delta, delta, 2 * REG_FLOOR + delta / 2])
    diag = np.full((K, H * s), 0.5)
    for a in range(K):  # two entries of each row, stage 0's first left at 1
        diag[a, rng.choice(np.arange(1, H * s), size=2, replace=False)] = rng.choice(picks, 2)
    diag[:, 0] = 1.0  # every row's max|B| is 1, so its delta is the one above
    stack = np.zeros((K, H, s, s))
    stack[..., np.arange(s), np.arange(s)] = diag.reshape(K, H, s)
    want = cholesky_certificate(stack, m, REG_FLOOR)
    calls = cholesky_calls(monkeypatch)
    ok = solver.banded_certificate(stack, m, REG_FLOOR)
    assert calls == []
    np.testing.assert_array_equal(ok, want)
    assert 0 < ok.sum() < K


def test_blocks_with_a_cross_term_still_take_the_cholesky(monkeypatch):
    # In a mixed stack only the rows with a nonzero off-diagonal entry reach
    # the factorization: one that it certifies and one that it refuses,
    # although every diagonal entry of the latter is positive.
    rows = diagonal_rows(REG_FLOOR)
    crossed, refused = rows["positive"].copy(), rows["positive"].copy()
    crossed[3, 0, 1] = crossed[3, 1, 0] = 0.1
    refused[1, 0, 2] = refused[1, 2, 0] = 1.0
    stack = np.array([rows["positive"], crossed, rows["negative beyond delta"], refused])
    want = cholesky_certificate(stack, 1, REG_FLOOR)
    calls = cholesky_calls(monkeypatch)
    ok = solver.banded_certificate(stack, 1, REG_FLOOR)
    assert ok.tolist() == [True, True, False, False]
    np.testing.assert_array_equal(ok, want)
    # One batched call for the two crossed rows, then each alone, as it failed.
    assert calls == [(2,) + stack.shape[1:]] + [stack.shape[1:]] * 2
