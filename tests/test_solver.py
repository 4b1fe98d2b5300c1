from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from optcons import CostSpec
from optcons.cost import NeighborBundle
from optcons import dynamics as dyn
from optcons.coordinator import solve_local
from optcons.errors import NumericError, PreconditionError
from optcons.solver import (LocalProblem, SolverConfig, contraction_factor,
                            ocp_direction, regularize)

from conftest import conditioned_quadratic, lq_batch_solution, random_spd


def cho_direction(g, Hmat, c, r, L_max):
    """Oracle: the inner recursion on scipy's cho_factor/cho_solve with the
    dense G = c I, as ocp_direction was first written."""
    G = c * np.eye(g.shape[0])
    cho = scipy.linalg.cho_factor(G + Hmat)
    d = scipy.linalg.cho_solve(cho, g)
    for _ in range(min(r, L_max)):
        d = scipy.linalg.cho_solve(cho, g + G @ d)
    return d


def test_direction_zero_gradient_fixed_point():
    rng = np.random.default_rng(0)
    H = random_spd(rng, 4)
    for r in (0, 1, 5):
        d = ocp_direction(np.zeros(4), H, 1.0, r)
        np.testing.assert_array_equal(d, np.zeros(4))


def test_direction_scalar_hand_recursion():
    g = np.array([1.0])  # gradient h*u at u=1, h=1
    H = np.array([[1.0]])
    d0 = ocp_direction(g, H, 1.0, r=0)
    assert d0[0] == pytest.approx(0.5)
    d1 = ocp_direction(g, H, 1.0, r=1)
    assert d1[0] == pytest.approx(0.75)
    # applying d1 from u=1 lands at (c/(c+h))^2
    assert 1.0 - d1[0] == pytest.approx(0.25)


def test_direction_approaches_newton():
    rng = np.random.default_rng(1)
    H = random_spd(rng, 3, scale=2.0, floor=1.0)  # rho <= 1/2, fast tail
    g = rng.normal(size=3)
    d = ocp_direction(g, H, 1.0, r=200, L_max=200)
    newton = np.linalg.solve(H, g)
    np.testing.assert_allclose(d, newton, rtol=1e-10)


def test_direction_r0_is_regularized_newton():
    rng = np.random.default_rng(2)
    H = random_spd(rng, 5)
    g = rng.normal(size=5)
    d = ocp_direction(g, H, 2.0, r=0)
    np.testing.assert_allclose(d, np.linalg.solve(2.0 * np.eye(5) + H, g), atol=1e-14)


@pytest.mark.parametrize("n", [1, 16, 64])
def test_direction_equals_cho_solve_recursion(n):
    rng = np.random.default_rng(n)
    L_max = 10
    for c in (1.0, 0.3):
        H = random_spd(rng, n, scale=5.0)
        H[np.abs(H) < 0.5] = 0.0
        H += (1e-3 - min(0.0, np.linalg.eigvalsh(H).min())) * np.eye(n)
        # D H D with D = diag(+-1): same spectrum, exact zeros of either sign.
        s = rng.choice([-1.0, 1.0], size=n)
        H = s[:, None] * H * s
        g = rng.normal(size=n)
        for r in (0, 1, L_max, L_max + 3):
            np.testing.assert_array_equal(ocp_direction(g, H, c, r, L_max),
                                          cho_direction(g, H, c, r, L_max))


def test_direction_errors():
    c = 0.7
    with pytest.raises(NumericError, match="not positive definite"):
        ocp_direction(np.ones(3), -3.0 * c * np.eye(3), c, r=2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        ocp_direction(np.array([1.0, np.nan]), np.eye(2), c, r=0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        ocp_direction(np.ones(2), np.diag([1.0, np.inf]), c, r=0)


def test_regularize_shifts_indefinite():
    H = np.diag([1.0, -0.5])
    out = regularize(H, 1e-8)
    assert np.linalg.eigvalsh(out).min() >= 1e-8 - 1e-15
    H_ok = np.diag([1.0, 2.0])
    np.testing.assert_array_equal(regularize(H_ok, 1e-8), H_ok)


def test_solve_local_stationary_start(scalar_chain):
    u_star = np.array([[-0.5]])
    res = solve_local(scalar_chain, u_star, SolverConfig(eps_grad=1e-8))
    assert res.iterations == 0
    np.testing.assert_array_equal(res.u, u_star)
    assert res.converged


def test_solve_local_scalar_chain(scalar_chain):
    res = solve_local(scalar_chain, np.zeros((1, 1)),
                      SolverConfig(c=1.0, eps_grad=1e-8))
    assert res.converged and res.iterations <= 15
    assert abs(res.u[0, 0] + 0.5) < 1e-8
    # the returned iterate itself satisfies the stationarity tolerance
    assert res.grad_norm <= 1e-8


def test_solve_local_matches_lq_oracle():
    rng = np.random.default_rng(2024)
    p, m, H = 2, 2, 10
    A = rng.normal(size=(p, p)) * 0.5
    B = rng.normal(size=(p, m))
    Q = random_spd(rng, p, scale=1.0, floor=0.3)
    R = random_spd(rng, m, scale=1.0, floor=0.5)
    D = random_spd(rng, p, scale=1.0, floor=0.3)
    x0 = rng.normal(size=p)

    spec = CostSpec(Q={(1, 2): Q}, R={1: R}, D={(1, 2): D})
    model = dyn.linear(A, B)
    nb = NeighborBundle({2: np.zeros((H + 1, p))})
    problem = LocalProblem(1, model, x0, nb, spec)

    res = solve_local(problem, np.zeros((H, m)),
                      SolverConfig(c=1.0, eps_grad=1e-11, max_outer=20))
    assert res.converged and res.iterations <= 20
    u_star = lq_batch_solution(A, B, Q, R, D, x0, H)
    assert np.abs(res.u.reshape(-1) - u_star).max() < 1e-8


def test_msa_stationary_start(scalar_chain):
    res = solve_local(scalar_chain, np.array([[-0.5]]),
                      SolverConfig(eps_grad=1e-8, method="msa"))
    assert res.iterations == 0 and res.converged


def test_msa_slower_than_ocp_on_scalar_chain(scalar_chain):
    cfg = SolverConfig(eps_grad=1e-8, max_outer=10000)
    fast = solve_local(scalar_chain, np.zeros((1, 1)), cfg)
    slow = solve_local(scalar_chain, np.zeros((1, 1)), replace(cfg, method="msa"))
    assert fast.converged and slow.converged
    assert abs(slow.u[0, 0] + 0.5) < 1e-7
    assert slow.iterations > fast.iterations


def test_msa_ocp_ratio_on_conditioned_instance():
    problem, H, u_star = conditioned_quadratic()
    cfg = SolverConfig(eps_grad=1e-8, max_outer=20000, L_max=50)
    u0 = np.zeros((1, 2))
    fast = solve_local(problem, u0, cfg)
    slow = solve_local(problem, u0, replace(cfg, method="msa"))
    assert fast.converged and slow.converged
    assert slow.iterations / fast.iterations > 5.0


def test_monotone_descent_on_convex_instances():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = 2
        A = rng.normal(size=(p, p)) * 0.4
        B = rng.normal(size=(p, p)) + np.eye(p)
        spec = CostSpec(Q={(1, 2): random_spd(rng, p)}, R={1: random_spd(rng, p)},
                        D={(1, 2): random_spd(rng, p)})
        model = dyn.linear(A, B)
        H = 6
        nb = NeighborBundle({2: rng.normal(size=(H + 1, p))})
        problem = LocalProblem(1, model, rng.normal(size=p), nb, spec)
        res = solve_local(problem, rng.normal(size=(H, p)),
                          SolverConfig(eps_grad=1e-9, max_outer=50))
        costs = [problem.cost(u.reshape(H, p)) for u in res.history]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-12


def test_superlinear_ratio_decay():
    problem, Hmat, u_star = conditioned_quadratic()
    rho = contraction_factor(Hmat, np.eye(2))
    cfg = SolverConfig(c=1.0, eps_grad=1e-12, max_outer=40, L_max=100)
    res = solve_local(problem, np.zeros((1, 2)), cfg)
    errs = [np.linalg.norm(h - u_star) for h in res.history]
    ratios = [errs[k + 1] / errs[k] for k in range(len(errs) - 1)
              if errs[k] > 1e-10]
    assert len(ratios) >= 4
    # geometric decrease of the per-iteration contraction
    for a, b in zip(ratios, ratios[1:]):
        assert b < a
    c1 = ratios[1] / rho ** 2
    for r, ratio in enumerate(ratios):
        assert ratio <= 1.05 * c1 * rho ** (r + 1)


def test_contraction_factor_identity_pair():
    assert contraction_factor(np.eye(3), np.eye(3)) == pytest.approx(0.5)


def test_contraction_factor_scalar_spectrum():
    for c, h in [(1.0, 2.0), (0.5, 0.1), (10.0, 3.0)]:
        got = contraction_factor(h * np.eye(2), c * np.eye(2))
        assert got == pytest.approx(c / (c + h))


def test_contraction_factor_matches_symmetric_eigensolve():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        H = random_spd(rng, n)
        G = random_spd(rng, n)
        got = contraction_factor(H, G)
        # oracle: similar symmetric form G^(1/2) (G+H)^-1 G^(1/2)
        Gh = scipy.linalg.sqrtm(G).real
        sym = Gh @ np.linalg.solve(G + H, Gh)
        want = np.abs(np.linalg.eigvalsh(0.5 * (sym + sym.T))).max()
        assert got == pytest.approx(want, rel=1e-9)


def test_contraction_factor_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        rho = contraction_factor(random_spd(rng, n), random_spd(rng, n))
        assert 0.0 < rho < 1.0


def test_contraction_factor_requires_pd():
    with pytest.raises(PreconditionError):
        contraction_factor(np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(PreconditionError):
        contraction_factor(np.eye(2), np.diag([1.0, -1.0]))
