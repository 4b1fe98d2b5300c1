import numpy as np
import pytest

from optcons import CostSpec, Topology, cost, global_cost, local_cost, scenarios
from optcons import dynamics as dyn
from optcons.coordinator import MpcConfig, Session
from optcons.cost import NeighborBundle, local_costs
from optcons.errors import ConfigError, NumericError
from optcons.solver import SolverConfig

from conftest import mutual_pair_topology, random_psd, random_spd


def test_zero_at_consensus():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=2, q=3.0, r=1.0, d=2.0, control_dims={1: 1, 2: 1})
    traj = np.tile([1.5, -0.5], (4, 1))
    nb = NeighborBundle({2: traj.copy()})
    assert local_cost(1, traj, np.zeros((3, 1)), nb, spec) == 0.0


def test_hand_value_scalar_pair():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=1, q=1.0, r=1.0, d=1.0)
    traj = np.ones((2, 1))
    nb = NeighborBundle({2: np.zeros((2, 1))})
    assert local_cost(1, traj, np.zeros((1, 1)), nb, spec) == pytest.approx(1.0)


def test_formation_shifted_consensus_is_free():
    top = mutual_pair_topology()
    offsets = {1: np.array([1.0, 0.0]), 2: np.array([0.0, -2.0])}
    spec = CostSpec.uniform(top, p=2, q=5.0, r=1.0, offsets=offsets)
    base = np.cumsum(np.ones((4, 2)), axis=0)
    traj_i = base + offsets[1]
    traj_j = base + offsets[2]
    nb = NeighborBundle({2: traj_j})
    assert local_cost(1, traj_i, np.zeros((3, 1)), nb, spec) == 0.0


def test_global_cost_unfolds_to_locals():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=1, q=2.0, r=1.0, d=0.5)
    rng = np.random.default_rng(0)
    trajs = {1: rng.normal(size=(3, 1)), 2: rng.normal(size=(3, 1))}
    us = {1: rng.normal(size=(2, 1)), 2: rng.normal(size=(2, 1))}
    total = global_cost([spec.group_terms([1, 2], 1)], trajs, us, top)
    l1 = local_cost(1, trajs[1], us[1], NeighborBundle({2: trajs[2]}), spec)
    l2 = local_cost(2, trajs[2], us[2], NeighborBundle({1: trajs[1]}), spec)
    assert total == pytest.approx(l1 + l2)
    # Any split of the agents into tables sums the same slices in agent order.
    split = [spec.group_terms([2], 1), spec.group_terms([1], 1)]
    assert global_cost(split, trajs, us, top) == total


def test_global_cost_single_sided_graph():
    # Only agent 1 listens; with zero control the neighbor contributes nothing.
    top = Topology.from_edge_list(2, [[1, 2, 1.0], [2, 1, 1.0]])
    spec = CostSpec(Q={(1, 2): np.eye(1)}, R={1: np.eye(1), 2: np.eye(1)},
                    D={(1, 2): np.eye(1)})
    trajs = {1: np.ones((2, 1)), 2: np.zeros((2, 1))}
    us = {1: np.zeros((1, 1)), 2: np.zeros((1, 1))}
    assert global_cost([spec.group_terms([1, 2], 1)], trajs, us, top) == pytest.approx(1.0)


def test_nonnegative_on_random_inputs():
    rng = np.random.default_rng(3)
    top = mutual_pair_topology()
    for _ in range(50):
        spec = CostSpec(
            Q={(1, 2): random_psd(rng, 3)},
            R={1: random_spd(rng, 2)},
            D={(1, 2): random_psd(rng, 3)})
        traj = rng.normal(size=(5, 3))
        nb = NeighborBundle({2: rng.normal(size=(5, 3))})
        assert local_cost(1, traj, rng.normal(size=(4, 2)), nb, spec) >= 0.0


def test_offset_shift_invariance():
    rng = np.random.default_rng(4)
    top = mutual_pair_topology()
    shift = rng.normal(size=2)
    traj_i = rng.normal(size=(4, 2))
    traj_j = rng.normal(size=(4, 2))
    u = rng.normal(size=(3, 1))
    base_offsets = {1: rng.normal(size=2), 2: rng.normal(size=2)}
    spec0 = CostSpec.uniform(top, p=2, q=2.5, r=1.0, d=1.0, offsets=base_offsets)
    shifted_offsets = {k: v + shift for k, v in base_offsets.items()}
    spec1 = CostSpec.uniform(top, p=2, q=2.5, r=1.0, d=1.0, offsets=shifted_offsets)
    a = local_cost(1, traj_i, u, NeighborBundle({2: traj_j}), spec0)
    b = local_cost(1, traj_i + shift, u, NeighborBundle({2: traj_j + shift}), spec1)
    assert a == pytest.approx(b, rel=1e-12)


def test_uniform_weight_scaling_scales_cost():
    rng = np.random.default_rng(5)
    top = mutual_pair_topology()
    traj = rng.normal(size=(4, 2))
    nb = NeighborBundle({2: rng.normal(size=(4, 2))})
    u = rng.normal(size=(3, 1))
    a = local_cost(1, traj, u, nb, CostSpec.uniform(top, 2, q=2.0, r=1.0, d=0.5))
    b = local_cost(1, traj, u, nb, CostSpec.uniform(top, 2, q=20.0, r=10.0, d=5.0))
    assert b == pytest.approx(10.0 * a, rel=1e-12)


def test_leader_terms_require_leader_trajectory():
    top = Topology.from_edge_list(2, [[1, 2, 1.0], [2, 1, 1.0]], leader_links=[1])
    spec = CostSpec.uniform(top, p=1, q=1.0, r=1.0, w=2.0)
    traj = np.ones((2, 1))
    nb = NeighborBundle({2: np.zeros((2, 1))})
    with pytest.raises(ValueError, match="leader"):
        local_cost(1, traj, np.zeros((1, 1)), nb, spec)
    nb_ok = NeighborBundle({2: np.zeros((2, 1))}, leader=np.zeros((2, 1)))
    # stage leader error is 1 at t=0, weight 2: cost 1/2 * 2 * 1 + neighbor 1/2
    assert local_cost(1, traj, np.zeros((1, 1)), nb_ok, spec) == pytest.approx(1.5)


def test_horizon_mismatch_rejected():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=1, q=1.0, r=1.0)
    with pytest.raises(ValueError):
        local_cost(1, np.ones((3, 1)), np.zeros((1, 1)),
                   NeighborBundle({2: np.zeros((2, 1))}), spec)
    with pytest.raises(ValueError):
        local_cost(1, np.ones((2, 1)), np.zeros((1, 1)),
                   NeighborBundle({2: np.zeros((3, 1))}), spec)


def test_validate_rejects_asymmetric_and_nonpsd():
    top = mutual_pair_topology()
    bad_q = np.array([[1.0, 0.5], [0.0, 1.0]])
    spec = CostSpec(Q={(1, 2): bad_q}, R={1: np.eye(1), 2: np.eye(1)})
    with pytest.raises(ConfigError, match="asymmetric"):
        spec.validate(top, 2, {1: 1, 2: 1})

    spec2 = CostSpec(Q={(1, 2): -np.eye(2)}, R={1: np.eye(1), 2: np.eye(1)})
    with pytest.raises(ConfigError, match="semidefinite"):
        spec2.validate(top, 2, {1: 1, 2: 1})

    spec3 = CostSpec(Q={(1, 2): np.eye(2)}, R={1: np.zeros((1, 1)), 2: np.eye(1)})
    with pytest.raises(ConfigError, match="positive definite"):
        spec3.validate(top, 2, {1: 1, 2: 1})


def test_validate_rejects_dangling_edge_and_collects_all():
    top = mutual_pair_topology()
    spec = CostSpec(Q={(1, 5): np.eye(1)}, R={1: np.eye(1)})
    with pytest.raises(ConfigError) as err:
        spec.validate(top, 1, {1: 1, 2: 1})
    text = str(err.value)
    assert "non-edge (1, 5)" in text
    assert "R missing for agent 2" in text  # both violations reported


def test_validate_keeps_problem_order_with_one_eigvalsh_per_shape(monkeypatch):
    # Each entry's cross-reference problem comes before its own; the
    # eigenvalues come from one eigvalsh per strictness and matrix size,
    # across tables (Q's and W's semidefinite 2 x 2 weights in one stack).
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return eigvalsh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    top = mutual_pair_topology()
    spec = CostSpec(Q={(1, 2): np.array([[1.0, 0.5], [0.0, 1.0]]), (2, 1): -np.eye(2),
                       (1, 5): np.eye(2)},
                    R={1: np.zeros((1, 1)), 2: np.eye(2)}, W={1: -np.eye(2)})
    with pytest.raises(ConfigError) as err:
        spec.validate(top, 2, {1: 1, 2: 1})
    assert err.value.violations == [
        "Q[(1, 2)] is asymmetric (max drift 5.00e-01)",
        "Q[(2, 1)] must be positive semidefinite (min eigenvalue -1.00e+00)",
        "Q references non-edge (1, 5)",
        "R[1] must be positive definite (min eigenvalue 0.00e+00)",
        "R[2] has shape (2, 2), agent has m=1",
        "W[1] given but agent 1 has no leader link",
        "W[1] must be positive semidefinite (min eigenvalue -1.00e+00)",
    ]
    assert shapes == [(4, 2, 2)]  # R's diagonal stacks are read from their diagonals


def test_validate_repeats_only_on_changed_tables(monkeypatch):
    # Every call runs the full check, the same call again included, so new
    # arguments and a changed entry, replaced or mutated in place, are seen.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(M, *args, **kwargs):
        calls.append(np.shape(M))
        return eigvalsh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    top = mutual_pair_topology()
    nearly = np.eye(2)
    nearly[0, 1] = 1e-12
    spec = CostSpec(Q={(1, 2): nearly, (2, 1): np.eye(2)}, R={1: np.eye(1), 2: np.eye(1)})
    spec.validate(top, 2, {1: 1, 2: 1})
    first = len(calls)
    assert first > 0
    spec.validate(top, 2, {1: 1, 2: 1})
    assert len(calls) == 2 * first
    with pytest.raises(ConfigError, match="R\\[2\\] has shape"):
        spec.validate(top, 2, {1: 1, 2: 2})
    spec.Q[(2, 1)] = 2.0 * np.eye(2)
    spec.validate(top, 2, {1: 1, 2: 1})
    assert len(calls) > first
    spec.Q[(2, 1)][0, 0] = -1.0      # mutated in place
    with pytest.raises(ConfigError, match="must be positive semidefinite"):
        spec.validate(top, 2, {1: 1, 2: 1})


def test_validate_again_leaves_every_table_bitwise_equal():
    # A second call, never skipped, passes and changes nothing: Q[(1, 2)]
    # takes the tiny-asymmetry symmetrization and D[(1, 2)], the exact
    # rank-1 v v^T whose computed eigenvalue is -3.5e-18, the clip.
    top = mutual_pair_topology()
    v = np.array([1.0, 26.0]) / 7.0
    spec = CostSpec.uniform(top, 2, q=1.0, r=1.0, d=np.outer(v, v))
    spec.Q[(1, 2)] = np.array([[1.0, 1e-12], [0.0, 1.0]])
    spec.validate(top, 2, {1: 1, 2: 1})
    assert spec.Q[(1, 2)][1, 0] == 5e-13
    assert not np.array_equal(spec.D[(1, 2)], np.outer(v, v))

    def tables():
        return [(name, key, value.tobytes()) for name in ("Q", "R", "D", "W", "E")
                for key, value in getattr(spec, name).items()]

    first = tables()
    spec.validate(top, 2, {1: 1, 2: 1})
    assert tables() == first


@pytest.mark.parametrize("value, shape", [(2.0, ()), (np.ones(2), (2,)),
                                          (np.ones((2, 2, 2)), (2, 2, 2))])
@pytest.mark.parametrize("name, key", [("Q", (1, 2)), ("D", (1, 2)), ("R", 1), ("W", 1),
                                       ("E", 1)])
def test_session_refuses_a_weight_that_is_not_a_matrix(name, key, value, shape):
    # The two-agent identity pair (p = m = 2), agent 1 linked to a leader;
    # the loader makes matrices of scalars, Python callers may not.
    top = Topology.from_edge_list(2, [[1, 2, 1.0], [2, 1, 1.0]], leader_links=[1])
    spec = CostSpec.uniform(top, 2, q=1.0, r=1.0, d=1.0, w=1.0, e=1.0,
                            control_dims={1: 2, 2: 2})
    getattr(spec, name)[key] = value
    pair, leader = dyn.linear(np.eye(2), np.eye(2)), dyn.linear(np.eye(2), np.zeros((2, 0)))
    with pytest.raises(ConfigError) as err:
        Session(top, {1: pair, 2: pair}, spec, SolverConfig(), MpcConfig(N_p=2, T=1),
                {1: np.zeros(2), 2: np.ones(2)}, leader_model=leader, leader_x0=np.zeros(2))
    assert err.value.violations == [f"{name}[{key}] has shape {shape}, expected (2, 2)"]


def test_validate_reports_non_finite_weights_and_keeps_them_as_given():
    # NaN and +-inf entries are named, not put through the stacked drift,
    # symmetrization and eigvalsh pass (whose subtraction would warn under
    # the suite's warnings-as-errors); the finite weights are still checked.
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=2, q=1.0, r=1.0, d=1.0)
    nan_q = np.array([[np.nan, 0.0], [0.0, 1.0]])
    spec.Q[(1, 2)] = nan_q
    spec.R[1] = [[np.inf]]
    spec.D[(2, 1)] = -np.eye(2)
    with pytest.raises(ConfigError) as err:
        spec.validate(top, 2, {1: 1, 2: 1})
    assert err.value.violations == [
        "Q[(1, 2)] is not finite",
        "D[(2, 1)] must be positive semidefinite (min eigenvalue -1.00e+00)",
        "R[1] is not finite",
    ]
    assert np.array_equal(spec.Q[(1, 2)], nan_q, equal_nan=True)


@pytest.mark.parametrize("name, key", [("Q", (1, 2)), ("D", (2, 1)), ("R", 2), ("W", 1),
                                       ("E", 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_session_refuses_a_non_finite_weight(name, key, bad):
    top = Topology.from_edge_list(2, [[1, 2, 1.0], [2, 1, 1.0]], leader_links=[1])
    spec = CostSpec.uniform(top, 2, q=1.0, r=1.0, d=1.0, w=1.0, e=1.0,
                            control_dims={1: 2, 2: 2})
    weight = np.eye(2)
    weight[1, 0] = bad
    getattr(spec, name)[key] = weight
    pair, leader = dyn.linear(np.eye(2), np.eye(2)), dyn.linear(np.eye(2), np.zeros((2, 0)))
    with pytest.raises(ConfigError) as err:
        Session(top, {1: pair, 2: pair}, spec, SolverConfig(), MpcConfig(N_p=2, T=1),
                {1: np.zeros(2), 2: np.ones(2)}, leader_model=leader, leader_x0=np.zeros(2))
    assert err.value.violations == [f"{name}[{key}] is not finite"]


def test_session_rechecks_a_weight_mutated_after_loading():
    spec = scenarios.load_preset("formation")
    spec.cost.Q[min(spec.topology.edges)][0, 0] = -5.0
    with pytest.raises(ConfigError, match="must be positive semidefinite"):
        scenarios.new_session(spec)


def test_tiny_symmetrization_applied_silently():
    top = mutual_pair_topology()
    nearly = np.eye(2)
    nearly[0, 1] = 1e-12
    spec = CostSpec(Q={(1, 2): nearly}, R={1: np.eye(1), 2: np.eye(1)})
    spec.validate(top, 2, {1: 1, 2: 1})
    np.testing.assert_array_equal(spec.Q[(1, 2)], spec.Q[(1, 2)].T)


def test_validate_symmetrizes_only_the_weights_that_drift():
    # An exactly symmetric weight keeps its bits, however large: 0.5 (S + S^T)
    # would turn 1e308 into inf.  R's entries differ in shape, so each is
    # converted on its own; the nearly symmetric one is stored symmetrized
    # while the caller's array keeps its bits.
    top = mutual_pair_topology()
    nearly = np.eye(2)
    nearly[0, 1] = 1e-12
    spec = CostSpec(Q={(1, 2): 1e308 * np.eye(2)}, R={1: np.array([[1e308]]), 2: nearly})
    for _ in range(2):
        spec.validate(top, 2, {1: 1, 2: 2})
        assert spec.R[1].tolist() == [[1e308]]
        assert spec.Q[(1, 2)].tolist() == [[1e308, 0.0], [0.0, 1e308]]
        assert spec.R[2].tolist() == [[1.0, 5e-13], [5e-13, 1.0]]
    assert nearly.tolist() == [[1.0, 1e-12], [0.0, 1.0]]


def test_semidefinite_form_rounding_below_zero_reads_zero():
    # Q = [[1, 1], [1, 1]] is exactly semidefinite, and errors near its null
    # vector (g, -g) evaluate below zero by rounding alone (-2.98e-08 at the
    # first gap): relative to the magnitudes summed that is rounding, so the
    # cost reads 0.  Over random gaps the raw forms do go negative.
    top = mutual_pair_topology()
    spec = CostSpec(Q={(1, 2): np.ones((2, 2))}, R={1: np.eye(2)})
    terms = spec.group_terms([1], 2)
    rng = np.random.default_rng(0)
    gaps = np.concatenate([[18911.900093307788], 10 ** rng.uniform(2, 6, size=300)])
    negative = 0
    for g in gaps:
        x_j = np.array([-g, g + rng.uniform(-1e-9, 1e-9) * g])
        trajs = np.zeros((1, 3, 2))
        nb = NeighborBundle({2: np.tile(x_j, (3, 1))})
        u = np.zeros((1, 2, 2))
        raw = np.einsum("tp,pq,tq->", np.tile(x_j, (2, 1)), spec.Q[(1, 2)], np.tile(x_j, (2, 1)))
        negative += raw < 0.0
        assert local_costs(terms, trajs, u, [nb]) == [0.0 if raw <= 0.0 else 0.5 * raw]
    assert negative > 0


def test_negative_cost_beyond_rounding_is_a_numeric_error():
    # A weight with a real negative eigenvalue, bypassing validate, makes a
    # cost that no rounding explains: a NumericError naming the agent.
    spec = CostSpec(Q={(1, 2): np.diag([1.0, -5e-11])}, R={1: np.eye(1)})
    nb = NeighborBundle({2: np.tile([0.0, 1e6], (2, 1))})
    with pytest.raises(NumericError, match=r"^agent 1: negative cost -2.50e\+01 with "
                                           r"semidefinite weights, beyond its rounding"):
        local_cost(1, np.zeros((2, 2)), np.zeros((1, 1)), nb, spec)


def test_semidefinite_tolerance_scales_with_the_weight():
    # An exact rank-1 weight 1e6 v v^T shows a negative eigenvalue of a few
    # eps times its size and loads; a -5e-11 eigenvalue on a unit weight is
    # far beyond rounding and is refused.
    top = mutual_pair_topology()
    v = np.array([1.0, 2.0, 3.0])
    rank_one = CostSpec.uniform(top, 3, q=1e6 * np.outer(v, v), r=1.0,
                                control_dims={1: 2, 2: 2})
    assert np.linalg.eigvalsh(rank_one.Q[(1, 2)]).min() < -1e-10
    rank_one.validate(top, 3, {1: 2, 2: 2})
    tilted = CostSpec.uniform(top, 2, q=np.diag([1.0, -5e-11]), r=1.0)
    with pytest.raises(ConfigError, match=r"Q\[\(1, 2\)\] must be positive semidefinite "
                                          r"\(min eigenvalue -5.00e-11\)"):
        tilted.validate(top, 2, {1: 1, 2: 1})


def test_weight_kept_as_its_semidefinite_part_validates_unchanged():
    # The exact rank-1 weight v v^T shows a computed eigenvalue of -3.5e-18
    # and is stored as its semidefinite part; eigvalsh reads that part below
    # 0 again, so it also gets the rounding margin on its diagonal, and a
    # second validate (as when the resolved echo is loaded) leaves it as is.
    top = mutual_pair_topology()
    v = np.array([1.0, 26.0]) / 7.0
    spec = CostSpec.uniform(top, 2, q=np.outer(v, v), r=1.0)
    assert -1e-17 < np.linalg.eigvalsh(spec.Q[(1, 2)])[0] < 0.0
    spec.validate(top, 2, {1: 1, 2: 1})
    stored = spec.Q[(1, 2)]
    assert np.linalg.eigvalsh(stored)[0] >= 0.0
    np.testing.assert_allclose(stored, np.outer(v, v), rtol=0, atol=1e-13)
    again = CostSpec.uniform(top, 2, q=stored.copy(), r=1.0)
    again.validate(top, 2, {1: 1, 2: 1})
    assert again.Q[(1, 2)].tobytes() == stored.tobytes()


def test_validate_rejects_offset_keys_that_name_no_node():
    # Offsets are keyed by agent 1..n or by 0, the leader; any other key is
    # refused instead of being dropped from the error table.
    spec = scenarios.load_preset("formation")
    spec.cost.offsets[9] = np.zeros(3)
    spec.cost.offsets[-1] = np.zeros(3)
    with pytest.raises(ConfigError) as err:
        scenarios.new_session(spec)
    assert err.value.violations == ["offset[9] names no agent 1..4 or leader 0",
                                    "offset[-1] names no agent 1..4 or leader 0"]


def test_matrix_weights_and_their_shapes():
    # uniform takes a matrix weight as given and refuses one of the wrong
    # shape; validate reports a non-square weight by key.
    top = mutual_pair_topology()
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = CostSpec.uniform(top, 2, q=q, r=np.eye(1))
    np.testing.assert_array_equal(spec.Q[(1, 2)], q)
    with pytest.raises(ValueError, match=r"^weight has shape \(3, 3\), expected \(2, 2\)$"):
        CostSpec.uniform(top, 2, q=np.eye(3), r=1.0)
    spec.Q[(2, 1)] = np.ones((2, 3))
    with pytest.raises(ConfigError) as err:
        spec.validate(top, 2, {1: 1, 2: 1})
    assert err.value.violations == ["Q[(2, 1)] is not square"]


# Diagonal entries that the diagonal rule must read as eigvalsh does: signed
# zeros, negatives within (-1e-17) and beyond the semidefinite tolerance,
# sizes at and beyond the bounds where LAPACK scales a matrix (2^-485 and
# 2^485) and so rounds its eigenvalues.
DIAGONAL_ENTRIES = [0.0, -0.0, 1.0, 2.0, -1e-17, -1e-3, -1.0, 1e-160, -3e-161, 2.0**-485,
                    -2.0**-485, 2.0**485, 3e300, -1e-300, 5e-324]


def test_diagonal_lows_equal_eigvalsh_bit_for_bit():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 21, 22):
        S = np.zeros((400, n, n))
        S[:, range(n), range(n)] = rng.choice(DIAGONAL_ENTRIES, size=(400, n))
        S[:200, range(n), range(n)] *= rng.choice([1.0, 1e-9], size=(200, 1))
        lows = cost._diagonal_lows(S)
        if lows is not None:
            assert lows.tobytes() == np.linalg.eigvalsh(S)[:, 0].tobytes()
        for k in range(0, 400, 7):  # each matrix as a stack of one
            lows = cost._diagonal_lows(S[k:k + 1])
            if lows is not None:
                assert lows.tobytes() == np.linalg.eigvalsh(S[k:k + 1])[:, 0].tobytes()
    # The rule reads 1 x 1 to 21 x 21 diagonals whose nonzero entries' sizes
    # lie within the bounds, the first of equal smallest entries, 0.0 or
    # -0.0, first; it declines a cross term, any nonzero size beyond the
    # bounds and n = 22, whose sort need not keep 0.0 and -0.0 in order.
    assert cost._diagonal_lows(np.diag([-0.0, 0.0, 2.0])[None]).tobytes() == \
        np.array([-0.0]).tobytes()
    assert cost._diagonal_lows(np.diag([0.0] * 20 + [-0.0])[None]).tobytes() == \
        np.array([0.0]).tobytes()
    assert cost._diagonal_lows(np.diag([2.0**-485, -2.0**485])[None]).tolist() == [-2.0**485]
    assert cost._diagonal_lows(np.array([[[1.0, 1e-300], [1e-300, 1.0]]])) is None
    assert cost._diagonal_lows(np.diag([1e-160, 1.0])[None]) is None
    assert cost._diagonal_lows(np.diag([1e300, 1.0])[None]) is None
    assert cost._diagonal_lows(np.eye(22)[None]) is None


def validated(spec, top, p, control_dims):
    try:
        spec.validate(top, p, control_dims)
    except ConfigError as exc:
        problems = exc.violations
    else:
        problems = None
    return problems, [(name, key, value.tobytes()) for name in ("Q", "R", "D", "W", "E")
                      for key, value in getattr(spec, name).items()]


def leader_pair_spec(p, m, weights):
    top = Topology.from_edge_list(2, [[1, 2, 1.0], [2, 1, 1.0]], leader_links=[1])
    spec = CostSpec.uniform(top, p, q=1.0, r=1.0, d=0.0, w=2.0, e=0.0,
                            control_dims={1: m, 2: m})
    for (name, key), value in weights.items():
        getattr(spec, name)[key] = np.array(value, dtype=float)
    return top, spec


@pytest.mark.parametrize("p, m, weights", [
    (2, 1, {("Q", (1, 2)): np.diag([-0.0, 1.0]), ("D", (2, 1)): np.diag([0.0, -0.0]),
            ("R", 1): [[-0.0]], ("R", 2): [[0.0]]}),
    (2, 1, {("Q", (1, 2)): [[1.0, -0.0], [0.0, 2.0]], ("W", 1): [[-0.0, 0.0], [-0.0, 0.0]]}),
    (2, 1, {("Q", (1, 2)): np.diag([1.0, -1e-17]), ("E", 1): np.diag([-1e-17, 0.0]),
            ("D", (1, 2)): np.diag([-1e-3, 1.0])}),
    (2, 1, {("R", 1): [[-1.0]], ("R", 2): [[1e-17]], ("Q", (2, 1)): np.diag([-1.0, -2.0])}),
    (2, 2, {("R", 1): np.diag([1.0, 0.0]), ("R", 2): np.diag([-0.0, 0.0])}),
    (2, 2, {("R", 1): np.diag([1.0, -0.0]), ("R", 2): [[2.0, 1.0], [1.0, 2.0]]}),
    (2, 1, {("Q", (1, 2)): np.diag([1.0, -1e-17]), ("Q", (2, 1)): [[1.0, 0.5], [0.5, 1.0]],
            ("D", (2, 1)): np.diag([-0.0, -1e-3])}),
    (2, 1, {("Q", (1, 2)): np.diag([1e-160, -3e-176]), ("D", (1, 2)): np.diag([3e300, -1e-300]),
            ("R", 1): [[1e-200]]}),
    (3, 1, {("Q", (1, 2)): np.diag([1.0, 0.0, -1e-17]), ("W", 1): np.diag([-0.0, 1.0, -5.0])}),
])
def test_diagonal_rule_validates_as_eigvalsh_does(monkeypatch, p, m, weights):
    # The same problems, in the same order, and bitwise the same tables,
    # with diagonal stacks read from their diagonals and with every stack
    # put through the drift, symmetrization and eigvalsh pass.
    top, spec = leader_pair_spec(p, m, weights)
    fast = validated(spec, top, p, {1: m, 2: m})
    top, spec = leader_pair_spec(p, m, weights)
    monkeypatch.setattr(cost, "_diagonal_lows", lambda S: None)
    assert validated(spec, top, p, {1: m, 2: m}) == fast
