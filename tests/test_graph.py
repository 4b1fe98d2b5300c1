import numpy as np
import pytest

from optcons import graph
from optcons.errors import PreconditionError
from optcons.graph import (LEADER, Topology, has_spanning_tree, is_strongly_connected,
                           neighbors, require_strongly_connected,
                           unreachable_pair)


def top(n, edges, links=()):
    return Topology.from_edge_list(n, [[i, j, 1.0] for i, j in edges], links)


def test_neighbors_three_cycle():
    t = top(3, [(1, 2), (2, 3), (3, 1)])
    assert neighbors(t, 1) == [2]
    assert neighbors(t, 2) == [3]


def test_neighbors_complete():
    t = top(3, [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j])
    assert neighbors(t, 2) == [1, 3]


def test_neighbors_isolated():
    t = top(3, [(2, 3), (3, 2)])
    assert neighbors(t, 1) == []


def test_neighbors_out_of_range():
    t = top(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        neighbors(t, 0)
    with pytest.raises(ValueError):
        neighbors(t, 4)


def test_no_self_loops():
    with pytest.raises(ValueError):
        top(3, [(1, 1)])


def test_weight_positivity():
    with pytest.raises(ValueError):
        Topology.from_edge_list(2, [[1, 2, 0.0]])
    with pytest.raises(ValueError):
        Topology.from_edge_list(2, [[1, 2, -1.0]])


def test_edge_range():
    with pytest.raises(ValueError):
        top(3, [(1, 4)])


def test_strongly_connected_cycle():
    assert is_strongly_connected(top(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))


def test_strongly_connected_chain_fails():
    assert not is_strongly_connected(top(3, [(1, 2), (2, 3)]))


def test_strongly_connected_pair():
    assert is_strongly_connected(top(2, [(1, 2), (2, 1)]))


def test_spanning_tree_chain():
    # 2 listens to 1, 3 listens to 2: node 1's information reaches all.
    assert has_spanning_tree(top(3, [(2, 1), (3, 2)]))


def test_spanning_tree_disconnected_pairs():
    t = top(4, [(1, 2), (2, 1), (3, 4), (4, 3)])
    assert not has_spanning_tree(t)


def test_spanning_tree_implied_by_strong_connectivity():
    t = top(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert has_spanning_tree(t)


def test_leader_rooted_spanning_tree():
    # Leader feeds 1; 2, 3 cascade.  No agent root covers the leader node,
    # so the check reduces to leader-rooted reachability.
    t = top(3, [(2, 1), (3, 2)], links=[1])
    assert has_spanning_tree(t)
    orphan = top(3, [(2, 1)], links=[1])  # 3 unreachable
    assert not has_spanning_tree(orphan)


@pytest.mark.parametrize("last_edge, expected", [(True, True), (False, False)])
def test_leader_spanning_tree_walks_from_the_leader_only(monkeypatch, last_edge, expected):
    # No agent reaches the leader, so only the leader can root the tree: one
    # reachability walk, not one per node.
    n = 50
    edges = [(i + 1, i) for i in range(1, n - 1 + last_edge)]
    calls = []
    walk = graph._reachable
    monkeypatch.setattr(graph, "_reachable", lambda adj, root: calls.append(root)
                        or walk(adj, root))
    assert has_spanning_tree(top(n, edges, links=[1])) is expected
    assert calls == [LEADER]


def test_unreachable_pair_named():
    t = top(3, [(1, 2), (2, 3)])
    pair = unreachable_pair(t)
    assert pair is not None
    with pytest.raises(PreconditionError) as err:
        require_strongly_connected(t)
    assert f"{pair[0]} -> {pair[1]}" in str(err.value)


def test_random_graphs_strong_connectivity_implies_spanning_tree():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        density = rng.uniform(0.1, 0.9)
        edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if i != j and rng.random() < density]
        if not edges:
            continue
        t = top(n, edges)
        if is_strongly_connected(t):
            assert has_spanning_tree(t)
            checked += 1
    assert checked > 50


def test_neighbors_permutation_independent():
    rng = np.random.default_rng(7)
    edges = [(i, j) for i in range(1, 7) for j in range(1, 7)
             if i != j and rng.random() < 0.4]
    rows = [[i, j, 1.0] for i, j in edges]
    t1 = Topology.from_edge_list(6, rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    t2 = Topology.from_edge_list(6, shuffled)
    for i in range(1, 7):
        assert neighbors(t1, i) == neighbors(t2, i)
    assert is_strongly_connected(t1) == is_strongly_connected(t2)
