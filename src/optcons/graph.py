"""Directed communication topology and connectivity checks.

Edge convention, used everywhere in the package: an edge ``(i, j)`` means
agent ``i`` *listens to* agent ``j`` (j is in i's neighbor set, i receives
j's trajectory).  Information therefore flows along the reverse of the
stored edge direction.  The optional leader is node ``LEADER = 0``, outside
the agent index range ``1..n``; it only ever sends, never listens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError

LEADER = 0


@dataclass(frozen=True)
class Topology:
    """Weighted digraph over agents 1..n with optional leader links.

    Args:
        n: number of agents (>= 2).
        edges: set of (i, j) pairs, i listens to j.
        weights: positive weight a_ij per edge (metadata only; costs use
            their own weight matrices).
        leader_links: agents that receive the leader's trajectory.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    weights: dict[tuple[int, int], float] = field(default_factory=dict)
    leader_links: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 agents, got n={self.n}")
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        object.__setattr__(self, "leader_links", frozenset(self.leader_links))
        for (i, j) in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) is not allowed")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n}")
        weights = dict(self.weights) if self.weights else {}
        for e in self.edges:
            w = weights.setdefault(e, 1.0)
            if not w > 0.0:
                raise ValueError(f"weight a_{e} must be positive, got {w}")
        for e in weights:
            if tuple(e) not in self.edges:
                raise ValueError(f"weight given for non-edge {tuple(e)}")
        object.__setattr__(self, "weights", weights)
        for i in self.leader_links:
            if not (1 <= i <= self.n):
                raise ValueError(f"leader link {i} out of range 1..{self.n}")

    @classmethod
    def from_edge_list(cls, n, edge_list, leader_links=()):
        """Build from ``[[i, j], ...]`` or ``[[i, j, a_ij], ...]`` rows."""
        edges = set()
        weights = {}
        for row in edge_list:
            if len(row) == 2:
                i, j = row
                a = 1.0
            else:
                i, j, a = row
            edges.add((int(i), int(j)))
            weights[(int(i), int(j))] = float(a)
        return cls(n=int(n), edges=frozenset(edges), weights=weights,
                   leader_links=frozenset(int(k) for k in leader_links))


def neighbors(topology: Topology, i: int) -> list[int]:
    """Agents that ``i`` listens to, sorted ascending."""
    if not (1 <= i <= topology.n):
        raise ValueError(f"agent index {i} out of range 1..{topology.n}")
    return sorted(j for (a, j) in topology.edges if a == i)


def _flow_adjacency(topology: Topology, with_leader: bool) -> dict[int, list[int]]:
    # Information-flow direction: (i, j) in edges means j -> i.
    adj = {i: [] for i in range(1, topology.n + 1)}
    for (i, j) in topology.edges:
        adj[j].append(i)
    if with_leader:
        adj[LEADER] = sorted(topology.leader_links)
    return adj


def _reachable(adj: dict[int, list[int]], root: int) -> set[int]:
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def has_spanning_tree(topology: Topology) -> bool:
    """True iff some root's information reaches every other node.

    Reachability runs along the information-flow direction (reverse of the
    listens-to edges).  When leader links exist the leader participates as
    an extra node with out-edges to its links; since no agent can reach the
    leader, only the leader can be the root, and one walk from it decides.
    """
    with_leader = bool(topology.leader_links)
    adj = _flow_adjacency(topology, with_leader)
    roots = [LEADER] if with_leader else list(adj)
    return any(_reachable(adj, root) == set(adj) for root in roots)


def unreachable_pair(topology: Topology) -> tuple[int, int] | None:
    """First ordered agent pair (i, j) with no directed path i -> j, if any."""
    adj = _flow_adjacency(topology, with_leader=False)
    for i in sorted(adj):
        reach = _reachable(adj, i)
        for j in sorted(adj):
            if j not in reach:
                return (i, j)
    return None


def is_strongly_connected(topology: Topology) -> bool:
    """True iff a directed path exists between every ordered pair of agents.

    The leader is excluded: Assumption-style strong connectivity concerns
    the agent graph only.
    """
    return unreachable_pair(topology) is None


def require_strongly_connected(topology: Topology) -> None:
    """Raise PreconditionError naming a failing pair unless strongly connected."""
    pair = unreachable_pair(topology)
    if pair is not None:
        raise PreconditionError(
            f"communication graph is not strongly connected: no path {pair[0]} -> {pair[1]}"
        )


def require_spanning_tree(topology: Topology) -> None:
    """Raise PreconditionError unless the (leader-augmented) graph has a spanning tree."""
    if not has_spanning_tree(topology):
        raise PreconditionError(
            "communication graph has no spanning tree"
            + (" rooted at the leader" if topology.leader_links else "")
        )
