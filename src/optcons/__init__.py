"""Distributed optimal consensus for nonlinear multi-agent systems.

Each agent minimizes its local consensus cost over a finite horizon via
backward costate sweeps (exact gradients), Hessians condensed from
forward sensitivities (exact), and a superlinearly convergent regularized-Newton update,
exchanging predicted trajectories with neighbors in synchronous rounds.
Leaderless, leader-follower, and formation scenarios run under one
receding-horizon coordinator.
"""

from .graph import Topology, neighbors, is_strongly_connected, has_spanning_tree, LEADER
from .dynamics import (Model, step, linearize, fd_jacobian, rollout,
                       unicycle, unicycle_drift, linear, linear_sine, leader_sine)
from .cost import CostSpec, GroupTerms, NeighborBundle, local_cost, global_cost
from .adjoint import (linearize_window, costate_sweep, gradient, hessian,
                      fd_gradient, fd_hessian)
from .solver import SolverConfig, LocalProblem, ocp_direction, contraction_factor
from .coordinator import (MpcConfig, RoundMessage, RunResult, Session, SolveResult,
                          consensus_error, solve_local, run_algorithm1)
from .scenarios import (ScenarioSpec, RunArtifacts, load_scenario, load_preset,
                        list_presets, run_scenario, emit_results)

__version__ = "0.1.0"
