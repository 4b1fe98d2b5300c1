"""Command-line front end: run scenarios, validate configs, dump adjoint
oracles, and compare solver methods.

Exit codes: 0 success, 1 configuration error or artifacts that cannot be
written, 2 numeric failure, 3 iteration cap hit (artifacts are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import adjoint, scenarios
from .errors import ConfigError, NumericError, PreconditionError


def _resolve_source(token: str) -> str:
    """An existing scenario file, else a preset name; a directory named
    like a preset does not shadow it."""
    if os.path.isfile(token):
        return token
    presets = scenarios.list_presets()
    if token in presets:
        return scenarios.preset_path(token)
    raise ConfigError(f"{token!r} is neither a scenario file nor a preset "
                      f"(presets: {', '.join(presets)})")


def _load(args) -> scenarios.ScenarioSpec:
    overrides = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    return scenarios.load_scenario(_resolve_source(args.scenario), overrides)


def _cmd_run(args) -> int:
    spec = _load(args)
    out_dir = args.out or scenarios.default_out_dir(spec)
    start = time.perf_counter()
    result = scenarios.run_scenario(spec)
    wall = time.perf_counter() - start
    artifacts = scenarios.emit_results(result, spec, out_dir, wall_time=wall)
    print(json.dumps(artifacts.metrics, indent=2, sort_keys=True))
    print(f"artifacts written to {out_dir}", file=sys.stderr)
    return 0 if np.all(result.converged) else 3


def _cmd_check(args) -> int:
    spec = _load(args)
    print(json.dumps(spec.resolved, indent=2, sort_keys=True))
    return 0


def _window_problem(spec: scenarios.ScenarioSpec, agent: int, step: int):
    """Agent's (LocalProblem, window) at MPC step `step`, from its session's
    ``local_problems`` (a finite-horizon scenario has only step 0)."""
    if step < 0:
        raise ConfigError(f"--t must be >= 0, got {step}")
    if spec.mpc is None and step != 0:
        raise ConfigError("finite-horizon scenarios only support --t 0")
    session = scenarios.new_session(spec)
    for _ in range(step):
        session.step()
    return session.local_problems()[agent]


def _cmd_gradcheck(args) -> int:
    spec = _load(args)
    if not 1 <= args.agent <= spec.topology.n:
        raise ConfigError(f"agent {args.agent} out of range 1..{spec.topology.n}")
    problem, u = _window_problem(spec, args.agent, args.t)
    g, Hmat = problem.gradient(u), problem.hessian(u)
    g_fd, H_fd = adjoint.fd_gradient(problem, u), adjoint.fd_hessian(problem, u)

    out_dir = args.out or scenarios.default_out_dir(spec)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"gradcheck_agent{args.agent}_t{args.t}.csv")
    with open(path, "w") as fh:
        fh.write("index,grad,fd_grad,abs_diff\n")
        for idx in range(g.size):
            fh.write(f"{idx},{g[idx]!r},{g_fd[idx]!r},{abs(g[idx] - g_fd[idx])!r}\n")
        fh.write("\n")
        fh.write("row,col,hessian,fd_hessian,abs_diff\n")
        for a in range(Hmat.shape[0]):
            for b in range(Hmat.shape[1]):
                fh.write(f"{a},{b},{Hmat[a, b]!r},{H_fd[a, b]!r},"
                         f"{abs(Hmat[a, b] - H_fd[a, b])!r}\n")
    g_err = np.linalg.norm(g - g_fd) / (1.0 + np.linalg.norm(g_fd))
    H_err = np.linalg.norm(Hmat - H_fd) / (1.0 + np.linalg.norm(H_fd))
    print(f"gradient rel error {g_err:.3e}, hessian rel error {H_err:.3e}")
    print(f"written to {path}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    """Run each of ``--methods`` one-shot on the scenario's horizon (an MPC
    scenario's N_p), loaded once; every method is checked before any runs."""
    spec = _load(args)
    one_shot = dataclasses.replace(spec, mpc=None, horizon=spec.horizon or spec.mpc.N_p)
    try:
        solvers = [dataclasses.replace(spec.solver, method=m.strip())
                   for m in args.methods.split(",") if m.strip()]
    except ValueError as exc:  # SolverConfig's unknown method, as the loader reports it
        raise ConfigError(f"solver: {exc}") from None
    rows = []
    for solver in solvers:
        start = time.perf_counter()
        result = scenarios.run_scenario(dataclasses.replace(one_shot, solver=solver))
        wall = time.perf_counter() - start
        rows.append((solver.method, result.rounds, result.converged,
                     result.global_costs[-1], wall))
    print(f"{'method':<8}{'rounds':>8}{'converged':>11}{'final_cost':>16}{'seconds':>10}")
    for method, rounds, conv, cost_v, wall in rows:
        print(f"{method:<8}{rounds:>8}{str(conv):>11}{cost_v:>16.6e}{wall:>10.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optcons",
        description="Distributed optimal consensus simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("scenario", help="preset name or path to a scenario JSON")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override (repeatable)")

    p_run = sub.add_parser("run", help="run a scenario and write CSV artifacts")
    add_common(p_run)
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--seed", type=int, help="disturbance stream seed")

    p_check = sub.add_parser("check", help="validate and echo the resolved config")
    add_common(p_check)

    p_grad = sub.add_parser("gradcheck",
                            help="dump gradient/Hessian vs finite differences")
    add_common(p_grad)
    p_grad.add_argument("--agent", type=int, required=True)
    p_grad.add_argument("--t", type=int, default=0, help="MPC step index")
    p_grad.add_argument("--out", help="output directory")

    p_bench = sub.add_parser("bench", help="compare solver methods")
    add_common(p_bench)
    p_bench.add_argument("--methods", default="ocp,msa")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "check": _cmd_check,
                "gradcheck": _cmd_gradcheck, "bench": _cmd_bench}
    try:  # the typed checks report every non-finite result; numpy's warnings would repeat them
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except (ConfigError, PreconditionError, OSError) as exc:  # OSError: writing the artifacts
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
