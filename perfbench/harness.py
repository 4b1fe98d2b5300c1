"""Episodes, end-to-end metrics, correctness checks and run metadata.

An episode is one closed loop exactly as ``optcons run`` performs it, on
the sequential path: ``load_scenario``, ``Session(...)``, ``step()`` once
per sample period (step k+1 starts only after step k applied its control),
``result()`` and ``emit_results``.  Requires ``src`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy

from optcons import coordinator, scenarios
from optcons.errors import NumericError
from tracer import LAYERS, Tracer, metric_units
from workloads import WORKLOADS

# Units of the end-to-end metrics, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "first_step_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "wall_s": "s",
    "solve_cpu_s": "s",
    "rounds_per_s": "1/s",
    "total_rounds": "count",
    "final_max_error": "norm",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = metric_units()

SETUP_REPEATS = 51
ARTIFACTS = ("trajectories.csv", "errors.csv", "metrics.json", "config.json")
FINAL_ERROR_RTOL = 1e-6

# Seconds the speed probe takes on an undisturbed core of the machine the
# baseline was recorded on (2-core x86 VM); reported times are scaled to it.
PROBE_REFERENCE_S = 6.0e-4
PROBE_MARGIN_S = 2e-3
_PROBE_A = np.eye(3) * 0.5


def probe_s() -> float:
    """Seconds a fixed loop of small NumPy operations takes now.

    The loop does the kind of work optcons does (Python calls around 3x3
    arrays) and never touches the program, so its time tracks only how
    fast the machine currently runs such code.  The faster of two runs.
    """
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        x = np.ones(3)
        for _ in range(300):
            x = _PROBE_A @ x + np.asarray(x, dtype=float) * 0.25
        best = min(best, perf_counter() - t0)
    return best


class SpeedScale:
    """Scale factors that turn measured seconds into reference seconds.

    The machine's speed drifts by up to a factor of two as other tenants
    come and go, in spells from a fraction of a second to minutes.  The
    probe runs after every timed interval, never inside one.  An interval's
    factor is PROBE_REFERENCE_S over the mean probe time in a window that
    reaches one interval length (plus PROBE_MARGIN_S) to either side: the
    probes at its two ends for a short step, and the speed over the
    surrounding seconds for a long one, whose inside cannot be probed.
    """

    def __init__(self):
        self.probes = []      # (time of the probe's middle, probe seconds)
        self.intervals = []   # (start, end) as measured by the caller
        self._probe()

    def _probe(self) -> None:
        t0 = perf_counter()
        p = probe_s()
        self.probes.append((0.5 * (t0 + perf_counter()), p))

    def add(self, start: float, end: float) -> None:
        """Record an interval that just ended, then probe."""
        self.intervals.append((start, end))
        self._probe()

    def factors(self) -> list:
        """One factor per recorded interval, in order."""
        times = np.array([t for t, _ in self.probes])
        secs = np.array([p for _, p in self.probes])
        out = []
        for i, (a, b) in enumerate(self.intervals):
            reach = (b - a) + PROBE_MARGIN_S
            near = (times >= a - reach) & (times <= b + reach)
            near[i] = near[i + 1] = True    # the probes just before and after
            out.append(PROBE_REFERENCE_S / float(secs[near].mean()))
        return out


@dataclass
class Episode:
    """One closed loop's measured times, counts and outputs.

    Times are raw seconds; each has a speed factor (SpeedScale) and the
    ``*_ref`` properties give them in reference seconds.
    """

    setup_s: float
    setup_scale: float
    step_s: list
    step_scale: list
    step_cpu_s: list
    tail_s: float          # result() and emit_results
    tail_scale: float
    windows: int
    rounds: int
    unconverged: int
    failed_windows: int
    final_max_error: float
    out_dir: str
    probes: list
    error: str | None = None
    digests: dict = field(default_factory=dict)

    @property
    def step_ref(self) -> list:
        return [s * c for s, c in zip(self.step_s, self.step_scale)]

    @property
    def wall_s(self) -> float:
        return self.setup_s + sum(self.step_s) + self.tail_s

    @property
    def wall_ref(self) -> float:
        return (self.setup_s * self.setup_scale + sum(self.step_ref)
                + self.tail_s * self.tail_scale)

    @property
    def cpu_ref(self) -> float:
        return sum(s * c for s, c in zip(self.step_cpu_s, self.step_scale))

    def outcome(self) -> dict:
        """What the correctness check compares: counts, quality and hashes."""
        return {"total_rounds": self.rounds, "unconverged": self.unconverged,
                "failed_windows": self.failed_windows,
                "final_max_error": self.final_max_error,
                "trajectories_sha256": self.digests["trajectories.csv"],
                "errors_sha256": self.digests["errors.csv"]}


def new_session(spec):
    return coordinator.Session(
        spec.topology, spec.models, spec.cost, spec.solver, spec.mpc,
        spec.initial_states, leader_model=spec.leader_model,
        leader_x0=spec.leader_x0, seed=spec.seed, error_mask=spec.error_mask)


def measure_setup(raw: dict, repeats: int = SETUP_REPEATS) -> tuple:
    """Seconds of load_scenario plus Session construction, `repeats` times;
    returns (measured, reference) samples."""
    scale = SpeedScale()
    measured = []
    for _ in range(repeats):
        t0 = perf_counter()
        new_session(scenarios.load_scenario(raw))
        t1 = perf_counter()
        measured.append(t1 - t0)
        scale.add(t0, t1)
    return measured, [s * f for s, f in zip(measured, scale.factors())]


def run_episode(raw: dict, out_dir: str) -> Episode:
    """Run one closed loop and write its artifacts to out_dir.

    Set-up, every step, and result() plus emit_results are timed apart,
    with speed probes between them and none inside.  A window that raises
    a numeric failure ends the loop; it and every later window count as
    failed.  If no window completed there is no result to emit, so the
    episode writes no artifacts and its final error is NaN.
    """
    scale = SpeedScale()
    t0 = perf_counter()
    spec = scenarios.load_scenario(raw)
    session = new_session(spec)
    t1 = perf_counter()
    setup_s = t1 - t0
    scale.add(t0, t1)
    steps, step_cpu = [], []
    error = None
    for _ in range(spec.mpc.T):
        c0 = time.process_time()
        t0 = perf_counter()
        try:
            session.step()
        except (NumericError, np.linalg.LinAlgError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            break
        t1 = perf_counter()
        step_cpu.append(time.process_time() - c0)
        steps.append(t1 - t0)
        scale.add(t0, t1)
    t0 = perf_counter()
    result = None
    if steps:
        result = session.result()
        scenarios.emit_results(result, spec, out_dir)
    t1 = perf_counter()
    tail_s = t1 - t0
    scale.add(t0, t1)
    factors = scale.factors()
    return Episode(
        setup_s=setup_s, setup_scale=factors[0], step_s=steps,
        step_scale=factors[1:-1], step_cpu_s=step_cpu, tail_s=tail_s,
        tail_scale=factors[-1], windows=spec.mpc.T,
        rounds=int(result.rounds.sum()) if result else 0,
        unconverged=int((~result.converged).sum()) if result else 0,
        failed_windows=spec.mpc.T - len(steps),
        final_max_error=float(result.max_errors[-1]) if result else math.nan,
        out_dir=out_dir, probes=[p for _, p in scale.probes], error=error)


def digest_artifacts(episode: Episode) -> None:
    """SHA-256 of each artifact; None for one the episode did not write."""
    for name in ARTIFACTS:
        path = os.path.join(episode.out_dir, name)
        if not os.path.exists(path):
            episode.digests[name] = None
            continue
        with open(path, "rb") as fh:
            episode.digests[name] = hashlib.sha256(fh.read()).hexdigest()


def end_to_end(episodes: list, setup_samples: list, raw: bool = False) -> dict:
    """The end-to-end metrics of one run, keyed as END_TO_END_UNITS.

    Times are in reference seconds (SpeedScale); with `raw`, in the
    seconds measured.  A metric with no samples, as when numeric failures
    ended every episode in its first window, is None.
    """
    def steps(ep):
        return ep.step_s if raw else ep.step_ref

    warm = [s for ep in episodes for s in steps(ep)[1:]]
    first = [steps(ep)[0] for ep in episodes if ep.step_s]
    errors = [ep.final_max_error for ep in episodes
              if not math.isnan(ep.final_max_error)]
    stepping_s = sum(sum(steps(ep)) for ep in episodes)
    rounds = sum(ep.rounds for ep in episodes)
    return {
        "setup_s": statistics.median(setup_samples),
        "first_step_s": statistics.median(first) if first else None,
        "step_ms_p50": 1e3 * float(np.percentile(warm, 50)) if warm else None,
        "step_ms_p90": 1e3 * float(np.percentile(warm, 90)) if warm else None,
        "wall_s": statistics.median(ep.wall_s if raw else ep.wall_ref
                                    for ep in episodes),
        "solve_cpu_s": statistics.median(sum(ep.step_cpu_s) if raw else ep.cpu_ref
                                         for ep in episodes),
        "rounds_per_s": rounds / stepping_s if stepping_s else None,
        "total_rounds": rounds,
        "final_max_error": statistics.median(errors) if errors else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def counts(episodes: list) -> dict:
    """Counts that go with the metrics: samples, windows, failures."""
    windows = sum(ep.windows for ep in episodes)
    return {
        "episodes": len(episodes),
        "warm_step_samples": sum(max(len(ep.step_s) - 1, 0) for ep in episodes),
        "first_step_samples": sum(1 for ep in episodes if ep.step_s),
        "windows": windows,
        "failed_windows": sum(ep.failed_windows for ep in episodes),
        "unconverged_windows": sum(ep.unconverged for ep in episodes),
        "unconverged_frac": (sum(ep.unconverged + ep.failed_windows for ep in episodes)
                             / windows),
    }


def check_episode(episode: Episode, reference: dict | None, workload) -> list:
    """Problems with one episode's outputs; empty when they are correct.

    With a reference recorded for this (workload, seed, episode), round
    counts and unconverged windows must match exactly and the final error
    to FINAL_ERROR_RTOL; artifact hashes are reported but not gated, since
    a change of floating-point order may alter them.  Without one, the
    outputs must lie within the workload's sanity limits.
    """
    problems = []
    metrics_path = os.path.join(episode.out_dir, "metrics.json")
    if os.path.exists(metrics_path):
        with open(metrics_path) as fh:
            written = json.load(fh)
        if written["total_rounds"] != episode.rounds:
            problems.append(f"metrics.json total_rounds {written['total_rounds']} "
                            f"!= {episode.rounds}")
        if written["final_max_error"] != episode.final_max_error:
            problems.append("metrics.json final_max_error differs from the run")
    else:
        problems.append("no artifacts written")
    if reference is not None:
        for key in ("total_rounds", "unconverged", "failed_windows"):
            if reference[key] != episode.outcome()[key]:
                problems.append(f"{key} {episode.outcome()[key]} != reference "
                                f"{reference[key]}")
        ref_err = reference["final_max_error"]
        if not math.isclose(episode.final_max_error, ref_err,
                            rel_tol=FINAL_ERROR_RTOL, abs_tol=1e-12):
            problems.append(f"final_max_error {episode.final_max_error!r} != "
                            f"reference {ref_err!r}")
    else:
        if not episode.final_max_error <= workload.max_final_error:
            problems.append(f"final_max_error {episode.final_max_error!r} above "
                            f"the sanity limit {workload.max_final_error}")
        frac = (episode.unconverged + episode.failed_windows) / episode.windows
        if frac > workload.max_unconverged_frac:
            problems.append(f"unconverged share {frac:.3f} above the sanity "
                            f"limit {workload.max_unconverged_frac}")
    return problems


def hashes_match(episode: Episode, reference: dict | None) -> bool | None:
    if reference is None:
        return None
    out = episode.outcome()
    return (out["trajectories_sha256"] == reference["trajectories_sha256"]
            and out["errors_sha256"] == reference["errors_sha256"])


def _git_sha(root: str) -> str | None:
    """HEAD of the git checkout at root; None outside one."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_metadata(root: str, loadavg_1m: float) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "loadavg_1m_at_start": loadavg_1m,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_base: str, reference: dict) -> dict:
    """Run, check and measure one workload; returns the results record.

    `reference` maps episode index (as a string) to its recorded outcome
    for this workload and seed.  With `trace`, the first half of the
    episodes each run untraced and under a Tracer, alternating which goes
    first, and the per-layer metrics come from the traced runs.
    """
    workload = WORKLOADS[name]
    n_episodes = workload.episode_count(seconds)
    if trace:
        # Each traced episode also runs untraced; halve the count to keep
        # the run about as long as an untraced one.
        n_episodes = (n_episodes + 1) // 2
    raws = [workload.scenario(seed, k) for k in range(n_episodes)]
    setup_raw, setup_ref = measure_setup(raws[0])
    tracer = Tracer()
    traced_episode = tracer.wrap(run_episode, "harness.episode", "harness")
    episodes, traced = [], []
    for k, raw in enumerate(raws):
        def run_traced():
            with tracer.installed():
                traced.append(traced_episode(
                    raw, os.path.join(out_base, "traced", f"ep{k}")))
        if trace and k % 2 == 1:
            run_traced()
        episodes.append(run_episode(raw, os.path.join(out_base, "untraced", f"ep{k}")))
        if trace and k % 2 == 0:
            run_traced()

    problems, hash_matches = [], []
    for k, ep in enumerate(episodes):
        digest_artifacts(ep)
        ref = reference.get(str(k))
        problems += [f"episode {k}: {p}" for p in check_episode(ep, ref, workload)]
        hash_matches.append(hashes_match(ep, ref))
    for k, (plain, tr) in enumerate(zip(episodes, traced)):
        digest_artifacts(tr)
        if plain.digests != tr.digests:
            problems.append(f"episode {k}: artifacts differ with tracing on")

    mpc = raws[0]["mpc"]
    probes = [p for ep in episodes for p in ep.probes]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "plan": {"episodes": n_episodes,
                 "episode_seeds": [[seed, k] for k in range(n_episodes)],
                 "T": mpc["T"], "N_p": mpc["N_p"],
                 "drop_probability": mpc["drop_probability"],
                 "setup_repeats": len(setup_ref)},
        "end_to_end": end_to_end(episodes, setup_ref),
        "end_to_end_raw": end_to_end(episodes, setup_raw, raw=True),
        "speed_probe_s": {"reference": PROBE_REFERENCE_S,
                          "median": statistics.median(probes), "min": min(probes),
                          "max": max(probes), "count": len(probes)},
        "counts": counts(episodes),
        "episodes": [dict(ep.outcome(), wall_s=ep.wall_s, wall_ref_s=ep.wall_ref,
                          error=ep.error) for ep in episodes],
        "reference_recorded": bool(reference),
        "artifact_hashes_match_reference": hash_matches,
        "problems": problems,
        "correct": not problems,
    }
    if trace:
        traced_wall = sum(ep.wall_s for ep in traced)
        overhead = (sum(ep.wall_ref for ep in traced)
                    / sum(ep.wall_ref for ep in episodes) - 1.0)
        per_layer = tracer.metrics(traced_wall, overhead)
        result["per_layer"] = per_layer
        result["trace_check"] = {
            "episode_span_s": tracer.stats["harness.episode"][1],
            "layer_self_s_sum": sum(per_layer[f"{layer}.self_s"] for layer in LAYERS),
        }
    return result


def format_table(result: dict) -> str:
    """Every reported metric by name, with its unit and sample count."""
    c = result["counts"]
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"episodes {c['episodes']}  windows {c['windows']}  "
             f"correct {result['correct']}"]
    samples = {"setup_s": result["plan"]["setup_repeats"],
               "first_step_s": c["first_step_samples"],
               "step_ms_p50": c["warm_step_samples"],
               "step_ms_p90": c["warm_step_samples"]}
    for name, unit in END_TO_END_UNITS.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        value = result["end_to_end"][name]
        shown = "no samples" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<18} {shown:>14} {unit}{n}")
    lines.append(f"  {'unconverged_frac':<18} {c['unconverged_frac']:>14.6g} ratio"
                 f"  ({c['unconverged_windows']} unconverged, {c['failed_windows']}"
                 f" failed of {c['windows']} windows)")
    for name, value in result.get("per_layer", {}).items():
        lines.append(f"  {name:<40} {value:>14.6g} {PER_LAYER_UNITS[name]}")
    lines += [f"  PROBLEM {p}" for p in result["problems"]]
    return "\n".join(lines)
