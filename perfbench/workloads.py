"""Benchmark workloads: closed-loop MPC episodes generated from a seed.

Each workload is a frozen copy of a shipped preset (``scenarios/<name>.json``,
taken from ``src/optcons/presets`` with the run length, horizon and drop
rate set for the benchmark), so an edit to a preset cannot silently change
what the benchmark measures.  A run executes a fixed number of episodes;
episode ``k`` of seed ``s`` perturbs the base scenario with a generator
seeded by ``(s, k)``, so the same seed always yields the same scenario
dicts, and the program sees only those dicts.

Why each workload is here (README.md has the layer table):

* ``rendezvous`` -- 4 unicycles on a complete digraph, N_p=8.  Bound by
  Python call overhead in linearization and Hessian assembly, with the
  sharpest cold-start (hundreds of rounds) versus warm-step (one round)
  split.  The seed jitters every initial pose by up to 0.02: the
  cold-start round count is chaotic in the poses (218-500 rounds at 0.2),
  so a wider jitter would make first_step_s depend mostly on the draw.
* ``tracking_long`` -- the leader-follower chain with N_p=64 (64x64
  windows).  Hessian assembly and linearization dominate; the Newton
  direction is a few percent, so a structured (Riccati) direction shows
  here and a cheaper inner recursion should not.  The seed jitters the
  follower states by up to 0.5 (the leader is not an agent state).
* ``formation_drops`` -- the diamond formation behind a drifting leader
  with 20 % message drops.  L_max=20 and about 65 rounds per step make the
  Newton direction the largest layer, and it is the only workload whose
  receivers get stale trajectories.  The seed drives the drop stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    episode_s: float         # one episode's wall time on a 2-core machine
    jitter: float            # half-width of the uniform jitter on agent states
    seed_drops: bool         # the episode seed feeds the message-drop stream
    max_final_error: float   # sanity limit used when no reference is recorded
    max_unconverged_frac: float

    def base(self) -> dict:
        with open(os.path.join(HERE, "scenarios", f"{self.name}.json")) as fh:
            return json.load(fh)

    def episode_count(self, seconds: float) -> int:
        """Distinct episodes in a run of about `seconds`; fixed by the
        flag, not by the clock, so every count repeats on every machine."""
        return max(1, round(seconds / self.episode_s))

    def scenario(self, seed: int, k: int) -> dict:
        """The scenario dict of episode k of a run with the given seed."""
        raw = self.base()
        rng = np.random.default_rng([seed, k])
        if self.jitter > 0.0:
            for key, x0 in raw["initial_states"].items():
                noise = rng.uniform(-self.jitter, self.jitter, len(x0))
                raw["initial_states"][key] = [float(a + b) for a, b in zip(x0, noise)]
        if self.seed_drops:
            raw["seed"] = int(rng.integers(0, 2**31 - 1))
        return raw


WORKLOADS = {
    w.name: w for w in (
        Workload("rendezvous", episode_s=4.0, jitter=0.02,
                 seed_drops=False, max_final_error=0.5, max_unconverged_frac=0.1),
        Workload("tracking_long", episode_s=3.5, jitter=0.5,
                 seed_drops=False, max_final_error=0.01, max_unconverged_frac=0.0),
        Workload("formation_drops", episode_s=5.5, jitter=0.0,
                 seed_drops=True, max_final_error=0.1, max_unconverged_frac=0.0),
    )
}
