"""Integrity checks of the benchmark itself.

    python3 -m pytest -p no:cacheprovider perfbench/tests/check_integrity.py -q

The file is named check_*.py so that the repository's own test run does
not collect it; pass it to pytest explicitly.  Episodes are shortened to a
few closed-loop steps.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
from tracer import PUBLISHED_SPANS, Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STEPS = 4


def short(name, seed=3, k=0):
    raw = WORKLOADS[name].scenario(seed, k)
    raw["mpc"]["T"] = STEPS
    return raw


def traced_episode(raw, out_dir):
    tracer = Tracer()
    episode = tracer.wrap(harness.run_episode, "harness.episode", "harness")
    with tracer.installed():
        ep = episode(raw, str(out_dir))
    return tracer, ep


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_artifacts_byte_identical_with_tracing(name, tmp_path):
    raw = short(name)
    plain = harness.run_episode(raw, str(tmp_path / "plain"))
    tracer, traced = traced_episode(raw, tmp_path / "traced")
    for ep in (plain, traced):
        harness.digest_artifacts(ep)
    assert plain.digests == traced.digests
    assert tracer.stats["coordinator.step"][0] == STEPS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    def exact_counts(sub):
        tracer, _ = traced_episode(short(name, seed=5, k=1), tmp_path / sub)
        m = tracer.metrics(1.0, 1.0)
        return {k: v for k, v in m.items()
                if k.endswith((".calls", "_per_update", "_frac", "_mean"))
                and k != "trace_overhead_frac"}

    first = exact_counts("a")
    assert first == exact_counts("b")
    assert all(first[f"{span}.calls"] > 0 for span in PUBLISHED_SPANS)


def test_layer_self_times_add_up_to_traced_wall(tmp_path):
    tracer, _ = traced_episode(short("formation_drops"), tmp_path)
    wall = tracer.stats["harness.episode"][1]
    m = tracer.metrics(wall, wall)
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert abs(layers - wall) <= 1e-9 * max(wall, 1.0)
    assert m["harness.self_s"] + m["trace.self_s"] < 0.05 * wall


def test_tracer_restores_every_patched_function():
    targets = Tracer()._targets()
    before = [owner.__dict__[attr] for owner, attr, *_ in targets]
    with Tracer().installed():
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr, *_), fn in zip(targets, before))
    assert [owner.__dict__[attr] for owner, attr, *_ in targets] == before


def test_stale_deliveries_only_with_drops(tmp_path):
    dropped, _ = traced_episode(short("formation_drops"), tmp_path / "drops")
    fresh, _ = traced_episode(short("rendezvous"), tmp_path / "fresh")
    assert dropped.metrics(1.0, 1.0)["coordinator.stale_delivery_frac"] > 0.0
    assert fresh.metrics(1.0, 1.0)["coordinator.stale_delivery_frac"] == 0.0


def test_scenarios_depend_only_on_seed_and_episode():
    for workload in WORKLOADS.values():
        assert workload.scenario(7, 2) == workload.scenario(7, 2)
        assert workload.scenario(7, 2) != workload.scenario(8, 2)
        assert workload.scenario(7, 2) != workload.scenario(7, 3)


def test_reference_check_catches_a_changed_round_count(tmp_path):
    workload = WORKLOADS["tracking_long"]
    ep = harness.run_episode(short("tracking_long"), str(tmp_path))
    harness.digest_artifacts(ep)
    reference = ep.outcome()
    assert harness.check_episode(ep, reference, workload) == []
    assert harness.hashes_match(ep, reference)
    changed = dict(reference, total_rounds=reference["total_rounds"] + 1)
    assert harness.check_episode(ep, changed, workload)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rendezvous",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_numeric_failure_in_first_window_still_gives_a_result(tmp_path, monkeypatch):
    from optcons import coordinator
    from optcons.errors import NumericError

    def fail(self):
        raise NumericError("G+H not PD")

    monkeypatch.setattr(coordinator.Session, "step", fail)
    workload = WORKLOADS["tracking_long"]
    ep = harness.run_episode(short("tracking_long"), str(tmp_path))
    assert ep.failed_windows == STEPS and ep.step_s == []
    harness.digest_artifacts(ep)
    assert harness.check_episode(ep, None, workload)
    metrics = harness.end_to_end([ep], [1e-3])
    assert metrics["step_ms_p50"] is None and metrics["first_step_s"] is None
    assert metrics["rounds_per_s"] is None and metrics["setup_s"] == 1e-3
    assert harness.counts([ep])["unconverged_frac"] == 1.0
    result = harness.run_workload("tracking_long", 0, 1, False, str(tmp_path / "run"), {})
    assert not result["correct"]
    assert result["counts"]["failed_windows"] == result["counts"]["windows"] > 0
    assert "no samples" in harness.format_table(result)
    json.dumps(result["end_to_end"], allow_nan=False)
