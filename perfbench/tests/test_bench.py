"""Tests of the benchmark itself: ledger repeatability, tracing, refusal.

Run with ``python -m pytest perfbench/tests`` (about a minute: the ledger
test runs every workload's pass three times).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_ledger_passes_count_identically(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(7)
    workload.run_pass(inputs, str(tmp_path))  # warm-up: lazy imports
    first, counts = layers.count_work(lambda: workload.run_pass(inputs, str(tmp_path)))
    second, again = layers.count_work(lambda: workload.run_pass(inputs, str(tmp_path)))
    assert counts == again
    assert first.digest == second.digest
    assert first.failures == [] and counts["delivered"] > 0
    assert counts["calls.total"] > 0


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.make_inputs(3) == workload.make_inputs(3)
        assert workload.make_inputs(3) != workload.make_inputs(4)


def test_self_time_subtracts_direct_children():
    tracer = layers.Tracer()
    tracer.spans = [
        ["sim.run", 0.0, 10.0, -1],
        ["core.select", 1.0, 3.0, 0],
        ["tcp.send_segment", 4.0, 8.0, 0],
        ["net.send", 5.0, 6.0, 2],
    ]
    summary = tracer.summary()
    assert summary["sim.run"] == {"calls": 1, "self_s": 4.0}
    assert summary["tcp.send_segment"] == {"calls": 1, "self_s": 3.0}
    assert summary["net.send"] == {"calls": 1, "self_s": 1.0}
    assert summary["snapshot.restore"] == {"calls": 0, "self_s": 0.0}


def test_traced_twin_pass_keeps_results_and_forks_round_trip(tmp_path):
    workload = workloads.WORKLOADS["twin_regret"]
    spec = workload.make_inputs(5)
    plain = workload.run_pass(spec, str(tmp_path))
    tracer = layers.Tracer()
    with tracer.installed():
        traced = workload.run_pass(spec, str(tmp_path))
        assert workload.final_checks(spec, str(tmp_path)) == []
    assert traced.digest == plain.digest
    summary = tracer.summary()
    assert summary["snapshot.restore"]["calls"] >= workloads.TWIN_FORKS
    assert summary["snapshot.capture"]["calls"] > 1
    assert summary["core.select"]["calls"] > 0
    # Wrappers are gone after the block.
    assert layers.Simulator.run.__name__ == "run"
    assert not hasattr(layers.Simulator.run, "__wrapped__")


def test_campaign_warm_phase_reads_every_cold_entry(tmp_path):
    workload = workloads.WORKLOADS["campaign_drain"]
    specs = workload.make_inputs(5)
    tracer = layers.Tracer()
    with tracer.installed():
        result = workload.run_pass(specs, str(tmp_path))
    assert result.failures == []
    summary = tracer.summary()
    jobs = len(specs)
    assert summary["exec.cache_put"]["calls"] == jobs
    # The warm drain finds every job in the cache.
    assert tracer.cache_hits >= jobs


def test_run_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dash_hetero",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
