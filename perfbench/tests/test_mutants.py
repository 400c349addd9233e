"""A slowed layer trips its own metric and workload, and only those.

Each mutant adds a fixed busy-wait to one public function (see
``perfbench/mutants.py``).  The end-to-end checks run the benchmark in
fresh processes, as its command does, and compare ``op_ms_p50`` with an
unmutated run against the bound in ``BENCHMARK.json``.  About three
minutes on two cores.
"""

import json
import subprocess
import sys

import pytest

from conftest import ROOT

BOUNDS = {m["name"]: m["bound"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
SECONDS = "10"

#: mutant -> (workload that runs the layer, workload that bypasses it)
CASES = {
    "transmit": ("packet-fig6", "flow-fig6-1024"),
    "serialize-chain": ("flow-fig6-1024", "packet-fig6"),
}


def _op_ms_p50(workload, mutant=None):
    command = ([sys.executable, "-m", "perfbench.mutants", mutant] if mutant
               else [sys.executable, "perfbench/run.py"])
    done = subprocess.run(
        command + ["--workload", workload, "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    return result["metrics"]["op_ms_p50"]["value"]


@pytest.fixture(scope="module")
def baseline():
    return {workload: _op_ms_p50(workload) for workload in ("packet-fig6", "flow-fig6-1024")}


@pytest.mark.parametrize("mutant", sorted(CASES))
def test_mutant_trips_its_workload_and_spares_the_other(mutant, baseline):
    runs, bypasses = CASES[mutant]
    bound = BOUNDS["op_ms_p50"]
    assert _op_ms_p50(runs, mutant) / baseline[runs] - 1.0 > bound
    assert _op_ms_p50(bypasses, mutant) / baseline[bypasses] - 1.0 <= bound


@pytest.mark.parametrize("mutant, metric", [
    ("transmit", "network.ns_per_packet"),
    ("serialize-chain", "flow.ns_per_segment"),
])
def test_mutant_trips_its_microbenchmark(mutant, metric):
    from perfbench import layers, mutants

    before = layers.micro_cost(metric)[0]
    with mutants.applied(mutant):
        after = layers.micro_cost(metric)[0]
    assert after / before - 1.0 > max(BOUNDS.values())
