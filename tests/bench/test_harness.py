"""Tests for the experiment harness and CLI."""

import numpy as np
import pytest

from repro.bench import ExperimentResult, format_table, sample_count, tensor_elements
from repro.bench.__main__ import EXPERIMENTS, main
from repro.bench.harness import element_sparse_tensors, flow_vs_packet
from repro.core import OmniReduce, OmniReduceConfig
from repro.core.flowreduce import FlowOmniReduce
from repro.netsim import Cluster, ClusterSpec
from repro.netsim.flow import flow_view


def make_result():
    result = ExperimentResult(
        "figure-0", "Demo", ["name", "value"],
    )
    result.add_row(name="a", value=1.2345)
    result.add_row(name="b", value=250.0)
    result.notes.append("a note")
    return result


def test_add_row_and_column():
    result = make_result()
    assert result.column("name") == ["a", "b"]
    assert result.column("value") == [1.2345, 250.0]


def test_row_where():
    result = make_result()
    assert result.row_where(name="b")["value"] == 250.0
    with pytest.raises(KeyError):
        result.row_where(name="missing")


def test_format_table_contains_everything():
    text = format_table(make_result())
    assert "FIGURE-0" in text
    assert "Demo" in text
    assert "1.23" in text
    assert "250" in text
    assert "note: a note" in text


def test_format_table_alignment():
    lines = format_table(make_result()).splitlines()
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("name"))
    separator = lines[header_idx + 1]
    assert set(separator) <= {"-", " "}


def test_tensor_elements_env(monkeypatch):
    monkeypatch.setenv("REPRO_TENSOR_MB", "8")
    elements = tensor_elements()
    assert elements == (int(8e6 / 4) // 256) * 256
    monkeypatch.setenv("REPRO_TENSOR_MB", "-1")
    with pytest.raises(ValueError):
        tensor_elements()


def test_sample_count_env(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLES", "3")
    assert sample_count() == 3
    monkeypatch.setenv("REPRO_SAMPLES", "0")
    with pytest.raises(ValueError):
        sample_count()


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "figure-6" in out
    assert "table-2" in out


def test_cli_no_args_lists(capsys):
    assert main([]) == 0
    assert "figure-1" in capsys.readouterr().out


def test_cli_unknown_experiment(capsys):
    assert main(["figure-999"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_runs_cheap_experiment(capsys):
    assert main(["figure-20"]) == 0
    out = capsys.readouterr().out
    assert "FIGURE-20" in out
    assert "completed in" in out


def test_cli_save_writes_table(tmp_path, capsys):
    assert main(["figure-20", "--save", str(tmp_path)]) == 0
    saved = tmp_path / "figure-20.txt"
    assert saved.exists()
    assert "FIGURE-20" in saved.read_text()


def test_cli_save_json(tmp_path, capsys):
    assert main(["figure-20", "--save", str(tmp_path), "--json"]) == 0
    saved = tmp_path / "figure-20.json"
    assert saved.exists()
    restored = ExperimentResult.from_json(saved.read_text())
    assert restored.experiment_id == "figure-20"
    assert restored.rows


def test_json_roundtrip():
    result = make_result()
    result.add_row(name="c", value=float("nan"))
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.experiment_id == result.experiment_id
    assert restored.columns == result.columns
    assert restored.rows[0] == result.rows[0]
    import math

    assert math.isnan(restored.rows[-1]["value"])
    assert restored.notes == result.notes


def test_experiment_registry_covers_every_paper_artifact():
    ids = set(EXPERIMENTS)
    # Every evaluated figure and table of the paper has a bench target.
    for fig in (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21):
        assert f"figure-{fig}" in ids
    assert {"table-1", "table-2"} <= ids


def test_conformance_experiment_registered():
    assert "conformance" in EXPERIMENTS


@pytest.mark.conformance
def test_conformance_experiment_all_pass_and_mutants_caught():
    result = EXPERIMENTS["conformance"]()
    statuses = {row["algorithm"]: row["status"] for row in result.rows}
    # One row per registry algorithm plus the two mutant rows.
    from repro.baselines.registry import ALGORITHMS

    for name in ALGORITHMS:
        assert statuses[name] == "PASS"
    assert statuses["mutant:broken-result"] == "PASS"
    assert statuses["mutant:zero-block-spam"] == "PASS"
    mutant_rows = [r for r in result.rows if r["algorithm"].startswith("mutant:")]
    assert all(r["oracle_ok"] == "caught" for r in mutant_rows)
    # The notes carry a minimized seed-replay for each mutant.
    minimized = [n for n in result.notes if "minimized to ConformanceCase(" in n]
    assert len(minimized) == 2


def _paired_run(corrupt=None):
    """A tiny flow-vs-packet workload; ``corrupt`` edits the flow result."""
    tensors = element_sparse_tensors(4, 2048, 0.5, seed=1)

    def run(flow):
        cluster = Cluster(ClusterSpec(workers=4, aggregators=4))
        if flow:
            engine = FlowOmniReduce(flow_view(cluster), OmniReduceConfig())
        else:
            engine = OmniReduce(cluster, OmniReduceConfig())
        result = engine.allreduce(tensors)
        if flow and corrupt is not None:
            corrupt(result)
        return result

    return run


def test_element_sparse_tensors_is_seeded():
    first = element_sparse_tensors(3, 1000, 0.9, seed=7)
    again = element_sparse_tensors(3, 1000, 0.9, seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert all(t.dtype == np.float32 and t.size == 1000 for t in first)
    assert 0.8 < np.mean(np.stack(first) == 0) < 0.95


def test_flow_vs_packet_returns_both_walls():
    flow, flow_wall, packet_wall = flow_vs_packet(_paired_run(), floor=0.0)
    assert flow_wall > 0 and packet_wall > 0
    assert flow.packets_sent > 0


def test_flow_vs_packet_rejects_one_diverged_element():
    def corrupt(result):
        result.outputs[2] = result.outputs[2].copy()
        result.outputs[2][5] = np.nextafter(result.outputs[2][5], np.inf)

    with pytest.raises(RuntimeError, match="diverged"):
        flow_vs_packet(_paired_run(corrupt), floor=0.0)


@pytest.mark.parametrize(
    "counter", ["bytes_sent", "packets_sent", "upward_bytes", "downward_bytes"]
)
def test_flow_vs_packet_rejects_one_diverged_counter(counter):
    def corrupt(result):
        setattr(result, counter, getattr(result, counter) + 1)

    with pytest.raises(RuntimeError, match=counter):
        flow_vs_packet(_paired_run(corrupt), floor=0.0)


def test_flow_vs_packet_enforces_the_floor():
    with pytest.raises(RuntimeError, match="below the floor"):
        flow_vs_packet(_paired_run(), floor=1e9)
