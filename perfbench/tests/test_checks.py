"""The benchmark's own statistics and output checks."""

import dataclasses

import numpy as np
import pytest

from perfbench import bench, stats
from repro.conformance.oracle import dense_oracle
from repro.core.collective import CollectiveResult


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(1, 31))  # 30 samples
    value, percentile, n = stats.tail(values)
    assert (value, n) == (20, 30)
    assert sum(v > value for v in values) == stats.TAIL_MARGIN
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_below_minimum_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _result(outputs):
    return CollectiveResult(outputs=outputs, time_s=1.0, bytes_sent=0, packets_sent=0,
                            upward_bytes=0, downward_bytes=0, rounds=0,
                            retransmissions=0, duplicates=0)


@pytest.mark.parametrize("chunk", [bench.ORACLE_CHUNK, 64])
def test_oracle_check_in_ranges_finds_one_wrong_element(monkeypatch, chunk):
    monkeypatch.setattr(bench, "ORACLE_CHUNK", chunk)
    rng = np.random.default_rng(0)
    tensors = [rng.standard_normal(1000).astype(np.float32) for _ in range(4)]
    good = dense_oracle(tensors).astype(np.float32)
    assert bench.oracle_problems(_result([good.copy() for _ in tensors]), tensors) == []
    bad = good.copy()
    bad[777] += 1.0
    problems = bench.oracle_problems(_result([bad.copy() for _ in tensors]), tensors)
    assert problems and "oracle mismatch" in problems[0]
    split = [good.copy() for _ in tensors]
    split[2][5] += 1.0
    assert bench.oracle_problems(_result(split), tensors)


def test_signature_sees_a_changed_output():
    facts = bench.Facts(collectives=[(_result([np.ones(8, np.float32)] * 2), [])],
                        sim_s=[1.0], blocks=1)
    changed = np.ones(8, np.float32)
    changed[3] = 2.0
    other = dataclasses.replace(facts, collectives=[(_result([np.ones(8, np.float32), changed]), [])])
    assert bench.signature(facts) != bench.signature(other)


def test_op_time_is_scaled_by_its_speed_probes():
    outcome = bench.Outcome("k", "e", "l", host_s=0.3, prepare_s=0.0, events=0, problems=[])
    assert outcome.ref_s == pytest.approx(0.3)  # no probes: taken at reference speed
    outcome.probe_s = 1.5 * stats.PROBE_REF_S  # the host ran 1.5x slower around this op
    assert outcome.ref_s == pytest.approx(0.2)
