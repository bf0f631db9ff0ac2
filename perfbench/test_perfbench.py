"""Self-tests for the benchmark's own machinery (no timing involved).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import common
import gen
import layers
import speed
from oracle import Oracle, wrong_verdicts
from spans import Recorder, attribute

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_on_nested_spans():
    # A[0,10] holds B[2,5] (which holds C[3,4]) and D[6,8].
    spans = [
        (1, 0, 1, "A", 0.0, 10.0),
        (2, 1, 1, "B", 2.0, 5.0),
        (3, 2, 1, "C", 3.0, 4.0),
        (4, 1, 1, "D", 6.0, 8.0),
    ]
    got = attribute(spans, [(0.0, 12.0)])
    assert got == pytest.approx({"A": 5.0, "B": 2.0, "C": 1.0, "D": 2.0, "other": 2.0})
    # Clipping to a window inside the spans.
    got = attribute(spans, [(2.5, 6.5)])
    assert got == pytest.approx({"B": 1.5, "C": 1.0, "A": 1.0, "D": 0.5})


def test_concurrent_spans_share_time_and_sum_to_window():
    # Two requests on two threads overlap on [2, 4]; each gets half of it.
    spans = [(1, 0, 1, "X", 0.0, 4.0), (2, 0, 2, "Y", 2.0, 6.0)]
    got = attribute(spans, [(0.0, 7.0)])
    assert got == pytest.approx({"X": 3.0, "Y": 3.0, "other": 1.0})
    assert sum(got.values()) == pytest.approx(7.0)


def test_recorder_carries_request_across_threads():
    rec = Recorder()
    rec.enabled = True
    outer = rec.begin("outer")
    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(rec.carry(lambda: rec.end(rec.begin("inner"))))
        fut.result(timeout=10)
    rec.end(outer)
    by_name = {s[3]: s for s in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]  # parent
    assert by_name["inner"][2] == by_name["outer"][2]  # request id
    assert rec.begin("next")[2] != by_name["outer"][2]  # a new root, a new id


def test_oracle_flags_an_injected_wrong_verdict():
    keys = np.sort(gen.make_keys(5, 2000))
    los = gen.probe_batches(5, keys, [256])[0]
    expected = Oracle(keys).empty(los)
    assert 0 < expected.sum() < los.size
    assert wrong_verdicts(expected.copy(), expected) == 0
    injected = expected.copy()
    injected[17] = not injected[17]
    assert wrong_verdicts(injected, expected) == 1


def test_oracle_follows_the_mutation_script():
    pre = np.sort(gen.make_keys(6, 500))
    script = gen.mutation_script(6, pre, blocks=4, block=50)
    oracle = Oracle(pre, script.ops, script.keys)
    live = set(pre.tolist())
    t = 0
    for b in range(4):
        for op, key in zip(script.ops[t:t + 50].tolist(), script.keys[t:t + 50].tolist()):
            if op == gen.PUT:
                live.add(key)
            else:
                live.discard(key)
        t += 50
        los = np.concatenate([script.probes[b:b + 1], script.keys[:t]])
        brute = np.array([not any(lo <= k < lo + gen.RANGE_SIZE for k in live)
                          for lo in los.tolist()])
        assert np.array_equal(oracle.empty(los, t), brute)
        assert oracle.live_count(t) == len(live)


def test_oracle_on_ranges_holding_several_keys():
    pre = np.array([0, 5, 10, 40, 41], dtype=np.uint64)
    ops = np.array([gen.PUT, gen.PUT, gen.DELETE, gen.PUT, gen.DELETE, gen.DELETE], dtype=np.uint8)
    keys = np.array([3, 70, 3, 7, 70, 7], dtype=np.uint64)
    oracle = Oracle(pre, ops, keys)
    los = np.arange(0, 90, dtype=np.uint64)
    live = set(pre.tolist())
    for t in range(ops.size + 1):
        brute = np.array([not any(lo <= k < lo + gen.RANGE_SIZE for k in live)
                          for lo in los.tolist()])
        assert np.array_equal(oracle.empty(los, t), brute)
        if t < ops.size:
            (live.add if ops[t] == gen.PUT else live.discard)(int(keys[t]))


def _streams(seed):
    keys = gen.make_keys(seed, 3000)
    sk = np.sort(keys)
    hot = gen.zipf_hot_set(seed, sk, 64)
    script = gen.mutation_script(seed, sk, blocks=3, block=40)
    parts = [keys, hot, *gen.probe_batches(seed, sk, [256, 64]),
             *gen.zipf_batches(seed, hot, [64, 32]),
             script.ops, script.keys, script.probes, gen.empty_sweep(seed, sk, 100)]
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


def test_inputs_depend_only_on_the_seed():
    assert _streams(11) == _streams(11)
    assert _streams(11) != _streams(12)


def test_probe_batches_are_fresh_and_mixed():
    keys = np.sort(gen.make_keys(3, 5000))
    batches = gen.probe_batches(3, keys, [2000, 2000])
    allv = np.concatenate(batches)
    assert np.unique(allv).size == allv.size
    nonempty = gen.intersects(keys, allv, allv + np.uint64(gen.RANGE_SIZE - 1))
    assert nonempty.sum() == 2 * 200


def test_metric_names_and_benchmark_json_agree():
    names = [n for n, _ in common.END_TO_END] + [n for n, _ in layers.PER_LAYER]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in common.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    units = dict(common.END_TO_END + layers.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]]


def test_speed_scale_follows_the_nearby_kernel_times():
    s = speed.Speed()
    s.at = [0.0, 0.5, 1.0, 10.0, 10.5]
    s.took = [1e-3, 1e-3, 3e-3, 2e-3, 2e-3]
    got = s.kernel_s_at([0.2, 10.2, 5.0])
    # Medians within WINDOW_S; no sample near 5.0, so the nearest one (1.0).
    assert got == pytest.approx([1e-3, 2e-3, 3e-3])
    assert s.scale_at([10.2]) == pytest.approx([speed.NOMINAL_S / 2e-3])
    other = speed.Speed()
    other.spent, other.at, other.took = 0.25, [5.0], [4e-3]
    s.absorb(other.summary())
    assert s.spent == pytest.approx(0.25)
    assert s.at == [0.0, 0.5, 1.0, 5.0, 10.0, 10.5]
    assert s.kernel_s() == pytest.approx(2e-3)
    assert s.kernel_s_at([5.0]) == pytest.approx([4e-3])


def test_sliced_pct_trims_the_extreme_slices():
    # Ten slices of 50 samples with medians 1..10; a burst makes slice 3 slow.
    values = np.repeat(np.arange(1.0, 11.0), 50)
    values[100:150] = 1000.0
    assert common.sliced_pct(values, 50, "x") == pytest.approx(np.mean([2, 4, 5, 6, 7, 8, 9, 10]))
    with pytest.raises(RuntimeError):
        common.sliced_pct(values[:49], 50, "x")


def test_layers_uninstall_restores_every_original():
    from repro.engine import batch, engine, service
    from repro.lsm.store import LSMStore

    before = (batch.shard_batch_empty, service.shard_batch_empty,
              engine.batch_range_empty, LSMStore.range_empty, LSMStore.flush)
    lay = layers.Layers(Recorder())
    lay.install()
    try:
        assert service.shard_batch_empty is not before[1]
    finally:
        lay.uninstall()
    after = (batch.shard_batch_empty, service.shard_batch_empty,
             engine.batch_range_empty, LSMStore.range_empty, LSMStore.flush)
    assert all(a is b for a, b in zip(before, after))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
