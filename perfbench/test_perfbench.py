"""Self-tests of the benchmark's own code (op lists, percentiles, span arithmetic).

Run with ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oplists  # noqa: E402
from spans import Tracer, install, self_time_by, self_times  # noqa: E402
from summary import percentile, samples_beyond, summarise_ops  # noqa: E402


# ------------------------------------------------------------------ op lists
def _all_inputs(seed: int):
    return (
        oplists.fig3_ops(seed),
        [oplists.zoo_ops(seed, index) for index in range(3)],
        oplists.route_pairs(seed, 256, oplists.ZOO_ROUTE_SAMPLES),
        oplists.serve_pool(seed),
        oplists.serve_ops(seed, 400),
    )


def test_op_lists_are_a_pure_function_of_the_seed():
    assert _all_inputs(7) == _all_inputs(7)
    assert _all_inputs(7) != _all_inputs(8)


def test_op_lists_do_not_depend_on_hash_randomisation():
    code = (
        "import sys, json; sys.path.insert(0, sys.argv[1]); import oplists;"
        "print(json.dumps([oplists.fig3_ops(5), oplists.serve_ops(5, 50)]))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code, str(HERE)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1


def test_every_run_holds_enough_ops_for_a_p90():
    import run

    ops = oplists.fig3_ops(3)
    assert samples_beyond(len(ops), 0.9) >= 10
    assert {point for _, _, point in ops} == set(range(oplists.FIG3_POINTS))
    assert samples_beyond(run.ZOO_MIN_PASSES * len(oplists.zoo_ops(3, 0)), 0.9) >= 10
    assert samples_beyond(oplists.SERVE_PASS_OPS, 0.9) >= 10


def test_serve_mix_replays_every_plan_once_per_block_beside_one_write():
    pool = oplists.serve_pool(11)
    block = len(pool) + 1
    ops = oplists.serve_ops(11, 40 * block)
    for start in range(0, len(ops), block):
        kinds = [kind for kind, _ in ops[start:start + block]]
        assert kinds.count("write") == 1
        replays = sorted(item for kind, item in ops[start:start + block] if kind == "replay")
        assert replays == list(range(len(pool)))
    seeds = [plan["entries"][0]["scenario"]["sim"]["seed"] for kind, plan in ops if kind == "write"]
    assert len(seeds) == len(set(seeds))
    pool_seeds = {entry["seed"] for plan in pool for entry in plan["entries"]}
    assert not pool_seeds & set(seeds)


def test_route_pairs_are_distinct_hosts_in_range():
    for source, dest in oplists.route_pairs(4, 16, 50):
        assert source != dest and 0 <= source < 16 and 0 <= dest < 16


# --------------------------------------------------------------- percentiles
def test_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert percentile(list(range(100)), 0.9) == 89
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(104)), 0.9) == 93
    assert percentile([5.0] * 20, 0.5) == 5.0
    assert percentile([1.0] * 19, 0.5) is None


def test_percentile_is_order_independent():
    values = [float(v) for v in range(200)]
    assert percentile(values[::-1], 0.9) == percentile(values, 0.9) == 179.0


def test_summarise_ops_omits_a_thin_p90():
    assert set(summarise_ops(range(99))) == {"op_p50_ms"}
    summary = summarise_ops(range(100))
    assert summary["op_p90_ms"]["value"] == 89.0
    assert summary["op_p50_ms"]["samples"] == 100


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0] * 50, 1.0)


# ------------------------------------------------------------------ spans
def _span(name, start, end, parent=None, op=None):
    return [name, start, end, parent, op]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),   # overlaps a (another thread)
        _span("c", 8.0, 12.0, 0),  # runs past the parent's end
        _span("d", 1.5, 2.5, 1),   # grandchild: charged to a, not parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_by_groups_per_op_and_layer():
    spans = [
        _span("sim.run", 0.0, 4.0, op=0),
        _span("sim.loop", 1.0, 3.0, 0, op=0),
        _span("sim.run", 5.0, 6.0, op=1),
        _span("api.import", 7.0, 9.0),
    ]
    by_op = self_time_by(spans, per_op=True)
    assert by_op[0] == pytest.approx({"sim.run": 2.0, "sim.loop": 2.0})
    assert by_op[1] == pytest.approx({"sim.run": 1.0})
    assert by_op[None] == pytest.approx({"api.import": 2.0})
    assert self_time_by(spans, per_op=False)[None]["sim.run"] == pytest.approx(3.0)


def test_tracer_records_nesting_and_patches_importers():
    defining = types.ModuleType("reprobenchfake_a")
    importer = types.ModuleType("reprobenchfake_b")

    def inner():
        return 2

    def outer():
        return importer.inner() + 1

    defining.inner = inner
    importer.inner = inner
    importer.outer = outer
    sys.modules["reprobenchfake_a"] = defining
    sys.modules["reprobenchfake_b"] = importer
    try:
        tracer = Tracer()
        install(tracer, [("reprobenchfake_a", "inner", "layer.inner"),
                         ("reprobenchfake_b", "outer", "layer.outer")])
        assert importer.inner is defining.inner is not inner
        assert importer.outer() == 3 and tracer.spans == []
        tracer.enabled = True
        tracer.op = 4
        assert importer.outer() == 3
    finally:
        del sys.modules["reprobenchfake_a"], sys.modules["reprobenchfake_b"]
    names = [(span[0], span[3], span[4]) for span in tracer.spans]
    assert names == [("layer.outer", None, 4), ("layer.inner", 0, 4)]
    assert all(span[2] >= span[1] for span in tracer.spans)


# ------------------------------------------------------- BENCHMARK.json
def test_reported_metrics_match_benchmark_json():
    import json

    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.LAYER_UNITS
    ops = [{"ms": float(ms), "msgs": 10, "traced": False, "failures": []} for ms in range(120)]
    result = {"setup_s": [1.0, 2.0, 3.0], "time_to_result_s": [4.0], "ops": ops, "rss_mb": 9.0}
    computed = run.end_to_end(result)
    reported = {name: computed[name]["unit"] for name in run.BOUNDED}
    assert reported == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert computed["op_p50_ms"]["samples"] == 120
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)


def test_tracing_overhead_compares_like_with_like():
    import run

    ops = [{"kind": "cheap", "traced": True, "ms": 10.0},
           {"kind": "cheap", "traced": False, "ms": 5.0},
           {"kind": "dear", "traced": True, "ms": 110.0},
           {"kind": "dear", "traced": False, "ms": 100.0},
           {"kind": "lone", "traced": True, "ms": 1.0}]
    overhead, samples = run.tracing_overhead_pct(ops)
    assert overhead == pytest.approx(55.0)
    assert samples == 5
