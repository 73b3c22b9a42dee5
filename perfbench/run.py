"""Repository benchmark: end-to-end and per-layer figures of three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3-sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``NOTES.md`` for why each exists):

* ``fig3-sweep`` — the paper's Fig. 3 system, model and simulator over the
  8-point load grid for 13 seeds, in one fresh process; two more fresh
  processes only set up, so ``setup_s`` is a median of three.
* ``zoo-cold`` — cold starts (fresh processes) of a 16x16 torus and a k=8
  fat-tree, each followed by a short sweep; at least four passes.
* ``serve-store`` — ``repro serve`` on a fresh sqlite store, warmed with a
  plan pool, then one closed-loop client posting replays and writes; three
  servers are set up, the last one serves the timed loop.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps each layer's public functions and reports per-layer metrics.
Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any output check failed and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oplists  # noqa: E402
from spans import self_time_by, self_times  # noqa: E402
from summary import median, metric, summarise_ops  # noqa: E402

WORKLOADS = ("fig3-sweep", "zoo-cold", "serve-store")

#: Fresh processes per fig3 run (the last one also runs the sweep).
FIG3_PROCESSES = 3
#: Minimum fresh cold-start passes per zoo run.
ZOO_MIN_PASSES = 4
#: Servers set up per serve run (the last one serves the timed loop).
SERVE_SETUPS = 3
WORKER_TIMEOUT = 150.0

#: End-to-end metrics in the result line (``--trace 0``).  ``op_p50_ms`` and
#: ``fail_ratio`` are printed beside them but carry no bound: the median op
#: of a sweep flips between the host's two speed modes (see NOTES.md), and
#: a healthy run fails nothing.
BOUNDED = ("setup_s", "time_to_result_s", "op_p90_ms", "ops_per_s", "sim_msgs_per_s",
           "peak_rss_mb")

#: Per-layer metrics (``--trace 1``), in report order, with units.
LAYER_UNITS = {
    "api.import_s": "s",
    "topology.compile_s": "s",
    "routing.compile_s": "s",
    "routing.routes": "count",
    "routing.table_mb": "MB",
    "rng.warm_s": "s",
    "workloads.predraw_ms": "ms",
    "sim.state_init_ms": "ms",
    "sim.loop_ms": "ms",
    "sim.collect_ms": "ms",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "model.evaluate_ms": "ms",
    "campaign.plan_ms": "ms",
    "store.get_ms": "ms",
    "store.hit_rate": "ratio",
    "store.put_ms": "ms",
    "store.puts": "count",
    "service.ttfb_ms": "ms",
    "daemon.dispatched": "count",
    "host.probe_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Layers timed once per process (set-up) and reported in seconds.
PROCESS_LAYERS = ("api.import", "topology.compile", "routing.compile", "rng.warm")
#: Layers timed per op and reported in milliseconds (median over traced ops).
OP_LAYERS = ("workloads.predraw", "sim.state_init", "sim.loop", "sim.collect",
             "model.evaluate", "campaign.plan")
#: Layers reported per call (median self time of one call, traced ops).
CALL_LAYERS = ("store.get", "store.put")


# ----------------------------------------------------------------- processes
def environment(work: Path) -> Dict[str, str]:
    """Child environment: the checkout's sources, all scratch inside ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_STORE=str(work / "default-store"),
        TMPDIR=str(tmp),
    )
    # Imports read compiled bytecode, as an installed package would; it is
    # compiled once per run before anything is timed (see main).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn_worker(work: Path, env: Dict[str, str], tag: str, spec: Dict[str, Any]):
    """Run one fresh sweep process; returns (spawn stamp, its report)."""
    spec_path = work / f"spec-{tag}.json"
    out_path = work / f"report-{tag}.json"
    spec_path.write_text(json.dumps(dict(spec, out=str(out_path))))
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "sweep_worker.py"), str(spec_path)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=WORKER_TIMEOUT,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"sweep worker {tag} exited {completed.returncode}: "
            f"{completed.stderr.decode(errors='replace')[-2000:]}"
        )
    return spawned, json.loads(out_path.read_text())


# ------------------------------------------------------------------ workloads
def run_fig3(work, env, seed, seconds, trace):
    ops = oplists.fig3_ops(seed)
    spawned_reports = []
    for index in range(FIG3_PROCESSES):
        full = index == FIG3_PROCESSES - 1
        spawned_reports.append(spawn_worker(work, env, f"fig3-{index}", {
            "workload": "fig3-sweep", "trace": trace, "setup_only": not full,
            "ops": ops, "min_seconds": seconds if full else 0.0,
        }))
    return sweep_result(spawned_reports)


def run_zoo(work, env, seed, seconds, trace):
    spawned_reports = []
    started = time.monotonic()
    while len(spawned_reports) < ZOO_MIN_PASSES or time.monotonic() - started < seconds:
        index = len(spawned_reports)
        spawned_reports.append(spawn_worker(work, env, f"zoo-{index}", {
            "workload": "zoo-cold", "trace": trace, "setup_only": False,
            "ops": oplists.zoo_ops(seed, index), "min_seconds": 0.0,
            "route_seed": seed * 1000 + index,
        }))
    return sweep_result(spawned_reports)


def sweep_result(spawned_reports):
    """Pool the fresh processes of one sweep run into one result."""
    full = [(spawned, report) for spawned, report in spawned_reports if "ops" in report]
    return {
        "setup_s": [report["ready_at"] - spawned for spawned, report in spawned_reports],
        "time_to_result_s": [report["done_at"] - spawned for spawned, report in full],
        "ops": [op for _, report in full for op in report["ops"]],
        "failures": [f for _, report in spawned_reports for f in report["failures"]],
        "probe_ms": [p for _, report in full for p in report["probe_ms"]],
        "rss_mb": max(report["rss_mb"] for _, report in spawned_reports),
        "digests": [report["digest"] for _, report in full],
        "traced": [(report["spans"], report.get("ops", [])) for _, report in spawned_reports
                   if "spans" in report],
        "routes": max(report.get("routes", 0) for _, report in spawned_reports),
        "table_mb": max(report.get("table_mb", 0.0) for _, report in spawned_reports),
    }


def run_serve(work, env, seed, seconds, trace):
    from serve_client import run_serve as serve_workload
    from sweep_worker import zero_load_bound

    from repro.api import Scenario

    def zero_load(scenario_dict):
        return zero_load_bound(Scenario.from_dict(scenario_dict))

    result = serve_workload(ROOT, work, env, seed, seconds, trace, SERVE_SETUPS, zero_load)
    result["time_to_result_s"] = [result["done_at"] - result["spawned_at"]]
    # Only the last server ran the timed ops; the others' spans are set-up only.
    result["traced"] = [
        (spans, result["ops"] if index == len(result["span_sets"]) - 1 else [])
        for index, spans in enumerate(result["span_sets"])
    ]
    return result


RUNNERS = {"fig3-sweep": run_fig3, "zoo-cold": run_zoo, "serve-store": run_serve}


# -------------------------------------------------------------------- metrics
def end_to_end(result) -> Dict[str, Dict[str, Any]]:
    ops = [op for op in result["ops"] if op["ms"] is not None]
    busy_s = sum(op["ms"] for op in ops) / 1000.0
    metrics = {
        "setup_s": metric(median(result["setup_s"]), "s", len(result["setup_s"])),
        "time_to_result_s": metric(
            median(result["time_to_result_s"]), "s", len(result["time_to_result_s"])
        ),
    }
    metrics.update(summarise_ops(op["ms"] for op in ops))
    metrics["ops_per_s"] = metric(len(ops) / busy_s, "1/s", len(ops))
    metrics["sim_msgs_per_s"] = metric(
        sum(op["msgs"] for op in ops) / busy_s, "1/s", len(ops)
    )
    metrics["peak_rss_mb"] = metric(result["rss_mb"], "MB", 1)
    return metrics


def _median(values: List[float], scale: float = 1.0):
    """(median * scale, sample count); a layer nothing called reads 0."""
    return (median(values) * scale if values else 0.0, len(values))


def tracing_overhead_pct(ops):
    """Traced over untraced median op time, per kind of op, median over kinds.

    Comparing like with like (one load point, one pool plan) keeps the mix
    of expensive and cheap ops out of the figure.
    """
    by_kind: Dict[Any, Tuple[List[float], List[float]]] = {}
    for op in ops:
        traced, untraced = by_kind.setdefault(op["kind"], ([], []))
        (traced if op["traced"] else untraced).append(op["ms"])
    ratios = [median(t) / median(u) for t, u in by_kind.values() if t and u]
    return ((median(ratios) - 1.0) * 100.0 if ratios else 0.0, len(ops))


def per_layer(result) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from the traced processes' spans (zero: layer unused).

    Set-up layers are summed per process, then the median over processes is
    taken; op layers are summed per traced op, then the median over traced
    ops; store calls are timed per call.
    """
    process_totals: Dict[str, List[float]] = {name: [] for name in PROCESS_LAYERS}
    op_totals: Dict[str, List[float]] = {name: [] for name in OP_LAYERS}
    call_times: Dict[str, List[float]] = {name: [] for name in CALL_LAYERS}
    loop_s = 0.0
    events = 0
    for spans, ops in result["traced"]:
        by_op = self_time_by(spans, per_op=True)
        setup = by_op.get(None, {})
        for name in PROCESS_LAYERS:
            process_totals[name].append(setup.get(name, 0.0))
        traced = {index for index, op in enumerate(ops) if op["traced"] and op["ms"] is not None}
        for index in traced:
            names = by_op.get(index, {})
            for name in OP_LAYERS:
                op_totals[name].append(names.get(name, 0.0))
            loop_s += names.get("sim.loop", 0.0)
            events += ops[index].get("events", 0)
        for span, own in zip(spans, self_times(spans)):
            if span[0] in CALL_LAYERS and span[4] in traced:
                call_times[span[0]].append(own)

    ops = [op for op in result["ops"] if op["ms"] is not None]
    hits, misses = result.get("hits", 0), result.get("misses", 0)
    tables = len(result["traced"])
    values = {name + "_s": _median(process_totals[name]) for name in PROCESS_LAYERS}
    values.update({name + "_ms": _median(op_totals[name], 1000.0) for name in OP_LAYERS})
    values.update({name + "_ms": _median(call_times[name], 1000.0) for name in CALL_LAYERS})
    values.update({
        "routing.routes": (result.get("routes", 0), tables),
        "routing.table_mb": (result.get("table_mb", 0.0), tables),
        "sim.events": _median([op["events"] for op in ops if "events" in op]),
        "sim.events_per_s": (events / loop_s if loop_s > 0 else 0.0, len(op_totals["sim.loop"])),
        "store.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, hits + misses),
        "store.puts": (misses, len(ops)),
        "service.ttfb_ms": _median([op["ttfb_ms"] for op in ops if "ttfb_ms" in op]),
        "daemon.dispatched": (result.get("dispatched", 0), len(ops)),
        "host.probe_ms": _median(result["probe_ms"]),
        "trace.overhead_pct": tracing_overhead_pct(ops),
    })
    return {
        name: metric(values[name][0], unit, values[name][1])
        for name, unit in LAYER_UNITS.items()
    }


# ----------------------------------------------------------------------- main
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(work)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            env=env, stdout=subprocess.DEVNULL, check=True,
        )
        result = RUNNERS[args.workload](work, env, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError, KeyError, ValueError) as error:
        print(f"error: {args.workload} could not run: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return report(args, result)


def report(args, result) -> int:
    ops = result["ops"]
    attempted = len(ops)
    failed_ops = [(index, op) for index, op in enumerate(ops) if op["failures"]]
    # A failed check outside any op (warm-up, route samples) counts as one more.
    failed = min(attempted, len(failed_ops) + len(result["failures"]))
    correct = failed == 0
    metrics = per_layer(result) if args.trace else end_to_end(result)

    metrics["fail_ratio"] = metric(failed / attempted, "ratio", attempted)
    if not args.trace:
        metrics["host.probe_ms"] = metric(median(result["probe_ms"]), "ms",
                                          len(result["probe_ms"]))
    reported = LAYER_UNITS if args.trace else BOUNDED

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        note = "" if name in reported else ", printed only"
        print(f"  {name:24s} {value['value']:14.6g} {value['unit']:6s} "
              f"(n={value['samples']}{note})")
    for digest in result.get("digests", ()):
        print(f"  statistics digest {digest}")
    messages = result["failures"] + [
        f"op {index}: {failure}" for index, op in failed_ops for failure in op["failures"]
    ]
    for message in messages[:20]:
        print(f"  CHECK FAILED: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in reported
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
