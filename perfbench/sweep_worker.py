"""One fresh process of the sweep workloads (``fig3-sweep`` / ``zoo-cold``).

Run by ``run.py`` as ``python3 perfbench/sweep_worker.py SPEC.json``.  The
process imports the program, prepares every system and seed it will run
(compile, route tables, random streams), records when it is ready, then runs
its ops — one op is one load point under every engine that applies — and
checks each result.  It writes one JSON report next to the spec; times are
``time.monotonic()`` stamps so the parent can measure from the moment it
spawned the process.

With ``"trace": true`` the public entry points of each layer are wrapped
(see ``spans.py``); half of the ops run traced and half untraced, alternating,
so the two halves see the same host conditions and the same load points, and
their gap is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oplists  # noqa: E402
from spans import Tracer, install  # noqa: E402
from summary import host_probe_ms, peak_rss_mb  # noqa: E402

#: Largest accepted |sim / model - 1| at the lowest Fig. 3 load.
AGREEMENT_BAND = 0.10

#: (module, attribute, layer) wrapped in a traced sweep process.
SWEEP_TARGETS = (
    ("repro.topology.compile", "compile_system", "topology.compile"),
    ("repro.topology.zoo.compile", "compile_graph", "topology.compile"),
    ("repro.routing.compile", "compile_system_routes", "routing.compile"),
    ("repro.routing.compile", "compile_graph_routes", "routing.compile"),
    ("repro.routing.compile", "CompiledSystemRoutes.warm", "routing.compile"),
    ("repro.routing.compile", "CompiledZooRoutes.warm", "routing.compile"),
    ("repro.sim.simulator", "MultiClusterSimulator.warm_streams", "rng.warm"),
    ("repro.sim.simulator", "MultiClusterSimulator.run", "sim.run"),
    ("repro.sim.vector", "VectorizedRunState.__init__", "sim.state_init"),
    ("repro.sim.vector", "VectorizedRunState.execute", "sim.loop"),
    ("repro.sim.vector", "VectorizedRunState.channel_utilisation", "sim.collect"),
    ("repro.sim.statistics", "StatisticsCollector.result", "sim.collect"),
    ("repro.workloads.batch", "SourceBatcher.materialize", "workloads.predraw"),
    ("repro.workloads.batch", "SourceBatcher.refill", "workloads.predraw"),
    ("repro.api", "AnalyticalEngine.evaluate", "model.evaluate"),
)


def zero_load_bound(scenario) -> float:
    """Closed-form floor on any message latency.

    The shortest route crosses two channels (injection and ejection); the
    header needs one flit time per channel and the remaining ``M - 1``
    flits follow at one flit time each, so no message can arrive sooner
    than ``(M + 1)`` of the fastest flit time.
    """
    timing = scenario.timing.link_timing(scenario.message.flit_bytes)
    return (scenario.message.length_flits + 1) * min(timing.t_cn, timing.t_cs)


def build_scenarios(api, workload: str, seeds):
    """``{(system, seed): scenario}`` for every pair the ops need."""
    if workload == "fig3-sweep":
        return {
            (0, seed): api.scenario("fig3", points=oplists.FIG3_POINTS, budget="quick", seed=seed)
            for seed in seeds
        }
    from repro.sim.config import SimulationConfig
    from repro.topology.zoo.spec import TopologySpec

    scenarios = {}
    for system, topology in enumerate(oplists.ZOO_SYSTEMS):
        spec = TopologySpec(topology["kind"], topology["params"])
        for seed in seeds:
            scenarios[(system, seed)] = api.Scenario(
                topology=spec,
                message=api.MessageSpec(**oplists.MESSAGE),
                offered_traffic=api.Scenario.load_grid(
                    oplists.ZOO_MAX_TRAFFIC, oplists.ZOO_POINTS
                ),
                sim=SimulationConfig(**oplists.ZOO_BUDGET, seed=seed),
                name=f"zoo/{topology['kind']}",
            )
    return scenarios


def statistics_digest(records) -> str:
    """sha256 over every simulated statistic (wall clock and event count excluded)."""
    from repro.utils.serialization import to_jsonable

    digest = hashlib.sha256()
    for record in records:
        payload = to_jsonable(record)
        simulation = payload.get("simulation")
        if simulation is not None:
            simulation.pop("wall_clock_seconds", None)
            simulation.pop("events_processed", None)
        payload.get("metadata", {}).pop("wall_clock_seconds", None)
        digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()


def check_op(scenario, point: int, sim_record, model_record, bound: float):
    """Output checks of one op; returns a list of failure descriptions."""
    failures = []
    measured = sim_record.simulation.measured_messages
    if measured != scenario.sim.measured_messages:
        failures.append(f"measured {measured} != budget {scenario.sim.measured_messages}")
    if not sim_record.latency >= bound:
        failures.append(f"sim latency {sim_record.latency} below zero-load {bound}")
    if model_record is not None:
        model = model_record.latency
        if math.isfinite(model) and model < bound:
            failures.append(f"model latency {model} below zero-load {bound}")
        if point == 0 and not abs(sim_record.latency / model - 1.0) <= AGREEMENT_BAND:
            failures.append(
                f"lowest load: sim {sim_record.latency:.3f} vs model {model:.3f} "
                f"outside {AGREEMENT_BAND:.0%}"
            )
    return failures


def check_routes(spec, seed: int):
    """Sampled compiled zoo routes must equal a fresh router's routes."""
    from repro.routing.compile import compile_graph_routes
    from repro.routing.updown import GraphUpDownRouter
    from repro.topology.zoo.compile import compile_graph
    from repro.topology.zoo.spec import build_topology

    table = compile_graph_routes(spec)
    compiled = compile_graph(spec)
    router = GraphUpDownRouter(build_topology(spec))
    failures = []
    num_nodes = table.num_nodes
    for source, dest in oplists.route_pairs(seed, num_nodes, oplists.ZOO_ROUTE_SAMPLES):
        expected = tuple(compiled.channel_ids[channel] for channel in router.route(source, dest))
        if table.full[source * num_nodes + dest] != expected:
            failures.append(f"route {source}->{dest} differs from GraphUpDownRouter")
    return failures


def table_size(routes):
    """Routes held by a system's tables and their size as int64 arrays (MB)."""
    count = ids = 0
    for table in (*routes.intra, *routes.ascend, *routes.descend, routes.icn2):
        for pair in range(len(table)):
            entry = table[pair]
            if entry is not None:
                count += 1
                ids += len(entry)
    return count, 8 * (count + ids) / 2**20


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    trace = spec["trace"]
    tracer = Tracer()
    tracer.enabled = trace
    import_span = tracer.open("api.import")
    from repro import api

    tracer.close(import_span)
    if trace:
        install(tracer, SWEEP_TARGETS)

    ops = [tuple(op) for op in spec["ops"]]
    seeds = sorted({seed for _, seed, _ in ops})
    scenarios = build_scenarios(api, spec["workload"], seeds)
    engines = {}
    for key, scenario in scenarios.items():
        simulation = api.SimulationEngine()
        simulation.prepare(scenario)
        model = api.AnalyticalEngine() if scenario.system is not None else None
        engines[key] = (model, simulation)
    ready_at = time.monotonic()

    report = {"ready_at": ready_at, "failures": []}
    if not spec["setup_only"]:
        report.update(run_ops(spec, ops, scenarios, engines, tracer))
        if spec["workload"] == "zoo-cold":
            for key in sorted({system for system, _, _ in ops}):
                scenario = scenarios[(key, seeds[0])]
                report["failures"] += check_routes(scenario.topology, spec["route_seed"])
    report["rss_mb"] = peak_rss_mb(os.getpid())
    if trace:
        tracer.enabled = False
        from repro.routing.compile import compile_system_routes

        one_per_system = {system: scenario for (system, _), scenario in scenarios.items()}
        totals = [
            table_size(compile_system_routes(scenario.network))
            for scenario in one_per_system.values()
        ]
        report["routes"] = sum(count for count, _ in totals)
        report["table_mb"] = sum(size for _, size in totals)
        report["spans"] = tracer.spans
    Path(spec["out"]).write_text(json.dumps(report))
    return 0


def run_ops(spec, ops, scenarios, engines, tracer):
    """Run the ops: at least one full pass and at least ``min_seconds``."""
    pass_ops = len(ops)
    op_reports = []
    records = []
    probes = []
    done_at = None
    loop_started = time.perf_counter()
    index = 0
    while index < pass_ops or time.perf_counter() - loop_started < spec["min_seconds"]:
        system, seed, point = ops[index % pass_ops]
        scenario = scenarios[(system, seed)]
        model, simulation = engines[(system, seed)]
        lambda_g = scenario.offered_traffic[point]
        # Checkerboard over (seed block, load point): every load point runs
        # traced and untraced equally often, interleaved in time.
        traced = spec["trace"] and (index // len(scenario.offered_traffic) + point) % 2 == 0
        tracer.enabled = traced
        tracer.op = index
        started = time.perf_counter()
        try:
            model_record = model.evaluate(scenario, lambda_g) if model is not None else None
            sim_record = simulation.evaluate(scenario, lambda_g)
            elapsed = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            report = {"ms": None, "traced": traced, "failures": [repr(error)]}
        else:
            report = {
                "ms": elapsed * 1000.0,
                "traced": traced,
                "kind": f"{system}:{point}",
                "failures": check_op(
                    scenario, point, sim_record, model_record, zero_load_bound(scenario)
                ),
                "msgs": sim_record.simulation.measured_messages,
                "events": sim_record.simulation.events_processed,
            }
            if index < pass_ops:
                records += [r for r in (model_record, sim_record) if r is not None]
        tracer.enabled = False
        op_reports.append(report)
        index += 1
        if index == pass_ops:
            done_at = time.monotonic()
        probes.append(host_probe_ms())
    return {
        "done_at": done_at,
        "ops": op_reports,
        "digest": statistics_digest(records),
        "probe_ms": probes,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
