"""The benchmark's inputs: every op list is a pure function of the seed.

Nothing here imports the program under test; the workers receive only the
generated inputs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

#: Fig. 3 sweep: the paper's 8-point load grid, repeated over this many
#: simulation seeds so one run holds >= 100 simulated points.
FIG3_POINTS = 8
FIG3_SEEDS = 13

#: Zoo cold start: two families, a short sweep each, a few seeds per pass so
#: the op count per run supports a p90.  Loads stay well below saturation,
#: where a point's cost hardly depends on its seed.
ZOO_SYSTEMS = (
    {"kind": "torus", "params": {"rows": 16, "cols": 16}},
    {"kind": "fattree", "params": {"k": 8}},
)
ZOO_POINTS = 3
ZOO_SEEDS_PER_PASS = 5
ZOO_MAX_TRAFFIC = 6.0e-4
ZOO_BUDGET = {"measured_messages": 400, "warmup_messages": 40, "drain_messages": 40}
ZOO_ROUTE_SAMPLES = 24

#: Serve/store: warm plan pool and op count of one full pass; one write
#: rides along with every round of pool replays.
SERVE_POOL_SCENARIOS = ("fig4", "heterogeneous", "zoo/torus", "zoo/fattree4")
SERVE_PLANS_PER_SCENARIO = 2
SERVE_PASS_OPS = 300
SERVE_WRITE_BUDGET = {"measured_messages": 200, "warmup_messages": 20, "drain_messages": 20}
SERVE_WRITE_TOPOLOGIES = (
    ("zoo/torus", {"kind": "torus", "params": {"rows": 4, "cols": 4}}),
    ("zoo/fattree4", {"kind": "fattree", "params": {"k": 4}}),
)
SERVE_WRITE_TRAFFIC = (2.5e-4, 5.0e-4)
MESSAGE = {"length_flits": 32, "flit_bytes": 256}

# One op of a sweep: (system index, simulation seed, load index).
SweepOp = Tuple[int, int, int]


def _seeds(rng: random.Random, count: int) -> List[int]:
    return rng.sample(range(1, 1 << 30), count)


def fig3_ops(seed: int) -> List[SweepOp]:
    """The Fig. 3 sweep: every load point for each of the run's seeds."""
    rng = random.Random(f"fig3-{seed}")
    return [
        (0, sim_seed, point)
        for sim_seed in _seeds(rng, FIG3_SEEDS)
        for point in range(FIG3_POINTS)
    ]


def zoo_ops(seed: int, pass_index: int) -> List[SweepOp]:
    """One cold pass: a short sweep on each zoo family over a few seeds."""
    rng = random.Random(f"zoo-{seed}-{pass_index}")
    seeds = _seeds(rng, ZOO_SEEDS_PER_PASS)
    return [
        (system, sim_seed, point)
        for system in range(len(ZOO_SYSTEMS))
        for sim_seed in seeds
        for point in range(ZOO_POINTS)
    ]


def route_pairs(seed: int, num_nodes: int, count: int) -> List[Tuple[int, int]]:
    """Distinct (source, destination) host pairs to check against the router."""
    rng = random.Random(f"routes-{seed}-{num_nodes}")
    pairs = []
    while len(pairs) < count:
        source, dest = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if source != dest:
            pairs.append((source, dest))
    return pairs


def serve_pool(seed: int) -> List[Dict[str, Any]]:
    """The warm plan pool: each plan is posted cold in set-up, then replayed."""
    rng = random.Random(f"pool-{seed}")
    plans = []
    for name in SERVE_POOL_SCENARIOS:
        engines = ["sim"] if name.startswith("zoo/") else ["model", "sim"]
        for sim_seed in _seeds(rng, SERVE_PLANS_PER_SCENARIO):
            plans.append(
                {
                    "name": f"pool-{len(plans)}",
                    "entries": [
                        {
                            "scenario": name,
                            "points": 2,
                            "seed": sim_seed,
                            "engines": engines,
                            "label": name,
                        }
                    ],
                }
            )
    return plans


def _write_plan(rng: random.Random, seed: int, index: int) -> Dict[str, Any]:
    name, topology = SERVE_WRITE_TOPOLOGIES[rng.randrange(len(SERVE_WRITE_TOPOLOGIES))]
    # Seeds above the pool's range and unique per write: every task is new.
    sim_seed = (1 << 30) + (seed % 1000) * 100_000 + index
    scenario = {
        "topology": topology,
        "message": MESSAGE,
        "offered_traffic": list(SERVE_WRITE_TRAFFIC),
        "sim": dict(SERVE_WRITE_BUDGET, seed=sim_seed),
        "name": name,
    }
    return {"entries": [{"scenario": scenario, "engines": ["sim"], "label": name}]}


def serve_ops(seed: int, count: int) -> List[Tuple[str, Any]]:
    """``count`` requests: ("replay", pool index) or ("write", plan).

    Requests come in blocks: every pool plan replayed once, in a seeded
    order, plus one write at a seeded position.  The request mix is then the
    same in every run, so only the order depends on the seed.
    """
    rng = random.Random(f"serve-{seed}")
    pool_size = len(SERVE_POOL_SCENARIOS) * SERVE_PLANS_PER_SCENARIO
    ops: List[Tuple[str, Any]] = []
    while len(ops) < count:
        block: List[Tuple[str, Any]] = [("replay", index) for index in range(pool_size)]
        rng.shuffle(block)
        block.insert(rng.randrange(pool_size + 1), ("write", _write_plan(rng, seed, len(ops))))
        ops += block
    return ops[:count]
