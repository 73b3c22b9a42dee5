"""Generalized up*/down* routing over the topology zoo.

Two layers of guarantees:

* **Property tests** (hypothesis): on randomized fanout trees and small
  tori, every route the :class:`GraphUpDownRouter` produces is *valid*
  (contiguous, starts with injection at the source, ends with ejection at
  the destination, every hop a channel of the topology) and *legal
  up*/down** (all UP hops strictly before all DOWN hops) and *cycle-free*
  (no switch visited twice).
* **Table equivalence**: the frozen integer tables of
  :class:`CompiledGraphRoutes` match the object-path router route for
  route on every zoo member, in both eager and lazy compilation modes —
  and, in the randomized cases, so do the m-port n-tree tables of
  :class:`CompiledTreeRoutes` against :class:`UpDownRouter`.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.routing.compile import (
    CompiledGraphRoutes,
    CompiledTreeRoutes,
    compile_graph_routes,
)
from repro.routing.updown import GraphUpDownRouter, UpDownRouter
from repro.topology.compile import compile_tree
from repro.topology.fat_tree import ChannelKind, MPortNTree, num_nodes_formula
from repro.topology.zoo import (
    FanoutTree,
    GraphSwitch,
    Host,
    KAryFatTree,
    Torus2D,
    TopologySpec,
    build_topology,
    compile_graph,
)
from repro.utils.validation import ValidationError

ZOO_SPECS = [
    TopologySpec("fattree", {"k": 4}),
    TopologySpec("tree", {"depth": 2, "fanout": 4}),
    TopologySpec("tree", {"depth": 3, "fanout": 2}),
    TopologySpec("torus", {"rows": 3, "cols": 3}),
    TopologySpec("torus", {"rows": 4, "cols": 4}),
]

#: Larger members checked only against the compiled tables (exhaustive
#: validity on them would re-walk every pair through the router twice).
#: The 16x16 torus compares a seeded sample of source rows.
TABLE_SPECS = ZOO_SPECS + [
    TopologySpec("fattree", {"k": 8}),
    TopologySpec("torus", {"rows": 16, "cols": 16}),
]
SAMPLED_ROWS = {"zoo-torus-cols16-rows16": 24}


def _assert_row_matches_router(tables, graph, router, source):
    num_nodes = tables.num_nodes
    for dest in range(num_nodes):
        pair = source * num_nodes + dest
        if source == dest:
            assert tables.full[pair] is None
            continue
        route = router.route(source, dest)
        assert tables.full[pair] == tuple(graph.channel_ids[channel] for channel in route)
        assert tables.full_has_switch[pair] == any(
            not channel.kind.is_node_channel for channel in route
        )


def _assert_valid_updown_route(topology, source, dest, route):
    channels = list(route)
    assert channels[0].kind == ChannelKind.INJECTION
    assert channels[0].source == Host(source)
    assert channels[0].target == GraphSwitch(topology.host_switch(source))
    assert channels[-1].kind == ChannelKind.EJECTION
    assert channels[-1].target == Host(dest)
    assert channels[-1].source == GraphSwitch(topology.host_switch(dest))
    # Contiguity: each hop departs where the previous one arrived.
    for previous, current in zip(channels, channels[1:]):
        assert previous.target == current.source
    # Legality: up* then down*, never up again after the first down.
    kinds = [channel.kind for channel in channels[1:-1]]
    assert all(kind in (ChannelKind.UP, ChannelKind.DOWN) for kind in kinds)
    if ChannelKind.DOWN in kinds:
        first_down = kinds.index(ChannelKind.DOWN)
        assert ChannelKind.UP not in kinds[first_down:]
    # Cycle-freedom: no switch is visited twice.
    visited = [channels[0].target] + [channel.target for channel in channels[1:-1]]
    assert len(visited) == len(set(visited))
    # Every channel belongs to the topology's compiled enumeration.
    ids = compile_graph(
        TopologySpec(topology.kind, _params_of(topology))
    ).channel_ids
    for channel in channels:
        assert channel in ids


def _params_of(topology):
    if isinstance(topology, KAryFatTree):
        return {"k": topology.k}
    if isinstance(topology, FanoutTree):
        return {"depth": topology.depth, "fanout": topology.fanout}
    if isinstance(topology, Torus2D):
        return {"rows": topology.rows, "cols": topology.cols}
    raise AssertionError(f"unknown family {type(topology).__name__}")


# --------------------------------------------------------------------------- #
# Exhaustive validity on every zoo member
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", ZOO_SPECS, ids=lambda spec: spec.token)
def test_every_pair_routes_validly(spec):
    topology = build_topology(spec)
    router = GraphUpDownRouter(topology)
    for source in range(topology.num_nodes):
        for dest in range(topology.num_nodes):
            if source == dest:
                continue
            _assert_valid_updown_route(
                topology, source, dest, router.route(source, dest)
            )


def test_same_source_destination_rejected():
    router = GraphUpDownRouter(Torus2D(3, 3))
    with pytest.raises(ValidationError):
        router.route(2, 2)


def test_router_is_deterministic():
    topology = Torus2D(4, 4)
    a = GraphUpDownRouter(topology)
    b = GraphUpDownRouter(Torus2D(4, 4))
    for source, dest in ((0, 15), (7, 8), (3, 12)):
        assert list(a.route(source, dest)) == list(b.route(source, dest))


# --------------------------------------------------------------------------- #
# Property tests on randomized instances
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=3),
    fanout=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_random_tree_routes_are_valid_and_cycle_free(depth, fanout, data):
    topology = FanoutTree(depth=depth, fanout=fanout)
    topology.validate()
    pairs = st.tuples(
        st.integers(0, topology.num_nodes - 1),
        st.integers(0, topology.num_nodes - 1),
    ).filter(lambda pair: pair[0] != pair[1])
    source, dest = data.draw(pairs)
    router = GraphUpDownRouter(topology)
    _assert_valid_updown_route(topology, source, dest, router.route(source, dest))
    spec = TopologySpec("tree", {"depth": depth, "fanout": fanout})
    tables = CompiledGraphRoutes(spec, lazy=True)
    tables.ensure_pair(source, dest)
    _assert_row_matches_router(tables, compile_graph(spec), router, source)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=3, max_value=5),
    cols=st.integers(min_value=3, max_value=5),
    data=st.data(),
)
def test_random_torus_routes_are_valid_and_cycle_free(rows, cols, data):
    topology = Torus2D(rows, cols)
    topology.validate()
    pairs = st.tuples(
        st.integers(0, topology.num_nodes - 1),
        st.integers(0, topology.num_nodes - 1),
    ).filter(lambda pair: pair[0] != pair[1])
    source, dest = data.draw(pairs)
    router = GraphUpDownRouter(topology)
    _assert_valid_updown_route(topology, source, dest, router.route(source, dest))
    spec = TopologySpec("torus", {"rows": rows, "cols": cols})
    tables = CompiledGraphRoutes(spec, lazy=True)
    tables.ensure_pair(source, dest)
    _assert_row_matches_router(tables, compile_graph(spec), router, source)


@settings(max_examples=15, deadline=None)
@given(
    m=st.sampled_from([2, 4, 6, 8]),
    n=st.integers(min_value=1, max_value=5),
    lazy=st.booleans(),
)
def test_random_mport_ntree_tables_match_the_router(m, n, lazy):
    assume(num_nodes_formula(m, n) <= 64)  # every pair goes through the router
    router = UpDownRouter(MPortNTree(m, n))
    ids = compile_tree(m, n).channel_ids
    tables = CompiledTreeRoutes(m, n, lazy=lazy)
    tables.ensure_complete()
    num_nodes = tables.num_nodes
    for source in range(num_nodes):
        for other in range(num_nodes):
            pair = source * num_nodes + other
            if source == other:
                assert tables.full[pair] is None
                continue
            route = router.route(source, other)
            assert tables.full[pair] == tuple(ids[channel] for channel in route)
            assert tables.full_has_switch[pair] == (route.switch_channels > 0)
            assert tables.ascending[pair] == tuple(
                ids[channel] for channel in router.ascending_leg(source, other)
            )
            assert tables.descending[pair] == tuple(
                ids[channel] for channel in router.descending_leg(source, other)
            )


# --------------------------------------------------------------------------- #
# Compiled integer tables == object-path router
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda spec: spec.token)
def test_compiled_tables_match_router_route_for_route(spec):
    topology = build_topology(spec)
    graph = compile_graph(spec)
    router = GraphUpDownRouter(topology)
    tables = compile_graph_routes(spec)
    tables.ensure_complete()
    sources = range(topology.num_nodes)
    if spec.token in SAMPLED_ROWS:
        sources = random.Random(1).sample(sources, SAMPLED_ROWS[spec.token])
    for source in sources:
        _assert_row_matches_router(tables, graph, router, source)


@pytest.mark.parametrize("spec", ZOO_SPECS[:2], ids=lambda spec: spec.token)
def test_lazy_and_eager_tables_agree(spec):
    eager = CompiledGraphRoutes(spec, lazy=False)
    lazy = CompiledGraphRoutes(spec, lazy=True)
    assert lazy.compiled_rows == set()
    lazy.ensure_complete()
    assert lazy.full == eager.full
    assert lazy.full_has_switch == eager.full_has_switch


def test_completed_lazy_table_releases_its_walker():
    spec = TopologySpec("fattree", {"k": 4})
    lazy = CompiledGraphRoutes(spec, lazy=True)
    lazy.ensure_pair(0, 5)
    assert lazy._walker is not None  # rows still to fill need it
    lazy.ensure_complete()
    assert lazy._walker is None
    assert CompiledGraphRoutes(spec, lazy=False)._walker is None
