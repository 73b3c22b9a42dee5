"""Round-trip tests of the compiled route tables.

Every compiled route must decompile to the *exact* Channel sequence the
``UpDownRouter`` produces — the compiler is a representation change, never a
routing change — including for asymmetric heterogeneous organisations.
"""

from functools import lru_cache

import pytest

from repro.experiments.configs import figure_panels, table1_specs
from repro.routing import UpDownRouter, compile_system_routes, compile_tree_routes
from repro.routing.compile import decompile, route_table_size
from repro.topology import MPortNTree, MultiClusterSpec, compile_system
from repro.topology.fat_tree import shared_tree

#: (8, 3) is the tallest cluster of the paper's N=1120 organisation, the
#: shape whose compilation dominates a cold Fig. 3 run.
SHAPES = [(4, 1), (4, 2), (6, 2), (4, 3), (8, 2), (8, 3)]

#: Asymmetric heterogeneous organisations (mixed tree heights, including the
#: integration-test system and a taller m=4 mix like the N=544 row's groups).
HETERO_SPECS = [
    MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny"),
    MultiClusterSpec(m=4, cluster_heights=(3, 1, 2, 1), name="lopsided"),
]

#: The paper's organisations: both Table 1 rows, which are also the systems
#: of Fig. 3 (N=1120) and Fig. 4 (N=544).
PAPER_SPECS = list(table1_specs())
SYSTEM_SPECS = HETERO_SPECS + PAPER_SPECS


@lru_cache(maxsize=None)
def reference_routes(m, n):
    """Every route and leg of shape ``(m, n)`` from a fresh object router.

    Returns ``(full, ascending, descending)`` dicts keyed by the ordered
    pair, each value the router's ``Channel`` tuple.  Cached per shape, so
    the many same-shape clusters of one organisation route only once.
    """
    router = UpDownRouter(MPortNTree(m, n))
    nodes = router.tree.num_nodes
    pairs = [(s, d) for s in range(nodes) for d in range(nodes) if s != d]
    return (
        {pair: router.route(*pair).channels for pair in pairs},
        {pair: router.ascending_leg(*pair).channels for pair in pairs},
        {pair: router.descending_leg(*pair).channels for pair in pairs},
    )


class TestTreeRouteRoundTrip:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_full_routes_round_trip_for_every_ordered_pair(self, m, n):
        tree = shared_tree(m, n)
        router = UpDownRouter(tree)
        table = compile_tree_routes(m, n)
        pairs = 0
        for source in range(tree.num_nodes):
            for dest in range(tree.num_nodes):
                if source == dest:
                    assert table.full[source * tree.num_nodes + dest] is None
                    continue
                compiled = table.full[source * tree.num_nodes + dest]
                assert decompile(m, n, compiled) == router.route(source, dest).channels
                pairs += 1
        assert pairs == route_table_size(m, n)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_legs_round_trip_for_every_ordered_pair(self, m, n):
        tree = shared_tree(m, n)
        router = UpDownRouter(tree)
        table = compile_tree_routes(m, n)
        for source in range(tree.num_nodes):
            for other in range(tree.num_nodes):
                if source == other:
                    continue
                index = source * tree.num_nodes + other
                assert (
                    decompile(m, n, table.ascending[index])
                    == router.ascending_leg(source, other).channels
                )
                assert (
                    decompile(m, n, table.descending[index])
                    == router.descending_leg(source, other).channels
                )

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_has_switch_flag_matches_the_route(self, m, n):
        tree = shared_tree(m, n)
        router = UpDownRouter(tree)
        table = compile_tree_routes(m, n)
        for source in range(tree.num_nodes):
            for dest in range(tree.num_nodes):
                if source == dest:
                    continue
                route = router.route(source, dest)
                expected = route.switch_channels > 0
                assert table.full_has_switch[source * tree.num_nodes + dest] == expected

    def test_tables_are_cached_per_shape(self):
        assert compile_tree_routes(4, 2) is compile_tree_routes(4, 2)


class TestSystemRouteRoundTrip:
    def test_paper_specs_are_the_figure_systems(self):
        assert figure_panels("fig3")[0].system == PAPER_SPECS[0]
        assert figure_panels("fig4")[0].system == PAPER_SPECS[1]

    @pytest.mark.parametrize("spec", SYSTEM_SPECS, ids=lambda spec: spec.name)
    def test_intra_routes_round_trip_in_every_cluster(self, spec):
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        for index, cluster in enumerate(core.system.clusters):
            expected, _, _ = reference_routes(spec.m, cluster.height)
            offset = core.icn1_offsets[index]
            nodes = cluster.num_nodes
            has_switch = routes.intra_has_switch[index]
            for source in range(nodes):
                for dest in range(nodes):
                    if source == dest:
                        continue
                    pair = source * nodes + dest
                    local = tuple(cid - offset for cid in routes.intra[index][pair])
                    channels = expected[source, dest]
                    assert decompile(spec.m, cluster.height, local) == channels
                    assert has_switch[pair] == any(
                        not channel.kind.is_node_channel for channel in channels
                    )

    @pytest.mark.parametrize("spec", SYSTEM_SPECS, ids=lambda spec: spec.name)
    def test_ecn1_legs_round_trip_in_every_cluster(self, spec):
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        for index, cluster in enumerate(core.system.clusters):
            _, ascending, descending = reference_routes(spec.m, cluster.height)
            offset = core.ecn1_offsets[index]
            nodes = cluster.num_nodes
            for source in range(nodes):
                for other in range(nodes):
                    if source == other:
                        continue
                    pair = source * nodes + other
                    ascent = tuple(cid - offset for cid in routes.ascend[index][pair])
                    descent = tuple(cid - offset for cid in routes.descend[index][pair])
                    assert (
                        decompile(spec.m, cluster.height, ascent)
                        == ascending[source, other]
                    )
                    assert (
                        decompile(spec.m, cluster.height, descent)
                        == descending[source, other]
                    )

    @pytest.mark.parametrize("spec", SYSTEM_SPECS, ids=lambda spec: spec.name)
    def test_icn2_routes_round_trip(self, spec):
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        router = UpDownRouter(core.system.icn2)
        C = spec.num_clusters
        for source in range(C):
            for dest in range(C):
                if source == dest:
                    continue
                compiled = routes.icn2[source * C + dest]
                local = tuple(cid - core.icn2_offset for cid in compiled)
                assert (
                    decompile(spec.m, spec.icn2_height, local)
                    == router.route(source, dest).channels
                )

    def test_relay_slots_match_the_core(self):
        spec = HETERO_SPECS[0]
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        for cluster in range(spec.num_clusters):
            assert routes.concentrator[cluster] == core.concentrator_slot(cluster)
            assert routes.dispatcher[cluster] == core.dispatcher_slot(cluster)

    def test_system_tables_are_cached_per_spec(self):
        spec = HETERO_SPECS[0]
        assert compile_system_routes(spec) is compile_system_routes(spec)


class TestLazyRouteTables:
    """Tall shapes compile per source row on demand (O(pairs used))."""

    def test_threshold_selects_lazy_mode(self):
        from repro.routing.compile import LAZY_NODE_THRESHOLD, CompiledTreeRoutes

        eager = CompiledTreeRoutes(4, 2)  # 8 nodes
        assert not eager.lazy
        assert shared_tree(8, 4).num_nodes >= LAZY_NODE_THRESHOLD
        lazy = CompiledTreeRoutes(8, 4)
        assert lazy.lazy
        assert lazy.compiled_rows == set()

    def test_single_pair_query_compiles_only_its_row(self):
        from repro.routing.compile import CompiledTreeRoutes

        table = CompiledTreeRoutes(8, 4)
        num_nodes = table.num_nodes
        table.ensure_pair(3, 100)
        assert table.compiled_rows == {3}
        # The whole source row exists; every other row is untouched.
        for other in range(num_nodes):
            entry = table.full[3 * num_nodes + other]
            assert (entry is None) == (other == 3)
        assert table.full[5 * num_nodes + 100] is None
        # A second query on the same row compiles nothing new.
        table.ensure_pair(3, 7)
        assert table.compiled_rows == {3}

    def test_lazy_tables_match_eager_tables(self):
        from repro.routing.compile import CompiledTreeRoutes

        eager = CompiledTreeRoutes(4, 2, lazy=False)
        lazy = CompiledTreeRoutes(4, 2, lazy=True)
        num_nodes = eager.num_nodes
        for source in range(num_nodes):
            for other in range(num_nodes):
                if source == other:
                    continue
                pair = source * num_nodes + other
                lazy.ensure_pair(source, other)
                assert lazy.full[pair] == eager.full[pair]
                assert lazy.full_has_switch[pair] == eager.full_has_switch[pair]
                assert lazy.ascending[pair] == eager.ascending[pair]
                assert lazy.descending[pair] == eager.descending[pair]

    def test_lazy_views_rebase_like_eager_system_tables(self):
        from repro.routing.compile import (
            CompiledTreeRoutes,
            LazyFlagTable,
            LazyRebasedTable,
        )

        eager = CompiledTreeRoutes(4, 2, lazy=False)
        lazy_shape = CompiledTreeRoutes(4, 2, lazy=True)
        offset = 1000
        view = LazyRebasedTable(lazy_shape, lazy_shape.full, offset)
        flags = LazyFlagTable(lazy_shape)
        reference = eager.rebased_full(offset)
        num_nodes = eager.num_nodes
        assert len(view) == len(reference)
        for pair in range(num_nodes * num_nodes):
            assert view[pair] == reference[pair]
            assert flags[pair] == eager.full_has_switch[pair]
        # Lazy fill happened row by row as the scan touched sources.
        assert lazy_shape.compiled_rows == set(range(num_nodes))

    def test_completed_lazy_table_releases_its_walker(self):
        from repro.routing.compile import CompiledTreeRoutes

        table = CompiledTreeRoutes(4, 3, lazy=True)
        table.ensure_pair(0, 1)
        assert table._walker is not None  # rows still to fill need it
        table.ensure_complete()
        assert table.compiled_rows == set(range(table.num_nodes))
        assert table._walker is None
        # Eager tables finish their last row inside the constructor.
        assert CompiledTreeRoutes(4, 2, lazy=False)._walker is None
