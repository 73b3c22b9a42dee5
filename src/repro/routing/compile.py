"""Precompiled integer route tables for the wormhole hot path.

:class:`~repro.routing.updown.UpDownRouter` is the routing source of truth:
it produces explicit, validated :class:`Channel` sequences, and the
analytical model's stage accounting is checked against it.  But rebuilding
that object chain for every simulated message is the single largest cost of
a simulation run.  This module freezes the same routes **once per tree
shape** into integer-indexed route tables, built by walking integer channel
ids (never ``Channel`` objects) and sharing route legs between pairs:

* :class:`CompiledTreeRoutes` — for one ``(m, n)`` shape: the full
  node-to-node routes plus the ascending and descending ECN1 legs, each as a
  tuple of dense channel ids (ids from
  :func:`repro.topology.compile.compile_tree`).  Shape tables are cached at
  module level: every same-shape cluster of every spec shares them, across
  sweep points and across process-pool workers.
* :class:`CompiledSystemRoutes` — for one :class:`MultiClusterSpec`: the
  shape tables rebased into the global channel-id space of
  :func:`repro.topology.compile.compile_system`, plus the concentrator and
  dispatcher pseudo-channel slots.  Building a journey becomes tuple
  concatenation of precomputed id tuples — no per-message ``Route``,
  ``Channel`` or address arithmetic survives on the hot path.

Every compiled route round-trips: ``decompile(...)`` maps a compiled id
tuple back to the exact ``Channel`` sequence, and the test suite asserts
equality with a freshly routed :class:`Route` — the object routers stay the
reference the integer walks are checked against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.topology.compile import (
    KIND_CODES,
    CompiledSystem,
    compile_system,
    compile_tree,
)
from repro.topology.fat_tree import Channel, ChannelKind, shared_tree
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError

__all__ = [
    "CompiledGraphRoutes",
    "CompiledTreeRoutes",
    "CompiledSystemRoutes",
    "CompiledZooRoutes",
    "LAZY_NODE_THRESHOLD",
    "LazyFlagTable",
    "LazyRebasedTable",
    "compile_graph_routes",
    "compile_tree_routes",
    "compile_system_routes",
    "decompile",
    "clear_route_caches",
]

IdTuple = Tuple[int, ...]

#: Shapes with at least this many nodes fill their route tables lazily, one
#: source row per first query, instead of eagerly walking all O(N²) pairs at
#: compile time.  512 nodes (m=8, n=4) is the first Table-1-style shape
#: where eager compilation costs seconds while a typical scenario only ever
#: touches the pairs its traffic pattern draws.
LAZY_NODE_THRESHOLD = 256

_INJECTION = KIND_CODES[ChannelKind.INJECTION]
_EJECTION = KIND_CODES[ChannelKind.EJECTION]
_UP = KIND_CODES[ChannelKind.UP]


class _TreeWalker:
    """Integer up*/down* walks of one m-port n-tree.

    The compile-time scratch of :class:`CompiledTreeRoutes`.  Channel ids
    come from the compiled tree's flat arrays and the switch adjacency from
    the tree's own navigation (``up_switches`` / ``down_switches``, indexed
    by port digit), so :meth:`MPortNTree.channels` stays the single owner of
    the id order.  Walks follow :class:`~repro.routing.updown.UpDownRouter`
    exactly: ascend on the destination's low-order digits
    (:func:`~repro.routing.nca.ascent_digits`), then descend the unique path.
    The descent from ``(switch, destination)`` is the same for every walk
    turning at that switch, so its suffix below each switch is memoised on
    the way down and equal descents are one shared tuple.
    """

    __slots__ = ("n", "num_nodes", "tree", "ejection", "level", "up", "down", "descents")

    def __init__(
        self, tree, links: Dict[Tuple[int, int], int], ejection: List[int]
    ) -> None:
        # links: (source, target) entity ids of each switch-switch channel
        # -> its channel id; ejection: the ejection channel id per node.
        num_nodes = tree.num_nodes
        self.n = tree.n
        self.num_nodes = num_nodes
        self.tree = tree
        self.ejection = ejection
        # Switch ids follow the compiled tree's entity numbering: switch
        # ``s`` in ``tree.switches()`` order is entity ``num_nodes + s``.
        switches = list(tree.switches())
        switch_ids = {switch: index for index, switch in enumerate(switches)}

        def ports(switch, neighbours) -> Tuple[Tuple[int, int], ...]:
            here = num_nodes + switch_ids[switch]
            result = []
            for other in neighbours:
                there = switch_ids[other]
                result.append((links[here, num_nodes + there], there))
            return tuple(result)

        self.level = [switch.level for switch in switches]
        self.up = [ports(switch, tree.up_switches(switch)) for switch in switches]
        self.down = [ports(switch, tree.down_switches(switch)) for switch in switches]
        self.descents: Dict[int, IdTuple] = {}

    def walk_from(self, leaf: int, source: int) -> Tuple[List[IdTuple], List[IdTuple]]:
        """Per destination: up ids to the NCA, down and ejection ids from it.

        Covers every walk leaving ``leaf``, the leaf switch of ``source``;
        the entry for ``source`` itself is meaningless (the diagonal never
        routes).  A destination ``j`` links up shares its climb with every
        destination that agrees on the ``j - 1`` low-order digits the
        climb reads, so climbs are walked once per such class.
        """
        k = self.tree.k
        n = self.n
        num_nodes = self.num_nodes
        powers = [k**t for t in range(n)]
        # The paper's j per destination: the nodes sharing all but the last
        # t address digits with `source` are one block of k**t indices.
        spans = [n] * num_nodes
        for t in range(n - 1, 0, -1):
            block = powers[t]
            start = source - source % block
            spans[start : start + block] = [t] * block
        up = self.up
        descents = self.descents
        climbs: Dict[int, Tuple[IdTuple, int]] = {}
        ups: List[IdTuple] = []
        downs: List[IdTuple] = []
        for dest, j in enumerate(spans):
            key = j * num_nodes + dest % powers[j - 1]
            climb = climbs.get(key)
            if climb is None:
                hops = []
                switch = leaf
                digits = dest
                for _ in range(j - 1):
                    # Up-port t is digit n - t of the destination address.
                    cid, switch = up[switch][digits % k]
                    digits //= k
                    hops.append(cid)
                climb = climbs[key] = (tuple(hops), switch)
            hops, nca = climb
            ups.append(hops)
            down = descents.get(nca * num_nodes + dest)
            downs.append(self.descent(nca, dest) if down is None else down)
        return ups, downs

    def descent(self, switch: int, dest: int) -> IdTuple:
        """Down- plus ejection-channel ids from ``switch`` to ``dest``."""
        num_nodes = self.num_nodes
        descents = self.descents
        key = switch * num_nodes + dest
        path = descents.get(key)
        if path is not None:
            return path
        n = self.n
        digits = self.tree.node_address(dest)
        level = self.level
        down = self.down
        chain = []
        while path is None:
            depth = level[switch]
            if depth == 0:
                path = descents[key] = (self.ejection[dest],)
                break
            cid, switch = down[switch][digits[n - 1 - depth]]
            chain.append((key, cid))
            key = switch * num_nodes + dest
            path = descents.get(key)
        for key, cid in reversed(chain):
            path = descents[key] = (cid,) + path
        return path


def _shifter(offset: int):
    """Shift id tuples by ``offset``, each distinct tuple object once.

    Legs shared between pairs stay shared in the shifted copy.  Keys are
    object ids, so the caller keeps every shifted tuple alive meanwhile.
    """
    add = offset.__add__
    shifted: Dict[int, IdTuple] = {}

    def shift(ids: IdTuple) -> IdTuple:
        moved = shifted.get(id(ids))
        if moved is None:
            moved = shifted[id(ids)] = tuple(map(add, ids))
        return moved

    return shift


def _ascending_row(injection: int, ups: List[IdTuple]) -> List[IdTuple]:
    """Injection plus climb per destination, one tuple per distinct climb."""
    legs = {climb: (injection, *climb) for climb in set(ups)}
    return [legs[climb] for climb in ups]


def _store_row(table: list, row: list, source: int) -> None:
    """Write ``row`` as source row ``source``, its diagonal entry ``None``."""
    base = source * len(row)
    table[base : base + len(row)] = row
    table[base + source] = None


class CompiledTreeRoutes:
    """All deterministic routes of one tree shape as dense-id tuples.

    Tables are flat lists indexed by ``source * num_nodes + other`` (the
    diagonal entries are ``None`` — a message to oneself never routes):

    * ``full[s * N + d]`` — the 2j-link route from node ``s`` to node ``d``;
    * ``full_has_switch[...]`` — True when that route crosses at least one
      switch-switch channel (it always crosses node channels), which is all
      the simulator needs to find the slowest hop of an intra-cluster
      journey;
    * ``ascending[s * N + p]`` — the ECN1 ascending leg from ``s`` towards
      exit peer ``p`` (injection + up channels);
    * ``descending[p * N + d]`` — the ECN1 descending leg entered at the NCA
      of entry peer ``p`` and ``d`` (down + ejection channels).

    All four come from the *leaf legs*: every source on one leaf switch
    shares, per destination, its climb to the NCA and the descent from it
    (``leaf_legs[leaf] = (ups, downs)``, walked once per leaf by
    :class:`_TreeWalker`).  A row is then injection + climb (``ascending``),
    the descent (``descending``) and their concatenation (``full``); equal
    legs are shared tuples, as the tables are read-only.  The same leaf legs
    shifted by a block offset give a system's rebased copies
    (:meth:`rebased_full`, :meth:`rebased_legs`) without re-walking.

    Small shapes compile every row eagerly (the tables are then plain lists
    with no indirection on the hot path).  Tall shapes — at least
    :data:`LAZY_NODE_THRESHOLD` nodes, or ``lazy=True`` explicitly — keep
    the walker and fill one *source row* (all four tables for one ``s``) on
    the first query touching it, so compile cost is O(rows used) instead of
    O(N²); :attr:`compiled_rows` records which rows exist.  The walker and
    its memo are dropped once the last row is filled.
    """

    __slots__ = (
        "m",
        "n",
        "num_nodes",
        "full",
        "full_has_switch",
        "ascending",
        "descending",
        "lazy",
        "compiled_rows",
        "leaf_of",
        "injection",
        "leaf_legs",
        "_walker",
    )

    def __init__(self, m: int, n: int, lazy: bool | None = None) -> None:
        self.m = int(m)
        self.n = int(n)
        tree = shared_tree(m, n)
        compiled = compile_tree(m, n)
        num_nodes = tree.num_nodes
        self.num_nodes = num_nodes
        self.lazy = num_nodes >= LAZY_NODE_THRESHOLD if lazy is None else bool(lazy)
        injection = [0] * num_nodes
        ejection = [0] * num_nodes
        leaf_of = [0] * num_nodes
        links: Dict[Tuple[int, int], int] = {}
        sources = compiled.source_ids.tolist()
        targets = compiled.target_ids.tolist()
        for cid, kind in enumerate(compiled.kind_codes.tolist()):
            if kind == _INJECTION:
                injection[sources[cid]] = cid
                leaf_of[sources[cid]] = targets[cid] - num_nodes
            elif kind == _EJECTION:
                ejection[targets[cid]] = cid
            else:
                links[sources[cid], targets[cid]] = cid
        self.injection = injection
        self.leaf_of = leaf_of
        self.leaf_legs: List[Tuple[List[IdTuple], List[IdTuple]] | None] = [None] * (
            max(leaf_of) + 1
        )
        self._walker: _TreeWalker | None = _TreeWalker(tree, links, ejection)
        self.compiled_rows: set = set()

        pairs = num_nodes * num_nodes
        self.full: List[IdTuple | None] = [None] * pairs
        self.full_has_switch: List[bool] = [False] * pairs
        self.ascending: List[IdTuple | None] = [None] * pairs
        self.descending: List[IdTuple | None] = [None] * pairs
        if not self.lazy:
            self.ensure_complete()

    def _fill_row(self, source: int) -> None:
        """Compile all four tables for one source/entry-peer row."""
        leaf = self.leaf_of[source]
        legs = self.leaf_legs[leaf]
        if legs is None:
            legs = self.leaf_legs[leaf] = self._walker.walk_from(leaf, source)
        ups, downs = legs
        ascending = _ascending_row(self.injection[source], ups)
        _store_row(self.full, [leg + down for leg, down in zip(ascending, downs)], source)
        _store_row(self.ascending, ascending, source)
        # descending is keyed (entry peer, destination) = (source, other)
        # here: the leg from the NCA of `source` and `other` down to `other`.
        _store_row(self.descending, downs, source)
        base = source * self.num_nodes
        self.full_has_switch[base : base + self.num_nodes] = map(bool, ups)
        self.full_has_switch[base + source] = False
        self.compiled_rows.add(source)
        if len(self.compiled_rows) == self.num_nodes:
            # Complete tables need no walker: drop it and its memo so the
            # module-level shape cache does not pin them for the process
            # lifetime.
            self._walker = None

    def ensure_pair(self, source: int, other: int) -> None:
        """Make sure the row covering ``(source, other)`` is compiled."""
        if source not in self.compiled_rows:
            self._fill_row(source)

    def ensure_complete(self) -> None:
        """Compile every remaining row (setup-time warm-up hook).

        Uniform traffic eventually touches every source row, so a simulation
        engine preparing a lazy shape fills it here — outside the timed
        region — instead of paying row compilation inside the first run.
        Single-pair consumers simply never call this.
        """
        for source in range(self.num_nodes):
            if source not in self.compiled_rows:
                self._fill_row(source)

    # ----------------------------------------------------------- rebasing
    def _shifted_rows(self, offset: int):
        """Per source: ``(source, injection, ups, downs)`` shifted by ``offset``."""
        self.ensure_complete()
        shift = _shifter(offset)
        shifted: Dict[int, Tuple[List[IdTuple], List[IdTuple]]] = {}
        for source, leaf in enumerate(self.leaf_of):
            legs = shifted.get(leaf)
            if legs is None:
                ups, downs = self.leaf_legs[leaf]
                climbs = {climb: shift(climb) for climb in set(ups)}
                legs = shifted[leaf] = (
                    list(map(climbs.__getitem__, ups)),
                    list(map(shift, downs)),
                )
            yield (source, self.injection[source] + offset, *legs)

    def rebased_full(self, offset: int) -> List[IdTuple | None]:
        """``full`` shifted into the global channel-id block at ``offset``."""
        if offset == 0:
            return self.full
        table: List[IdTuple | None] = [None] * len(self.full)
        for source, injection, ups, downs in self._shifted_rows(offset):
            ascending = _ascending_row(injection, ups)
            _store_row(table, [leg + down for leg, down in zip(ascending, downs)], source)
        return table

    def rebased_legs(self, offset: int) -> Tuple[List[IdTuple | None], List[IdTuple | None]]:
        """``(ascending, descending)`` shifted into the block at ``offset``."""
        if offset == 0:
            return self.ascending, self.descending
        ascending: List[IdTuple | None] = [None] * len(self.ascending)
        descending: List[IdTuple | None] = [None] * len(self.descending)
        for source, injection, ups, downs in self._shifted_rows(offset):
            _store_row(ascending, _ascending_row(injection, ups), source)
            _store_row(descending, downs, source)
        return ascending, descending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "lazy" if self.lazy else "eager"
        return (
            f"CompiledTreeRoutes(m={self.m}, n={self.n}, nodes={self.num_nodes}, "
            f"{mode}, rows={len(self.compiled_rows)})"
        )


_TREE_ROUTES: Dict[Tuple[int, int], CompiledTreeRoutes] = {}


def compile_tree_routes(m: int, n: int) -> CompiledTreeRoutes:
    """The (cached) route tables of the ``(m, n)`` tree shape."""
    key = (int(m), int(n))
    routes = _TREE_ROUTES.get(key)
    if routes is None:
        routes = _TREE_ROUTES[key] = CompiledTreeRoutes(m, n)
    return routes


class _GraphWalker:
    """Integer up*/down* search of one zoo graph, one BFS per source switch.

    The compile-time scratch of :class:`CompiledGraphRoutes`, built from the
    compiled graph's flat arrays alone (so :meth:`ZooTopology.channels`
    owns the id order).  The search mirrors
    :class:`~repro.routing.updown.GraphUpDownRouter` state for state: FIFO
    over ``(switch, phase)`` states, UP successors before DOWN ones,
    neighbours in ascending switch id, and the first state reaching a
    switch fixes its arrival.  Each state carries its parent's id tuple
    plus one channel id, so a switch's arrival *is* its channel path.

    A search is kept only while hosts of its switch still wait for their
    rows (several hosts share an edge switch in the tree families).
    """

    __slots__ = (
        "num_switches",
        "host_switch",
        "injection",
        "ejection",
        "up",
        "down",
        "searches",
        "waiting",
    )

    def __init__(self, compiled) -> None:
        num_nodes = compiled.num_nodes
        num_switches = compiled.num_switches
        self.num_switches = num_switches
        host_switch = [0] * num_nodes
        injection = [0] * num_nodes
        ejection = [0] * num_nodes
        up: List[Dict[int, int]] = [{} for _ in range(num_switches)]
        down: List[Dict[int, int]] = [{} for _ in range(num_switches)]
        sources = compiled.source_ids.tolist()
        targets = compiled.target_ids.tolist()
        for cid, kind in enumerate(compiled.kind_codes.tolist()):
            source = sources[cid]
            target = targets[cid]
            if kind == _INJECTION:
                injection[source] = cid
                host_switch[source] = target - num_nodes
            elif kind == _EJECTION:
                ejection[target] = cid
            else:
                # A repeated (switch, switch, kind) channel keeps its last
                # id, as the compiled ``channel_ids`` map does.
                adjacency = up if kind == _UP else down
                adjacency[source - num_nodes][target - num_nodes] = cid
        self.host_switch = host_switch
        self.injection = injection
        self.ejection = ejection
        self.up = [tuple(sorted(ports.items())) for ports in up]
        self.down = [tuple(sorted(ports.items())) for ports in down]
        self.searches: Dict[int, List[IdTuple | None]] = {}
        self.waiting = [0] * num_switches
        for switch in host_switch:
            self.waiting[switch] += 1

    def arrivals(self, start: int) -> List[IdTuple | None]:
        """Switch-switch channel ids from ``start`` to every switch."""
        search = self.searches.get(start)
        if search is None:
            search = self._search(start)
        self.waiting[start] -= 1
        if self.waiting[start]:
            self.searches[start] = search
        else:
            self.searches.pop(start, None)
        return search

    def _search(self, start: int) -> List[IdTuple | None]:
        up = self.up
        down = self.down
        arrival: List[IdTuple | None] = [None] * self.num_switches
        arrival[start] = ()
        seen_up = bytearray(self.num_switches)
        seen_down = bytearray(self.num_switches)
        seen_up[start] = 1
        queue = deque(((start, True, ()),))
        pop = queue.popleft
        push = queue.append
        while queue:
            switch, ascending, path = pop()
            if ascending:
                for upper, cid in up[switch]:
                    if not seen_up[upper]:
                        seen_up[upper] = 1
                        successor = path + (cid,)
                        if arrival[upper] is None:
                            arrival[upper] = successor
                        push((upper, True, successor))
            for lower, cid in down[switch]:
                if not seen_down[lower]:
                    seen_down[lower] = 1
                    successor = path + (cid,)
                    if arrival[lower] is None:
                        arrival[lower] = successor
                    push((lower, False, successor))
        return arrival


class CompiledGraphRoutes:
    """All deterministic up*/down* routes of one zoo topology as id tuples.

    The zoo counterpart of :class:`CompiledTreeRoutes`, holding only the
    tables a one-cluster system needs: ``full[s * N + d]`` (dense channel
    ids of the shortest legal route) and ``full_has_switch[...]`` (True
    when the route crosses a switch-switch channel).  Same lazy
    per-source-row discipline: filling a row costs one integer
    breadth-first search from the source's switch (shared with the other
    hosts of that switch), and a route is ``(injection, *arrival path,
    ejection)``.
    """

    __slots__ = (
        "token",
        "num_nodes",
        "full",
        "full_has_switch",
        "lazy",
        "compiled_rows",
        "_walker",
    )

    def __init__(self, spec, lazy: bool | None = None) -> None:
        # Imported lazily: the zoo package is optional on the import path of
        # fat-tree-only consumers.
        from repro.topology.zoo.compile import compile_graph

        compiled = compile_graph(spec)
        self.token = spec.token
        num_nodes = compiled.num_nodes
        self.num_nodes = num_nodes
        self.lazy = num_nodes >= LAZY_NODE_THRESHOLD if lazy is None else bool(lazy)
        self._walker: _GraphWalker | None = _GraphWalker(compiled)
        self.compiled_rows: set = set()

        pairs = num_nodes * num_nodes
        self.full: List[IdTuple | None] = [None] * pairs
        self.full_has_switch: List[bool] = [False] * pairs
        if not self.lazy:
            self.ensure_complete()

    def _fill_row(self, source: int) -> None:
        """Compile the full/has-switch tables for one source row."""
        walker = self._walker
        host_switch = walker.host_switch
        start = host_switch[source]
        arrival = walker.arrivals(start)
        paths = [arrival[switch] for switch in host_switch]
        if None in paths:
            other = paths.index(None)
            raise ValidationError(
                f"no up*/down* route from switch {start} to switch "
                f"{host_switch[other]} on {self.token}"
            )  # pragma: no cover - orientation invariant guarantees a route
        injection = walker.injection[source]
        _store_row(
            self.full,
            [(injection, *path, ejection) for path, ejection in zip(paths, walker.ejection)],
            source,
        )
        num_nodes = self.num_nodes
        base = source * num_nodes
        self.full_has_switch[base : base + num_nodes] = [switch != start for switch in host_switch]
        self.full_has_switch[base + source] = False
        self.compiled_rows.add(source)
        if len(self.compiled_rows) == num_nodes:
            self._walker = None

    def ensure_pair(self, source: int, other: int) -> None:
        """Make sure the row covering ``(source, other)`` is compiled."""
        if source not in self.compiled_rows:
            self._fill_row(source)

    def ensure_complete(self) -> None:
        """Compile every remaining row (setup-time warm-up hook)."""
        for source in range(self.num_nodes):
            if source not in self.compiled_rows:
                self._fill_row(source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "lazy" if self.lazy else "eager"
        return (
            f"CompiledGraphRoutes({self.token}, nodes={self.num_nodes}, "
            f"{mode}, rows={len(self.compiled_rows)})"
        )


_GRAPH_ROUTES: Dict[Tuple, CompiledGraphRoutes] = {}


def compile_graph_routes(spec) -> CompiledGraphRoutes:
    """The (cached) route tables of zoo topology ``spec``, keyed by identity."""
    key = spec.identity
    routes = _GRAPH_ROUTES.get(key)
    if routes is None:
        routes = _GRAPH_ROUTES[key] = CompiledGraphRoutes(spec)
    return routes


def install_graph_routes(spec, routes: CompiledGraphRoutes) -> CompiledGraphRoutes:
    """Adopt externally built (e.g. shm-attached) graph route tables.

    ``setdefault`` semantics, mirroring the compiled-graph install hook.
    """
    return _GRAPH_ROUTES.setdefault(spec.identity, routes)


class LazyRebasedTable:
    """Pair-indexed view over a lazily filled shape table, rebased on demand.

    Behaves like the rebased flat lists of an eager shape
    (:meth:`CompiledTreeRoutes.rebased_full`) — ``view[pair]``
    with ``pair = source * N + other`` — but compiles the source row on the
    first query touching it and memoises the offset-shifted tuple, so a
    single-pair lookup against a tall shape costs one row compilation, not
    O(N²).
    """

    __slots__ = ("_shape", "_table", "_offset", "_entries", "_num_nodes")

    def __init__(self, shape: CompiledTreeRoutes, table: List[IdTuple | None], offset: int) -> None:
        self._shape = shape
        self._table = table
        self._offset = offset
        self._entries: List[IdTuple | None] = [None] * len(table)
        self._num_nodes = shape.num_nodes

    def __getitem__(self, pair: int) -> IdTuple | None:
        entry = self._entries[pair]
        if entry is None:
            raw = self._table[pair]
            if raw is None:
                source, other = divmod(pair, self._num_nodes)
                if source == other:
                    # Diagonal entries stay None, as in the eager tables.
                    return None
                self._shape._fill_row(source)
                raw = self._table[pair]
            offset = self._offset
            entry = self._entries[pair] = tuple(cid + offset for cid in raw)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


class LazyFlagTable:
    """Pair-indexed view over ``full_has_switch`` of a lazily filled shape."""

    __slots__ = ("_shape",)

    def __init__(self, shape: CompiledTreeRoutes) -> None:
        self._shape = shape

    def __getitem__(self, pair: int) -> bool:
        shape = self._shape
        if shape.full[pair] is None:
            source, other = divmod(pair, shape.num_nodes)
            if source != other:
                shape._fill_row(source)
        return shape.full_has_switch[pair]

    def __len__(self) -> int:
        return len(self._shape.full_has_switch)


class CompiledSystemRoutes:
    """Global-id route tables for every journey of one multi-cluster spec.

    Attributes (all indexed with local node indices; ``N_c`` is the node
    count of cluster ``c``):

    * ``intra[c][s * N_c + d]`` — ICN1 route ids of cluster ``c``;
    * ``intra_has_switch[c][...]`` — slowest-hop flag for those routes;
    * ``ascend[c][s * N_c + p]`` — ECN1 ascending-leg ids of cluster ``c``;
    * ``descend[c][p * N_c + d]`` — ECN1 descending-leg ids of cluster ``c``;
    * ``icn2[sc * C + dc]`` — ICN2 route ids between two concentrators;
    * ``concentrator[c]`` / ``dispatcher[c]`` — relay pseudo-channel slots.
    """

    __slots__ = (
        "core",
        "intra",
        "intra_has_switch",
        "ascend",
        "descend",
        "icn2",
        "concentrator",
        "dispatcher",
    )

    def __init__(self, core: CompiledSystem) -> None:
        self.core = core
        spec = core.spec
        intra: List[List[IdTuple | None]] = []
        intra_has_switch: List[List[bool]] = []
        ascend: List[List[IdTuple | None]] = []
        descend: List[List[IdTuple | None]] = []
        for index, height in enumerate(spec.cluster_heights):
            shape = compile_tree_routes(spec.m, height)
            if shape.lazy:
                intra.append(LazyRebasedTable(shape, shape.full, core.icn1_offsets[index]))
                intra_has_switch.append(LazyFlagTable(shape))
                ascend.append(LazyRebasedTable(shape, shape.ascending, core.ecn1_offsets[index]))
                descend.append(LazyRebasedTable(shape, shape.descending, core.ecn1_offsets[index]))
            else:
                intra.append(shape.rebased_full(core.icn1_offsets[index]))
                intra_has_switch.append(shape.full_has_switch)
                ascending, descending = shape.rebased_legs(core.ecn1_offsets[index])
                ascend.append(ascending)
                descend.append(descending)
        icn2_shape = compile_tree_routes(spec.m, spec.icn2_height)
        self.intra = intra
        self.intra_has_switch = intra_has_switch
        self.ascend = ascend
        self.descend = descend
        self.icn2 = (
            LazyRebasedTable(icn2_shape, icn2_shape.full, core.icn2_offset)
            if icn2_shape.lazy
            else icn2_shape.rebased_full(core.icn2_offset)
        )
        self.concentrator = tuple(
            core.concentrator_slot(index) for index in range(spec.num_clusters)
        )
        self.dispatcher = tuple(
            core.dispatcher_slot(index) for index in range(spec.num_clusters)
        )

    def warm(self) -> None:
        """Fill every lazy shape table completely (setup-time hook).

        Called by :meth:`repro.api.SimulationEngine.prepare` so scenarios
        whose traffic will touch most pairs anyway (uniform destinations)
        compile outside the timed region and before process-pool fan-out.
        """
        spec = self.core.spec
        for height in (*spec.cluster_heights, spec.icn2_height):
            shape = compile_tree_routes(spec.m, height)
            if shape.lazy:
                shape.ensure_complete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSystemRoutes({self.core!r})"


class CompiledZooRoutes:
    """Zoo route tables presented through the system-routes surface.

    A zoo topology compiles as a single degenerate cluster, so only the
    intra tables carry routes; the external machinery (ascend/descend
    legs, ICN2 crossing, relay slots) is empty and — with every message
    intra-cluster by construction — never indexed by any kernel.
    """

    __slots__ = (
        "core",
        "intra",
        "intra_has_switch",
        "ascend",
        "descend",
        "icn2",
        "concentrator",
        "dispatcher",
    )

    def __init__(self, core) -> None:
        self.core = core
        shape = compile_graph_routes(core.spec)
        if shape.lazy:
            self.intra = [LazyRebasedTable(shape, shape.full, 0)]
            self.intra_has_switch = [LazyFlagTable(shape)]
        else:
            self.intra = [shape.full]
            self.intra_has_switch = [shape.full_has_switch]
        self.ascend = ((),)
        self.descend = ((),)
        self.icn2 = ()
        self.concentrator = ()
        self.dispatcher = ()

    def warm(self) -> None:
        """Fill the lazy route table completely (setup-time hook)."""
        shape = compile_graph_routes(self.core.spec)
        if shape.lazy:
            shape.ensure_complete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledZooRoutes({self.core!r})"


_SYSTEM_ROUTES: Dict[MultiClusterSpec, CompiledSystemRoutes] = {}
_ZOO_SYSTEM_ROUTES: Dict[Tuple, CompiledZooRoutes] = {}

#: Rebased system tables are the largest compiled artifact (O(sum N_i^2)
#: tuples per spec); bound the cache so sweeps over many organisations
#: cannot pin unbounded memory for the process lifetime.
_SYSTEM_ROUTE_CACHE_LIMIT = 64


def compile_system_routes(spec) -> "CompiledSystemRoutes | CompiledZooRoutes":
    """The (cached) global-id route tables of ``spec``.

    Cached per frozen spec alongside :func:`compile_system`, so repeated
    sweep points, engines and pool workers pay the compilation once per
    process.  ``spec`` may be a :class:`MultiClusterSpec` (the paper's
    system) or a :class:`~repro.topology.zoo.spec.TopologySpec` (a zoo
    member, cached by full topology identity).
    """
    if not isinstance(spec, MultiClusterSpec):
        key = spec.identity
        zoo_routes = _ZOO_SYSTEM_ROUTES.get(key)
        if zoo_routes is None:
            if len(_ZOO_SYSTEM_ROUTES) >= _SYSTEM_ROUTE_CACHE_LIMIT:
                _ZOO_SYSTEM_ROUTES.clear()
            zoo_routes = _ZOO_SYSTEM_ROUTES[key] = CompiledZooRoutes(
                compile_system(spec)
            )
        return zoo_routes
    routes = _SYSTEM_ROUTES.get(spec)
    if routes is None:
        if len(_SYSTEM_ROUTES) >= _SYSTEM_ROUTE_CACHE_LIMIT:
            _SYSTEM_ROUTES.clear()
        routes = _SYSTEM_ROUTES[spec] = CompiledSystemRoutes(compile_system(spec))
    return routes


def decompile(m: int, n: int, ids: IdTuple) -> Tuple[Channel, ...]:
    """Map shape-local channel ids back to their :class:`Channel` objects."""
    compiled = compile_tree(m, n)
    return tuple(compiled.channel_at(cid) for cid in ids)


def route_table_size(m: int, n: int) -> int:
    """Number of ordered node pairs a shape table holds (diagnostic aid)."""
    num_nodes = shared_tree(m, n).num_nodes
    if num_nodes < 2:
        raise ValidationError("route tables need at least two nodes")
    return num_nodes * (num_nodes - 1)


def clear_route_caches() -> None:
    """Drop all compiled route tables (test isolation hook)."""
    _TREE_ROUTES.clear()
    _SYSTEM_ROUTES.clear()
    _GRAPH_ROUTES.clear()
    _ZOO_SYSTEM_ROUTES.clear()
