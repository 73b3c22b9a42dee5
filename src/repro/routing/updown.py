"""The deterministic Up*/Down* routers.

:class:`UpDownRouter` is the paper's closed-form router for m-port n-trees
(NCA arithmetic on digit addresses); :class:`GraphUpDownRouter` generalizes
up*/down* to *any* graph carrying a spanning-tree orientation — the
topology-zoo members of :mod:`repro.topology.zoo` — via a per-source
breadth-first search over (switch, phase) states.

Every route is an explicit sequence of directed :class:`Channel` objects, so
that the analytical model (which only needs link counts and stage kinds) and
the wormhole simulator (which needs the actual contention points) consume the
very same description of a message's journey.

Besides the ordinary node-to-node route, the router also produces the two
half-journeys that inter-cluster messages make in the ECN1 networks:

* an *ascending leg* from the source node up to the NCA switch toward a
  chosen exit point, where the message is handed to the cluster's
  concentrator (Fig. 2, "leaves the ECN1 at the end of ascending phase");
* a *descending leg* from a switch of the destination cluster's ECN1 down to
  the destination node, where the dispatcher injected it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.routing.nca import ascent_digits
from repro.topology.fat_tree import (
    Channel,
    ChannelKind,
    FatTreeNode,
    FatTreeSwitch,
    MPortNTree,
)
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class Route:
    """An ordered sequence of directed channels through one tree."""

    tree_name: str
    channels: Tuple[Channel, ...]

    def __post_init__(self) -> None:
        for previous, current in zip(self.channels, self.channels[1:]):
            if previous.target != current.source:
                raise ValidationError(
                    f"route is not contiguous: {previous!r} then {current!r}"
                )

    # ----------------------------------------------------------------- lengths
    @property
    def num_links(self) -> int:
        """Number of channels (links) traversed."""
        return len(self.channels)

    @property
    def num_ascending(self) -> int:
        """Links traversed in the ascending phase (injection + up channels)."""
        return sum(
            1
            for channel in self.channels
            if channel.kind in (ChannelKind.INJECTION, ChannelKind.UP)
        )

    @property
    def num_descending(self) -> int:
        """Links traversed in the descending phase (down + ejection channels)."""
        return sum(
            1
            for channel in self.channels
            if channel.kind in (ChannelKind.DOWN, ChannelKind.EJECTION)
        )

    @property
    def switch_channels(self) -> int:
        """Number of switch-to-switch channels (service time ``t_cs``)."""
        return sum(1 for channel in self.channels if not channel.kind.is_node_channel)

    @property
    def node_channels(self) -> int:
        """Number of node-switch channels (service time ``t_cn``)."""
        return sum(1 for channel in self.channels if channel.kind.is_node_channel)

    # ------------------------------------------------------------------ shapes
    @property
    def source(self):
        """First entity on the route."""
        if not self.channels:
            raise ValidationError("empty route has no source")
        return self.channels[0].source

    @property
    def target(self):
        """Last entity on the route."""
        if not self.channels:
            raise ValidationError("empty route has no target")
        return self.channels[-1].target

    @property
    def highest_level(self) -> int:
        """Highest switch level touched (the NCA level for a full route)."""
        levels = [
            entity.level
            for channel in self.channels
            for entity in (channel.source, channel.target)
            if isinstance(entity, FatTreeSwitch)
        ]
        if not levels:
            raise ValidationError("route touches no switches")
        return max(levels)

    def concatenate(self, other: "Route") -> "Route":
        """Join two route legs end to end (used for diagnostics only)."""
        return Route(self.tree_name, self.channels + other.channels)

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)


class UpDownRouter:
    """Deterministic destination-based Up*/Down* routing on one tree."""

    def __init__(self, tree: MPortNTree) -> None:
        self.tree = tree

    # -------------------------------------------------------------- full route
    def route(self, source: FatTreeNode | int, dest: FatTreeNode | int) -> Route:
        """The 2j-link route from ``source`` to ``dest`` (distinct nodes)."""
        tree = self.tree
        source_node = self._as_node(source)
        dest_node = self._as_node(dest)
        if source_node == dest_node:
            raise ValidationError("source and destination must differ")

        channels: List[Channel] = []
        current = tree.leaf_switch_of(source_node)
        channels.append(Channel(source_node, current, ChannelKind.INJECTION))
        # Ascending phase: j-1 up hops chosen from the destination address.
        for up_digit in ascent_digits(tree, source_node, dest_node):
            upper = tree.parent_toward(current, up_digit)
            channels.append(Channel(current, upper, ChannelKind.UP))
            current = upper
        # Descending phase: unique downward path toward the destination.
        while current.level > 0:
            lower = tree.child_toward(current, dest_node)
            channels.append(Channel(current, lower, ChannelKind.DOWN))
            current = lower
        channels.append(Channel(current, dest_node, ChannelKind.EJECTION))
        return Route(tree.name, tuple(channels))

    # ------------------------------------------------------------- ECN1 legs
    def ascending_leg(self, source: FatTreeNode | int, exit_peer: FatTreeNode | int) -> Route:
        """The j-link ascending leg of an outgoing inter-cluster message.

        The message climbs from ``source`` to the NCA of ``source`` and
        ``exit_peer`` — the switch where the (distributed) concentrator picks
        it up.  Drawing ``exit_peer`` uniformly from the cluster's other
        nodes reproduces exactly the ascent-length distribution
        ``P_{j,n_i}`` the analytical model assumes for the ECN1.
        """
        tree = self.tree
        source_node = self._as_node(source)
        peer_node = self._as_node(exit_peer)
        if source_node == peer_node:
            raise ValidationError("exit peer must differ from the source")
        channels: List[Channel] = []
        current = tree.leaf_switch_of(source_node)
        channels.append(Channel(source_node, current, ChannelKind.INJECTION))
        for up_digit in ascent_digits(tree, source_node, peer_node):
            upper = tree.parent_toward(current, up_digit)
            channels.append(Channel(current, upper, ChannelKind.UP))
            current = upper
        return Route(tree.name, tuple(channels))

    def descending_leg(self, entry_peer: FatTreeNode | int, dest: FatTreeNode | int) -> Route:
        """The l-link descending leg of an incoming inter-cluster message.

        The dispatcher injects the message at the NCA of ``entry_peer`` and
        ``dest`` and it descends to ``dest``; the uniform choice of
        ``entry_peer`` gives the ``P_{l,n_v}`` descent-length distribution of
        the model.
        """
        tree = self.tree
        peer_node = self._as_node(entry_peer)
        dest_node = self._as_node(dest)
        if peer_node == dest_node:
            raise ValidationError("entry peer must differ from the destination")
        channels: List[Channel] = []
        current = tree.leaf_switch_of(peer_node)
        for up_digit in ascent_digits(tree, peer_node, dest_node):
            current = tree.parent_toward(current, up_digit)
        while current.level > 0:
            lower = tree.child_toward(current, dest_node)
            channels.append(Channel(current, lower, ChannelKind.DOWN))
            current = lower
        channels.append(Channel(current, dest_node, ChannelKind.EJECTION))
        return Route(tree.name, tuple(channels))

    # ------------------------------------------------------------------ helper
    def _as_node(self, node: FatTreeNode | int) -> FatTreeNode:
        if isinstance(node, FatTreeNode):
            self.tree.node_address(node.index)  # validates the range
            return node
        return self.tree.node(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UpDownRouter({self.tree!r})"


#: BFS state of :class:`GraphUpDownRouter`: (switch id, phase), with phase 0
#: while the walk is still ascending and 1 once it has turned down.
_State = Tuple[int, int]


class GraphUpDownRouter:
    """Deterministic up*/down* routing over an oriented switch graph.

    Works on any :class:`~repro.topology.zoo.graphs.ZooTopology`: the
    topology's orientation (``oriented_links``) splits every link into an
    UP and a DOWN channel, and a legal route takes zero or more UP channels
    followed by zero or more DOWN channels — the classical deadlock-free
    up*/down* discipline.

    The router finds, per (source switch, destination switch) pair, the
    *shortest* legal switch path, deterministically: one breadth-first
    search per source switch over ``(switch, phase)`` states, expanding UP
    successors before DOWN successors and neighbours in ascending id
    order, with the first state reaching a switch recorded as that
    switch's arrival.  The search tree is memoised per source switch, so
    routing every destination of one source costs one BFS (O(channels)).
    The compiled route tables (:mod:`repro.routing.compile`) run the same
    search over integer channel ids and are checked against this router.
    """

    def __init__(self, topology) -> None:
        self.topology = topology
        num_switches = topology.num_switches
        up_adj: List[List[int]] = [[] for _ in range(num_switches)]
        down_adj: List[List[int]] = [[] for _ in range(num_switches)]
        for child, parent in topology.oriented_links():
            up_adj[child].append(parent)
            down_adj[parent].append(child)
        self._up_adj = [sorted(adjacent) for adjacent in up_adj]
        self._down_adj = [sorted(adjacent) for adjacent in down_adj]
        self._trees: Dict[int, Tuple[Dict, Dict]] = {}

    # ------------------------------------------------------------ search tree
    def _search_tree(self, start: int) -> Tuple[Dict, Dict]:
        """The memoised BFS tree rooted at switch ``start``.

        Returns ``(parent, arrival)``: ``parent[state]`` is the
        ``(previous state, channel kind)`` edge that first enqueued
        ``state`` (``None`` at the root), ``arrival[switch]`` the first
        state that reached ``switch``.  FIFO order plus the fixed
        expansion order make both deterministic and distance-minimal.
        """
        memo = self._trees.get(start)
        if memo is not None:
            return memo
        up_adj = self._up_adj
        down_adj = self._down_adj
        root: _State = (start, 0)
        parent: Dict[_State, Optional[Tuple[_State, ChannelKind]]] = {root: None}
        arrival: Dict[int, _State] = {start: root}
        queue = deque((root,))
        while queue:
            state = queue.popleft()
            switch, phase = state
            if phase == 0:
                for upper in up_adj[switch]:
                    successor: _State = (upper, 0)
                    if successor not in parent:
                        parent[successor] = (state, ChannelKind.UP)
                        arrival.setdefault(upper, successor)
                        queue.append(successor)
            for lower in down_adj[switch]:
                successor = (lower, 1)
                if successor not in parent:
                    parent[successor] = (state, ChannelKind.DOWN)
                    arrival.setdefault(lower, successor)
                    queue.append(successor)
        memo = self._trees[start] = (parent, arrival)
        return memo

    # -------------------------------------------------------------- full route
    def route(self, source: int, dest: int) -> Route:
        """The shortest legal up*/down* route between two distinct hosts."""
        topology = self.topology
        source_index = self._as_host(source)
        dest_index = self._as_host(dest)
        if source_index == dest_index:
            raise ValidationError("source and destination must differ")
        # Imported lazily to keep the fat-tree-only import graph unchanged.
        from repro.topology.zoo.graphs import GraphSwitch, Host

        source_switch = topology.host_switch(source_index)
        dest_switch = topology.host_switch(dest_index)
        channels: List[Channel] = [
            Channel(Host(source_index), GraphSwitch(source_switch), ChannelKind.INJECTION)
        ]
        if source_switch != dest_switch:
            parent, arrival = self._search_tree(source_switch)
            state = arrival.get(dest_switch)
            if state is None:
                raise ValidationError(
                    f"no up*/down* route from switch {source_switch} to "
                    f"switch {dest_switch} on {topology.name}"
                )  # pragma: no cover - orientation invariant guarantees a route
            hops: List[Channel] = []
            while True:
                edge = parent[state]
                if edge is None:
                    break
                previous, kind = edge
                hops.append(
                    Channel(GraphSwitch(previous[0]), GraphSwitch(state[0]), kind)
                )
                state = previous
            channels.extend(reversed(hops))
        channels.append(
            Channel(GraphSwitch(dest_switch), Host(dest_index), ChannelKind.EJECTION)
        )
        return Route(topology.name, tuple(channels))

    # ------------------------------------------------------------------ helper
    def _as_host(self, host) -> int:
        index = getattr(host, "index", host)
        if not 0 <= index < self.topology.num_nodes:
            raise ValidationError(
                f"host index {index} out of range [0, {self.topology.num_nodes})"
            )
        return int(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphUpDownRouter({self.topology!r})"
