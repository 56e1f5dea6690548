"""Network topology model backed by ``networkx``.

The paper deploys components over environments described as "a set of
nodes and links associated with their own properties" (§3.1); its
experiments run on a LAN.  :class:`Topology` carries per-link latency
and security attributes; the simulated transport reads end-to-end
latency from shortest paths, and the PSF planner reads link security to
decide where encryptor/decryptor pairs go.

networkx is imported when a topology is built, not with this module:
the coherence protocol and the socket transports never read a graph,
so a process that runs only them never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Tuple

from repro.errors import TransportError

if TYPE_CHECKING:
    import networkx as nx


class Topology:
    """An undirected graph of named nodes and attributed links."""

    def __init__(self) -> None:
        import networkx as nx

        self._g = nx.Graph()
        self._path_cache: Dict[Tuple[str, str], Tuple[float, List[str]]] = {}

    # -- construction ----------------------------------------------------
    def add_node(self, name: str, **attrs: Any) -> None:
        self._g.add_node(name, **attrs)

    def add_link(
        self,
        a: str,
        b: str,
        latency: float = 1.0,
        secure: bool = True,
        **attrs: Any,
    ) -> None:
        """Add a bidirectional link; ``latency`` is one-way per message."""
        if latency < 0:
            raise TransportError(f"negative latency on link {a}-{b}")
        self._g.add_edge(a, b, latency=latency, secure=secure, **attrs)
        self._path_cache.clear()

    # -- queries -----------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        return self._g

    def nodes(self) -> List[str]:
        return list(self._g.nodes)

    def has_node(self, name: str) -> bool:
        return self._g.has_node(name)

    def node_attrs(self, name: str) -> Dict[str, Any]:
        return dict(self._g.nodes[name])

    def link_attrs(self, a: str, b: str) -> Dict[str, Any]:
        return dict(self._g.edges[a, b])

    def neighbors(self, name: str) -> List[str]:
        return list(self._g.neighbors(name))

    def path(self, src: str, dst: str) -> Tuple[float, List[str]]:
        """Minimum-latency path; returns ``(total_latency, node_list)``."""
        if src == dst:
            return 0.0, [src]
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        import networkx as nx

        try:
            length, nodes = nx.single_source_dijkstra(
                self._g, src, dst, weight="latency"
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise TransportError(f"no path {src} -> {dst}") from exc
        self._path_cache[key] = (length, nodes)
        self._path_cache[(dst, src)] = (length, list(reversed(nodes)))
        return length, nodes

    def latency(self, src: str, dst: str) -> float:
        return self.path(src, dst)[0]

    def insecure_links_on_path(self, src: str, dst: str) -> List[Tuple[str, str]]:
        """Links along the min-latency path with ``secure=False``."""
        _, nodes = self.path(src, dst)
        out = []
        for a, b in zip(nodes, nodes[1:]):
            if not self._g.edges[a, b].get("secure", True):
                out.append((a, b))
        return out


def lan_topology(
    node_names: Iterable[str],
    hub: str = "lan-switch",
    latency: float = 0.5,
    secure: bool = True,
) -> Topology:
    """Star LAN: every node hangs off one switch (paper's testbed shape).

    End-to-end latency between any two hosts is ``2 * latency``.
    """
    topo = Topology()
    topo.add_node(hub, kind="switch")
    for name in node_names:
        topo.add_node(name, kind="host")
        topo.add_link(name, hub, latency=latency, secure=secure)
    return topo


def wan_topology(
    domains: Dict[str, Iterable[str]],
    internet_latency: float = 20.0,
    lan_latency: float = 0.5,
    insecure_backbone: bool = True,
) -> Topology:
    """Multiple LAN domains joined through an "Internet" core (paper Fig 1).

    Each domain gets its own switch; switches connect to a shared core
    node.  Backbone links may be marked insecure so the PSF planner must
    insert encryptor/decryptor pairs around them.
    """
    topo = Topology()
    core = "internet"
    topo.add_node(core, kind="core")
    for domain, hosts in domains.items():
        switch = f"{domain}-switch"
        topo.add_node(switch, kind="switch", domain=domain)
        topo.add_link(
            switch, core, latency=internet_latency, secure=not insecure_backbone
        )
        for h in hosts:
            topo.add_node(h, kind="host", domain=domain)
            topo.add_link(h, switch, latency=lan_latency, secure=True)
    return topo
