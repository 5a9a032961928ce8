"""Named dataset registry used by the experiment harness.

``"ldbc"`` is the default evaluation graph (stand-in for the LDBC
social-network dataset, see DESIGN.md §2). Smaller instances exist for
tests and quick examples. Datasets are constructed lazily and cached;
concurrent first requests for one name build it once (single flight).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    erdos_renyi_graph,
    grid_graph,
    ldbc_like_graph,
    road_like_graph,
)

_REGISTRY: Dict[str, Callable[[], CSRGraph]] = {
    # Full evaluation graph: ~16k vertices, power-law, weighted, undirected.
    "ldbc": lambda: ldbc_like_graph(scale=14, edge_factor=16, seed=7),
    # Faster variant for CI-grade experiment runs.
    "ldbc-small": lambda: ldbc_like_graph(scale=11, edge_factor=12, seed=7),
    # Tiny graphs for unit tests.
    "ldbc-tiny": lambda: ldbc_like_graph(scale=8, edge_factor=8, seed=7),
    "uniform-tiny": lambda: erdos_renyi_graph(256, 8.0, seed=3, weighted=True),
    "grid-8x8": lambda: grid_graph(8, 8, weighted=True, seed=1),
    # Road-network stand-in for the dataset-sensitivity extension:
    # near-constant degree, long diameter, tiny frontiers.
    "road": lambda: road_like_graph(180, 180, extra_edge_fraction=0.0005, seed=5),
    "road-small": lambda: road_like_graph(48, 48, extra_edge_fraction=0.002,
                                          seed=5),
}

_CACHE: Dict[str, CSRGraph] = {}
#: One build lock per name, so a cold ``ldbc`` does not stall ``road``.
_BUILD_LOCKS: Dict[str, threading.Lock] = {}
_BUILD_LOCKS_GUARD = threading.Lock()


def list_datasets() -> list[str]:
    """Names accepted by :func:`get_dataset`."""
    return sorted(_REGISTRY)


def get_dataset(name: str) -> CSRGraph:
    """Return (and cache) the named dataset.

    Raises :class:`KeyError` with the available names on a miss.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; available: {list_datasets()}")
    graph = _CACHE.get(name)
    if graph is not None:
        return graph
    with _BUILD_LOCKS_GUARD:
        lock = _BUILD_LOCKS.setdefault(name, threading.Lock())
    with lock:
        if name not in _CACHE:
            _CACHE[name] = _REGISTRY[name]()
        return _CACHE[name]


def clear_cache() -> None:
    """Drop cached instances (tests use this to bound memory)."""
    _CACHE.clear()
