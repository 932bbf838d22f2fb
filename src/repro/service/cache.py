"""Topology hashing and compiled-circuit memoization.

Compiling a :class:`~repro.graph.network.FlowNetwork` into its analog circuit
(widget synthesis, pruning, quantization) costs as much as several DC solves
of the result.  Production traffic is repetitive — the same road network is
re-solved as capacities change little, the same segmentation grid shape
recurs for every frame — so the batch service memoizes compiled circuits
keyed by a deterministic hash of the network topology *and* the compiler
configuration that produced them.  Each cached entry also carries the
circuit's pre-built MNA system and compiled stamp template
(:meth:`~repro.analog.compiler.CompiledMaxFlowCircuit.mna`), so a hit skips
compilation, MNA index assignment and stamp-template construction alike,
and its warm DC state
(:attr:`~repro.analog.compiler.CompiledMaxFlowCircuit.warm_dc`): the LU
factorisation and diode pattern its first solve settled at.  A hit starts
at that pattern, so its solve collapses to one warm triangular solve
against the kept factorisation.

The cache is a thread-safe LRU: entries are evicted least-recently-used once
``max_entries`` is reached, and hit/miss/eviction counters feed the batch
report.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

from ..graph.network import FlowNetwork

__all__ = ["network_signature", "CompiledCircuitCache"]


def network_signature(network: FlowNetwork) -> str:
    """Deterministic hex digest of a flow network's full topology.

    Two networks receive the same signature exactly when they have the same
    source/sink labels, the same vertices in the same insertion order and the
    same edges (tail, head, capacity) in the same insertion order — i.e. when
    the analog compiler would emit an identical circuit for both.

    The signature is the digest of the network's cached array view
    (:meth:`~repro.graph.network.FlowNetwork.flat`), so a second call on an
    unchanged network is a cached read.

    Parameters
    ----------
    network:
        The network to fingerprint.

    Returns
    -------
    str
        A blake2b hex digest.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.service import network_signature
    >>> a, b = FlowNetwork(), FlowNetwork()
    >>> for g in (a, b):
    ...     _ = g.add_edge("s", "t", 2.0)
    >>> network_signature(a) == network_signature(b)
    True
    >>> _ = b.add_edge("s", "t", 1.0)
    >>> network_signature(a) == network_signature(b)
    False
    """
    return network.flat().digest


def analog_config_signature(solver) -> str:
    """The analog solver settings a compiled circuit depends on, as a key part.

    Two differently-configured solvers must never share a cached circuit,
    so every cache key for a compiled circuit includes this string.
    """
    return repr(
        (
            solver.parameters,
            solver.nonideal,
            solver.quantize,
            str(solver.style),
            solver.prune,
            solver.quantizer_mode,
            solver.seed,
        )
    )


class CompiledCircuitCache:
    """Thread-safe LRU cache of compiled circuits (or any expensive value).

    Parameters
    ----------
    max_entries:
        Cache capacity; the least-recently-used entry is evicted beyond it.
        ``0`` disables caching (every lookup is a miss).

    Examples
    --------
    >>> from repro.service import CompiledCircuitCache
    >>> cache = CompiledCircuitCache(max_entries=2)
    >>> cache.get_or_create("a", lambda: "compiled-a")
    'compiled-a'
    >>> cache.get_or_create("a", lambda: "recompiled!")
    'compiled-a'
    >>> cache.hits, cache.misses
    (1, 1)
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be nonnegative")
        self.max_entries = max_entries
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: object) -> Tuple[bool, Optional[object]]:
        """Return ``(found, value)`` and refresh the entry's recency."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return True, self._entries[key]
            self.misses += 1
            return False, None

    def store(self, key: object, value: object) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_create(self, key: object, factory: Callable[[], object]) -> object:
        """Return the cached value for ``key``, creating it with ``factory`` on a miss.

        The factory runs outside the cache lock, so concurrent misses on the
        same key may both compile; the second :meth:`store` wins.  That is a
        deliberate trade: compiles are pure, and holding the lock across a
        compile would serialise the whole worker pool.
        """
        found, value = self.lookup(key)
        if found:
            return value
        value = factory()
        self.store(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """Hit/miss/eviction/size counters as a plain dictionary.

        Surfaced through :attr:`repro.service.api.BatchReport.cache_stats`
        so production cache behaviour (thrash, undersizing) is observable.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "max_entries": self.max_entries,
            }
