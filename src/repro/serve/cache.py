"""LRU factorization cache, charged against the device memory pool.

Repeated solves against the same operator are the bread and butter of a
solver service (implicit time steppers re-solve one Jacobian for many
right-hand sides and Newton iterations).  The cache keys each operator by
an :func:`operand_digest` of its band storage and retains the *factored*
matrix plus pivots, so a hit skips ``gbtrf`` entirely and goes straight
to ``gbtrs`` — the amortization the paper's batched drivers cannot see
because they live below the request boundary.

Cached bytes are real device residency: every insertion is charged to the
device :class:`~repro.gpusim.memory.MemoryPool` under the
``"factor-cache"`` label and released on eviction/invalidation, so the
cache competes with in-flight batches for the same HBM budget and a
``REPRO_GLOBAL_MEM_BYTES`` squeeze evicts it exactly like it chunks the
drivers.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.verify import operand_digest as lane_digest
from ..errors import DeviceMemoryError, check_arg
from ..gpusim.device import H100_PCIE, DeviceSpec
from ..gpusim.memory import memory_pool

__all__ = ["operand_digest", "factor_digest", "CacheEntry", "FactorCache"]

#: Pool-ledger label every cache charge is taken under.
CACHE_LABEL = "factor-cache"


def operand_digest(kl: int, ku: int, ab: np.ndarray) -> str:
    """Content digest identifying one band operator.

    Covers the bandwidths, storage shape, dtype and every stored byte of
    ``ab`` (band rows only — the factor-layout fill-in rows count too,
    since the drivers read the full ``ldab`` window).  Two operators
    collide only if they would factor identically.
    """
    ab = np.ascontiguousarray(ab)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{int(kl)}:{int(ku)}:{ab.shape}:{ab.dtype.str}".encode())
    h.update(ab.tobytes())
    return h.hexdigest()


def factor_digest(factors: np.ndarray, pivots: np.ndarray) -> str:
    """Content fingerprint of a cached factorization (blake2b-128).

    Computed over the factors *and* pivots at insertion time and
    re-checked by :meth:`CacheEntry.verify_integrity` before a verified
    service reuses the entry — the staging-boundary digest of
    :mod:`repro.core.verify` applied to the cache's resident payload, so
    silent corruption of a cached factor is caught before it contaminates
    every future hit.
    """
    return lane_digest(factors, pivots)


@dataclass
class CacheEntry:
    """One cached factorization (factors + pivots, read-only by contract)."""

    key: str
    n: int
    kl: int
    ku: int
    factors: np.ndarray
    pivots: np.ndarray
    nbytes: int
    hits: int = 0
    #: Content fingerprint of ``(factors, pivots)`` stamped at insertion.
    digest: str = ""

    def verify_integrity(self) -> bool:
        """True when the resident payload still matches its digest."""
        if not self.digest:
            return True
        return factor_digest(self.factors, self.pivots) == self.digest


@dataclass
class CacheStats:
    """Counter block the service folds into its :class:`ServiceReport`."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0
    #: Entries whose payload failed :func:`factor_digest` re-verification
    #: at reuse time (dropped and refactored by the verified service).
    digest_failures: int = 0


class FactorCache:
    """LRU map ``operand digest -> CacheEntry`` with pool-charged entries.

    ``max_entries``/``max_bytes`` bound the cache itself; ``None`` leaves
    the bound to the device pool (an insertion that the pool rejects
    evicts least-recently-used entries until it fits, and is dropped —
    counted in :attr:`CacheStats.rejected` — when even an empty cache
    cannot hold it).  ``max_entries=0`` disables caching entirely: every
    lookup misses and every insertion is rejected, which is the honest
    baseline configuration for the serving benchmark.
    """

    def __init__(self, *, max_entries: int | None = None,
                 max_bytes: int | None = None,
                 device: DeviceSpec = H100_PCIE):
        check_arg(max_entries is None or max_entries >= 0, 1,
                  f"max_entries must be >= 0, got {max_entries}")
        check_arg(max_bytes is None or max_bytes >= 0, 2,
                  f"max_bytes must be >= 0, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.device = device
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def enabled(self) -> bool:
        return self.max_entries != 0

    @property
    def nbytes(self) -> int:
        """Bytes currently charged against the device pool."""
        return sum(e.nbytes for e in self._entries.values())

    def keys(self):
        """Digests resident right now, least-recently-used first."""
        return list(self._entries)

    # -- the LRU protocol -------------------------------------------------

    def lookup(self, key: str) -> CacheEntry | None:
        """Return the entry for ``key`` (refreshing recency) or ``None``.

        Counts exactly one hit or miss — the service calls this once per
        request at dispatch time.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.stats.hits += 1
        return entry

    def insert(self, key: str, n: int, kl: int, ku: int,
               factors: np.ndarray, pivots: np.ndarray) -> bool:
        """Cache a factorization; returns True when it was retained.

        The entry's bytes are charged to the device pool first; under
        memory pressure LRU entries are evicted until the charge fits.
        ``factors``/``pivots`` must not be mutated afterwards (the service
        hands the drivers read-only views).
        """
        if not self.enabled or key in self._entries:
            if not self.enabled:
                self.stats.rejected += 1
            return False
        nbytes = int(factors.nbytes) + int(pivots.nbytes)
        if self.max_bytes is not None:
            while self._entries and self.nbytes + nbytes > self.max_bytes:
                self._evict_lru()
            if nbytes > self.max_bytes:
                self.stats.rejected += 1
                return False
        if self.max_entries is not None:
            while len(self._entries) >= self.max_entries:
                self._evict_lru()
        pool = memory_pool(self.device)
        while True:
            try:
                pool.alloc(nbytes, label=CACHE_LABEL)
                break
            except DeviceMemoryError:
                if not self._entries:
                    self.stats.rejected += 1
                    return False
                self._evict_lru()
        factors = factors.copy()
        factors.setflags(write=False)
        pivots = pivots.copy()
        pivots.setflags(write=False)
        self._entries[key] = CacheEntry(key, int(n), int(kl), int(ku),
                                        factors, pivots, nbytes,
                                        digest=factor_digest(factors,
                                                             pivots))
        self.stats.insertions += 1
        return True

    def _evict_lru(self) -> None:
        key, entry = next(iter(self._entries.items()))
        self._drop(key, entry)
        self.stats.evictions += 1

    def _drop(self, key: str, entry: CacheEntry) -> None:
        del self._entries[key]
        memory_pool(self.device).free(entry.nbytes, label=CACHE_LABEL)

    def ensure_headroom(self, nbytes: int) -> int:
        """Evict LRU entries until the device pool could admit ``nbytes``.

        The cache must never starve in-flight work: before a dispatch the
        service asks for the flush's footprint, and cached factorizations
        yield (least-recently-used first) until the pool has room — or
        the cache is empty and the drivers' own admission control takes
        over.  Returns the number of entries evicted.  A request whose
        factors are evicted mid-flight keeps its host reference; only the
        modeled residency is released.
        """
        evicted = 0
        pool = memory_pool(self.device)
        while self._entries and pool.available < nbytes:
            self._evict_lru()
            evicted += 1
        return evicted

    def invalidate(self, key: str | None = None) -> int:
        """Drop one digest (or everything); returns entries dropped.

        This is the explicit-invalidation hook: call it when an operator's
        coefficients changed under a reused storage buffer, or on a
        deployment boundary.  Dropping an absent digest is a no-op.
        """
        if key is not None:
            entry = self._entries.get(key)
            if entry is None:
                return 0
            self._drop(key, entry)
            self.stats.invalidations += 1
            return 1
        dropped = len(self._entries)
        for k, entry in list(self._entries.items()):
            self._drop(k, entry)
        self.stats.invalidations += dropped
        return dropped

    def close(self) -> None:
        """Release every pool charge (idempotent; counts no invalidation)."""
        for k, entry in list(self._entries.items()):
            self._drop(k, entry)

    def __repr__(self) -> str:
        return (f"FactorCache({len(self)} entries, {self.nbytes} bytes, "
                f"hits={self.stats.hits} misses={self.stats.misses} "
                f"evictions={self.stats.evictions})")
