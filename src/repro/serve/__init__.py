"""Serve: solver-as-a-service ingress over the batched execution stack.

The layers below (verify -> layout -> govern/chunk/pipeline -> heal ->
dispatch, in the order of :mod:`repro.core.stack`) are batch-in,
batch-out.  This package turns them into a request service:
:class:`SolverService` coalesces independent single-system solve requests
into vbatch groups under a deadline-aware :class:`BatchingPolicy`, reuses
factorizations through a pool-charged :class:`FactorCache`, and accounts
for everything in a :class:`ServiceReport`.  See ``docs/SERVING.md`` for
the guided tour.
"""

from .cache import CacheEntry, FactorCache, operand_digest
from .report import ServiceReport
from .service import BatchingPolicy, SolveHandle, SolverService

__all__ = [
    "BatchingPolicy",
    "CacheEntry",
    "FactorCache",
    "ServiceReport",
    "SolveHandle",
    "SolverService",
    "operand_digest",
]
