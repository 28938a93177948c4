"""Streaming truth discovery: incremental CRH and the serving layer.

Two consumption styles share one layered stack (Section 2.6 /
Algorithm 2):

* batch-over-stream — :func:`icrh` chunks a timestamped dataset by
  time window and runs :class:`IncrementalCRH` chunk by chunk;
* long-lived serving — :class:`TruthService` ingests claims one at a
  time (:class:`Claim`), seals windows as they complete, serves warm
  truths/weights, and snapshots/restores its full state.  One writer
  thread ingests while any number of reader threads call the lock-free,
  snapshot-isolated :meth:`TruthService.read_truth`
  (``docs/ARCHITECTURE.md``, "Concurrent reads").

The layers underneath: :class:`ClaimStore` (appendable claim index +
dirty set), :class:`IncrementalCRH` (the Algorithm-2 accumulators,
weights and history), :class:`~repro.streaming.state.TruthCache`
(versioned truth cache) and :class:`RecomputePlanner` (dirty-set
re-resolution through the shared segment kernels).
"""

from .icrh import ICRHConfig, ICRHResult, IncrementalCRH, icrh
from .planner import RecomputePlanner
from .service import (
    IngestReport,
    TruthService,
    TruthSnapshot,
    as_claim,
    iter_dataset_claims,
)
from .state import TruthCache
from .store import Claim, ClaimStore, GrowableArray
from .windows import StreamChunk, chunk_by_window, n_chunks

__all__ = [
    "Claim",
    "ClaimStore",
    "GrowableArray",
    "ICRHConfig",
    "ICRHResult",
    "IncrementalCRH",
    "IngestReport",
    "RecomputePlanner",
    "StreamChunk",
    "TruthCache",
    "TruthService",
    "TruthSnapshot",
    "as_claim",
    "chunk_by_window",
    "icrh",
    "iter_dataset_claims",
    "n_chunks",
]
