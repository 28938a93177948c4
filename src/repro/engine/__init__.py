"""Execution-backend layer: dense, sparse, multiprocess and out-of-core
claim storage.

See :mod:`repro.engine.backend` for the protocol and the dense/sparse
backends, :mod:`repro.engine.sharded` for the range-partitioned runner
core, and its two executors: :mod:`repro.engine.process`, the
shared-memory multiprocessing backend, and :mod:`repro.engine.mmap`,
the out-of-core chunked backend; all three CRH engines (solver,
MapReduce, streaming) resolve their input through :func:`make_backend`.
"""

from .backend import (
    BACKEND_NAMES,
    BackendExecutionError,
    DenseBackend,
    ExecutionBackend,
    SparseBackend,
    get_default_backend,
    make_backend,
    set_default_backend,
    use_default_backend,
)
from .mmap import (
    CHUNK_LOSSES,
    MmapBackend,
    MmapBackendError,
    available_memory_bytes,
    get_memory_cap,
    resolved_memory_cap,
    set_memory_cap,
    use_memory_cap,
)
from .process import (
    PROCESS_AUTO_CLAIM_THRESHOLD,
    ProcessBackend,
    ProcessBackendError,
    available_workers,
    get_default_workers,
    set_default_workers,
)
from .sharded import RUNNER_LOSSES

__all__ = [
    "BACKEND_NAMES",
    "BackendExecutionError",
    "CHUNK_LOSSES",
    "DenseBackend",
    "ExecutionBackend",
    "MmapBackend",
    "MmapBackendError",
    "PROCESS_AUTO_CLAIM_THRESHOLD",
    "ProcessBackend",
    "ProcessBackendError",
    "RUNNER_LOSSES",
    "SparseBackend",
    "available_memory_bytes",
    "available_workers",
    "get_default_backend",
    "get_default_workers",
    "get_memory_cap",
    "make_backend",
    "resolved_memory_cap",
    "set_default_backend",
    "set_default_workers",
    "set_memory_cap",
    "use_default_backend",
    "use_memory_cap",
]
