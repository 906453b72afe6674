"""Pluggable execution backends for the PRAM simulator (docs/backends.md).

``SerialBackend`` runs every kernel in-process (today's path, extracted
behind the :class:`ExecutionBackend` interface); ``ShardedBackend`` runs
dense relaxation rounds on a pool of shared-memory worker processes with
one deterministic fixed-shard-order min-combine.  Both are bit-exact
and charge-identical — only wall-clock differs.  Select per machine with
``PRAM(backend=...)`` or globally with ``REPRO_BACKEND=serial|sharded[:W]``.
"""

from repro.pram.backends.base import (
    ExecutionBackend,
    SerialBackend,
    backend_default,
    parse_backend_spec,
    resolve_backend,
    serial_gather_csr,
    serial_segmin_batch,
)
from repro.pram.backends.sharded import ShardedBackend, shard_bounds, shard_min_combine

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ShardedBackend",
    "backend_default",
    "parse_backend_spec",
    "resolve_backend",
    "serial_gather_csr",
    "serial_segmin_batch",
    "shard_bounds",
    "shard_min_combine",
]
