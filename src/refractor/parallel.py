"""Fixed-size chunks of per-node work, run in order on one thread.

Work over n nodes is split at fixed boundaries and the per-chunk results are
returned in chunk order, so memory per chunk stays bounded and outputs are
bitwise identical from run to run.
"""

from __future__ import annotations

CHUNK = 65536


def worker_count() -> int:
    """Always 1: chunks run in order on the calling thread. Kept only because
    benchmark/tracing.py reports it, as it still wraps
    solver.estimate_lipschitz and copies MonotoneOracleSpec.limits."""
    return 1


def chunk_slices(n: int):
    return [slice(s, min(s + CHUNK, n)) for s in range(0, n, CHUNK)]


def map_chunks(fn, n: int) -> list:
    """Apply fn(slice) to fixed chunks of range(n); results in chunk order."""
    return [fn(s) for s in chunk_slices(n)]
