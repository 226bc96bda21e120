"""Worker pool for per-sample fan-out, capped by FLATTRACK_THREADS.

The CLI's render-dataset, simulate and reconstruct (also inside
compare-lensed) fan out through it; training runs on the calling thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def worker_count() -> int:
    """Parallelism cap from FLATTRACK_THREADS (default 1 = sequential)."""
    raw = os.environ.get("FLATTRACK_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"FLATTRACK_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def parallel_map(fn, items):
    """Order-preserving map, fanned out over FLATTRACK_THREADS workers."""
    items = list(items)
    w = worker_count()
    if w <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=w) as ex:
        return list(ex.map(fn, items))
