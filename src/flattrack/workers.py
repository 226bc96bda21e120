"""Worker pool for per-sample fan-out, capped by FLATTRACK_THREADS.

The CLI's render-dataset, simulate and reconstruct fan out through it, and
so do the loads of train, eval and both compare-lensed arms: each frame is
read as it is consumed, in order, with at most IN_FLIGHT frames alive at
once. Training runs on the calling thread.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

from .errors import ConfigError

# Results alive at once, the consumer's included: enough reads ahead to keep
# a few workers busy, few enough that the frames in flight stay a few MB.
IN_FLIGHT = 8


def worker_count() -> int:
    """Parallelism cap from FLATTRACK_THREADS (default 1 = sequential)."""
    raw = os.environ.get("FLATTRACK_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"FLATTRACK_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError(f"FLATTRACK_THREADS must be >= 1, got {n}")
    return n


def imap(fn, items):
    """Lazy order-preserving map, fanned out over FLATTRACK_THREADS workers.

    At most IN_FLIGHT results are alive at once, counting the one the
    consumer holds: an item is submitted only when the consumer asks for a
    result. An error in ``fn`` propagates to the consumer; the pool stops,
    its queued items cancelled, when the map ends, fails or is closed.
    """
    items = list(items)
    w = worker_count()
    if w <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    it = iter(items)
    ex = ThreadPoolExecutor(max_workers=w)
    try:
        pending = deque(ex.submit(fn, x) for x in islice(it, IN_FLIGHT - 1))
        while pending:
            result = pending.popleft().result()
            yield result
            pending.extend(ex.submit(fn, x) for x in islice(it, 1))
    finally:
        ex.shutdown(cancel_futures=True)


def parallel_map(fn, items):
    """Order-preserving map, fanned out over FLATTRACK_THREADS workers."""
    return list(imap(fn, items))
