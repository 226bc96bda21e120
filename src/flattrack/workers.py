"""Per-item fan-out over forked worker processes, capped by FLATTRACK_THREADS.

render-dataset, simulate, reconstruct, train's per-subject fine-tunes and
compare-lensed's two arms run through parallel_map; everything else, the
loads of train and eval included, runs on the calling process. Workers are
forked, so they read ``fn``, its closure and the data it reaches (a plane
pool of many MB) copy-on-write, and run Python side by side, which threads
under the interpreter lock do not. Only their results are copied back.

fork is POSIX-only, and so is this module. There is no spawn path: a spawned
worker starts from a fresh import, so ``fn`` and its state would have to be
pickled to it, which closures cannot be and the plane pool should not be.
fork is unsafe while another thread runs (its locks are copied held), so
parallel_map then refuses to fan out.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import threading

from .errors import ConfigError, FlatTrackError

# Chunks per worker: enough that a worker that finishes early takes more,
# few enough that each chunk's message costs little against its work.
CHUNKS_PER_WORKER = 8
# The task pipe is written in full before any worker starts, in one write
# of at most PIPE_BUF bytes, which is atomic and fits any pipe's buffer.
_OFFSET = struct.Struct("<I")
_MAX_CHUNKS = 4096 // _OFFSET.size

# True in a worker: a parallel_map there runs on the worker itself, so the
# processes of one command never exceed FLATTRACK_THREADS.
_in_worker = False


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


def parallel_map(fn, items) -> list:
    """``[fn(x) for x in items]``, fanned out over min(FLATTRACK_THREADS,
    len(items)) forked workers.

    Each worker takes the next chunk of items from a shared task pipe when
    it has sent the results of its last one, so a fast worker takes more.
    Results come back in item order. An error raised by ``fn`` reaches the
    caller with its type and message; a worker killed by a signal raises
    FlatTrackError naming the signal. Either way the other workers are
    killed, and no worker outlives the call.
    """
    items = list(items)
    n = min(worker_count(), len(items))
    if n <= 1 or _in_worker:
        return [fn(x) for x in items]
    if threading.active_count() > 1:
        raise FlatTrackError(
            f"refusing to fork {n} workers while {threading.active_count() - 1} "
            f"other threads run; set FLATTRACK_THREADS=1")
    chunk = -(-len(items) // min(n * CHUNKS_PER_WORKER, _MAX_CHUNKS))
    starts = range(0, len(items), chunk)
    tasks_r, tasks_w = os.pipe()
    os.write(tasks_w, b"".join(_OFFSET.pack(s) for s in starts))
    os.close(tasks_w)
    workers = {}  # result stream -> pid, until the worker is reaped
    streams = []
    try:
        for _ in range(n):
            r, w = os.pipe()
            streams.append(open(r, "rb"))
            pid = os.fork()
            if pid == 0:
                _work(fn, items, chunk, tasks_r, w)
            os.close(w)
            workers[streams[-1]] = pid
        results = _gather(workers)
        return [y for s in starts for y in results[s]]
    finally:
        os.close(tasks_r)
        for pid in workers.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        for f in streams:
            f.close()


def _work(fn, items, chunk, tasks_r, w):
    """A worker's whole life: map ``fn`` over the chunks it takes from
    ``tasks_r`` and send each chunk's results, or the first error, to
    ``w``. It exits without returning into the caller's stack."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        with open(w, "wb") as out:
            while task := os.read(tasks_r, _OFFSET.size):
                (start,) = _OFFSET.unpack(task)
                try:
                    msg = start, [fn(x) for x in items[start:start + chunk]], None
                except BaseException as e:  # sent to the parent, which raises it
                    msg = start, None, e
                pickle.dump(msg, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                if msg[2] is not None:
                    break
        code = 0
    finally:
        os._exit(code)


def _gather(workers) -> dict:
    """{chunk offset: results}, read from each worker's result stream as its
    messages arrive. A worker is reaped, and dropped from ``workers``, when
    its stream ends; the first error a worker sends, or a worker that did
    not exit cleanly, raises."""
    by_fd = {f.fileno(): f for f in workers}
    poller = select.poll()
    for fd in by_fd:
        poller.register(fd, select.POLLIN)
    results = {}
    while workers:
        for fd, _ in poller.poll():
            try:
                start, out, err = pickle.load(by_fd[fd])
            except (EOFError, pickle.UnpicklingError):  # the stream ended
                poller.unregister(fd)
                _reap(workers.pop(by_fd[fd]))
                continue
            if err is not None:
                raise err
            results[start] = out
    return results


def _reap(pid) -> None:
    """Wait for worker ``pid``, whose stream has ended; raise if it did not
    exit cleanly."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise FlatTrackError(
            f"worker process {pid} was killed by {signal.Signals(-code).name}")
    if code:
        raise FlatTrackError(f"worker process {pid} exited with code {code}")
