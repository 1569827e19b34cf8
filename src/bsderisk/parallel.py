"""Independent units of work in forked processes, results in item order.

`in_processes(fn, items)` returns `[fn(x) for x in items]`.  It forks one
worker per usable CPU, at most one per item.  Each worker receives `fn`
and `items` as its fork-time copy of the caller's memory, so it reads the
context and paths copy-on-write; only item indices are pickled in and only
results are pickled back.  Each result is computed by the same code on the
same inputs as in the serial loop, so the output does not depend on the
worker count.  The call runs serially where one CPU is usable, where the
platform cannot fork, inside a daemonic process, which may not have
children, and while another Python thread runs: a fork copies no thread,
and a lock that one holds would stay held in the child.  The workers are
joined before the call returns, so none outlives it: while they run, a
SIGTERM to the main thread raises SystemExit(143), which terminates them.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
from typing import Callable, Iterable

__all__ = ["in_processes"]

_work = None  # in a worker: the (fn, items) of the call that forked it


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux only
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _receive(fn: Callable, items: list) -> None:
    global _work
    _work = (fn, items)


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def _run(i: int):
    fn, items = _work
    try:
        return fn(items[i])
    except Exception as exc:
        # the pool's result thread stalls on an exception that its pickle
        # cannot rebuild; such a one travels as a RuntimeError that names it
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError(f"{type(exc).__name__}: {exc}") from None
        raise


def in_processes(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], in item order, computed in forked processes."""
    items = list(items)
    workers = min(_usable_cpus(), len(items))
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        return [fn(x) for x in items]
    # a forked worker gets its initializer's arguments without a pickle,
    # so fn may be a closure over the context
    pool = multiprocessing.get_context("fork").Pool(workers, _receive, (fn, items))
    # installed after the fork, so the workers keep the default action
    main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _stop) if main else None
    try:
        out = pool.map(_run, range(len(items)), chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        pool.join()
    return out
