"""Optional thread fan-out for embarrassingly parallel point evaluation.

Worker count comes from the HAL_THREADS environment variable: an integer
>= 1, default 1 (fully sequential), capped at os.cpu_count(). Any other
value is a ValidationError. Results are always returned in input order, so
output never depends on scheduling.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, TypeVar

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Threads to use: HAL_THREADS, checked and capped at the CPU count."""
    raw = os.environ.get("HAL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValidationError(f"HAL_THREADS must be an integer >= 1, got {raw!r}")
    return min(n, os.cpu_count() or 1)


def map_indexed(fn: Callable[[T], R], items: Sequence[T], inline: bool = False) -> List[R]:
    """Apply fn to each item, possibly on a thread pool, preserving order.

    inline runs every item on the calling thread; HAL_THREADS is checked
    all the same. Otherwise min(HAL_THREADS, len(items)) workers each loop
    claiming the next index under a lock and storing fn's result in its
    slot of one preallocated list, so the runner holds one pointer per item
    (about 8 B) and no per-item future. The first exception stops every
    claim after it and is re-raised once the workers have finished.
    """
    n = min(worker_count(), len(items))
    if inline or n <= 1:
        return [fn(item) for item in items]
    results: List[R] = [None] * len(items)
    claims = iter(range(len(items)))
    failures: List[BaseException] = []
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if failures else next(claims, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    failures.append(exc)
                return

    with ThreadPoolExecutor(max_workers=n) as pool:
        workers = [pool.submit(work) for _ in range(n)]
    for worker in workers:
        worker.result()  # work itself raises nothing; fn's errors are in failures
    if failures:
        raise failures[0]
    return results
