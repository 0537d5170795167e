"""Optional thread fan-out for embarrassingly parallel point evaluation.

Worker count comes from the HAL_THREADS environment variable: an integer
>= 1, default 1 (fully sequential), capped at os.cpu_count(). Any other
value is a ValidationError. The runner returns nothing: each item writes
its own slot of an array its caller allocated, so output never depends on
scheduling.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Sequence, TypeVar

from .errors import ValidationError

T = TypeVar("T")


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


def map_indexed(fn: Callable[[T], object], items: Sequence[T], inline: bool = False) -> None:
    """Call fn on each item, possibly on worker threads; fn's results are dropped.

    inline runs every item on the calling thread; HAL_THREADS is checked
    all the same. Otherwise min(HAL_THREADS, len(items)) plain threads each
    loop claiming the next index under a lock, so the runner holds nothing
    per item. The first exception stops every claim after it and is
    re-raised once the threads have been joined.
    """
    n = min(worker_count(), len(items))
    if inline or n <= 1:
        for item in items:
            fn(item)
        return
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
                fn(items[i])
            except BaseException as exc:
                with lock:
                    failures.append(exc)
                return

    workers = [threading.Thread(target=work) for _ in range(n)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if failures:
        raise failures[0]
