"""Optional thread fan-out for embarrassingly parallel point evaluation.

Worker count comes from the HAL_THREADS environment variable: an integer
>= 1, default 1 (fully sequential), capped at os.cpu_count(). Any other
value is a ValidationError. Results are always returned in input order, so
output never depends on scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, TypeVar

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


def map_indexed(fn: Callable[[T], R], items: Iterable[T], inline: bool = False) -> List[R]:
    """Apply fn to each item, possibly on a thread pool, preserving order.

    inline runs every item on the calling thread; HAL_THREADS is checked
    all the same.
    """
    seq = list(items)
    n = worker_count()
    if inline or n <= 1 or len(seq) <= 1:
        return [fn(item) for item in seq]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, seq))
