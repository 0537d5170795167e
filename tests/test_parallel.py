import operator
import os
import sys
import threading
import time
import tracemalloc

import pytest

from hal._parallel import map_indexed, worker_count
from hal.cli import main
from hal.errors import ValidationError


def test_worker_count_default_and_cap(monkeypatch):
    monkeypatch.delenv("HAL_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for raw, expected in (("1", 1), ("3", 3), ("4", 4), ("5", 4), (str(10**9), 4)):
        monkeypatch.setenv("HAL_THREADS", raw)
        assert worker_count() == expected
    # an unknown CPU count runs sequentially
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


@pytest.mark.parametrize("raw", ["0", "-2", "1.5", "two", "", "1e3"])
def test_worker_count_rejects_non_positive_integers(monkeypatch, raw):
    monkeypatch.setenv("HAL_THREADS", raw)
    with pytest.raises(ValidationError, match="HAL_THREADS"):
        worker_count()
    with pytest.raises(ValidationError):
        map_indexed(abs, [1, -2])


def test_bad_hal_threads_exits_2(monkeypatch, tmp_path, capsys):
    grid = tmp_path / "g.txt"
    grid.write_text("t = 0.1,0.2\n")
    monkeypatch.setenv("HAL_THREADS", "many")
    assert main(["sweep", "--grid", str(grid)]) == 2
    assert "HAL_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("HAL_THREADS", "2")
    assert main(["sweep", "--grid", str(grid)]) == 0


def test_threaded_map_holds_one_slot_per_item(monkeypatch):
    # the workers claim indices from a counter and fill one preallocated
    # list: no copy of the items and no future per item (a pool.map over
    # every item held about 1.6 kB per item on two threads)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HAL_THREADS", "2")
    count = 20_000
    map_indexed(int, range(4))  # warm the pool machinery outside the trace
    tracemalloc.start()
    try:
        results = map_indexed(operator.not_, range(count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results == [True] + [False] * (count - 1)
    assert peak <= 64 * count, peak / count


def test_threaded_map_keeps_order_and_claims_every_index_once(monkeypatch):
    # more workers than cores and a short switch interval, so that claims
    # interleave; a lost or repeated claim breaks the invariant
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("HAL_THREADS", "8")
    count, claimed, out = 20_000, [], []

    def fn(i):
        claimed.append(i)
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.append(map_indexed(fn, range(count))))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert out == [[-i for i in range(count)]]
    assert sorted(claimed) == list(range(count))


def test_threaded_map_stops_at_the_first_error(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HAL_THREADS", "2")
    claimed = []

    def fn(i):
        claimed.append(i)
        if i == 3:
            raise KeyError(i)
        time.sleep(0.001)

    with pytest.raises(KeyError, match="3"):
        map_indexed(fn, range(1000))
    # claims run in index order and end soon after the failing item
    assert sorted(claimed) == list(range(len(claimed))) and len(claimed) < 10
