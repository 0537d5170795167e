import operator
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
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
    # the workers claim indices from a counter and each item writes its own
    # slot of the caller's array: no copy of the items, no result list and
    # no future per item (a pool.map over every item held about 1.6 kB per
    # item on two threads)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HAL_THREADS", "2")
    count = 20_000
    out = np.zeros(count, dtype=bool)

    def fn(i):
        out[i] = operator.not_(i)

    map_indexed(int, range(4))  # warm the thread machinery outside the trace
    tracemalloc.start()
    try:
        returned = map_indexed(fn, range(count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert returned is None
    assert out.tolist() == [True] + [False] * (count - 1)
    assert peak <= 64 * count, peak / count


def test_threaded_map_keeps_order_and_claims_every_index_once(monkeypatch):
    # more workers than cores and a short switch interval, so that claims
    # interleave; a lost or repeated claim breaks the invariant
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("HAL_THREADS", "8")
    count, claimed, out = 20_000, [], []
    results = [None] * count

    def fn(i):
        claimed.append(i)
        results[i] = -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.append(map_indexed(fn, range(count))))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert out == [None]
    assert results == [-i for i in range(count)]
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


def test_no_command_imports_concurrent_futures(tmp_path):
    # the runner starts plain threads; concurrent.futures cost most of
    # hal._parallel's import time
    (tmp_path / "grid.txt").write_text("t = 0.1, 0.2, 0.3\n")
    code = (
        "import contextlib, io, sys, hal.cli\n"
        "loaded = ['concurrent.futures' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    loaded.append(hal.cli.main(['sweep', '--grid', 'grid.txt']))\n"
        "loaded.append('concurrent.futures' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "HAL_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.split() == ["[False,", "0,", "False]"]
