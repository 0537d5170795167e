import os

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
