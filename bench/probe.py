"""Host-speed probe: times a fixed spin loop on one CPU at a fixed period.

    python probe.py CPU OUT

Pins itself to CPU, then until its standard input closes, spins a fixed
pure-Python loop (about 1 ms), records (monotonic start, seconds it took) and
sleeps PERIOD_S. When standard input closes it writes the records to OUT as
JSON and exits. run.py starts one per CPU a hal command may use, so the
spin's duration tracks the speed the shared host gives that CPU while the
command runs there; the probe itself takes about 2% of the CPU.
"""

import json
import os
import select
import sys
import time

SPIN = 5_000
PERIOD_S = 0.05


def main():
    cpu, out = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    records = []
    stdin = sys.stdin.fileno()
    while True:
        start = time.monotonic()
        t0 = time.perf_counter()
        acc = 0
        for i in range(SPIN):
            acc += i * i % 7
        records.append((start, time.perf_counter() - t0))
        if select.select([stdin], [], [], PERIOD_S)[0] and not os.read(stdin, 4096):
            break
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh)


if __name__ == "__main__":
    main()
