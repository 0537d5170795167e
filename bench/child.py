"""One fresh hal process, as a user runs it.

    python child.py RESULT SRC TRACE -- [hal arguments]

Imports `hal.cli` (resolved through PYTHONPATH), refuses to run unless it
came from SRC, runs `hal.cli.main(arguments)` and writes RESULT, a JSON
object with the monotonic clock reading once `hal.cli` is imported and once
`main` returns, the exit code, `ru_maxrss` and the versions in use. With
TRACE other than "-", the hal package is wrapped by tracer.install() after
the import is timed, and the spans are written to TRACE after `main`
returns. With no hal arguments only the import is made.

Exits with the code `main` returned, or 70 when hal resolves outside SRC.
"""

import json
import os
import resource
import sys
import time

WRONG_HAL = 70


def main():
    result_path, src, trace_path, sep = sys.argv[1:5]
    if sep != "--":
        sys.exit("usage: child.py RESULT SRC TRACE -- [hal arguments]")
    hal_argv = sys.argv[5:]

    import hal.cli

    t_imported = time.monotonic()
    hal_file = os.path.realpath(hal.__file__)
    if os.path.dirname(hal_file) != os.path.join(os.path.realpath(src), "hal"):
        sys.stderr.write(f"hal resolved to {hal_file}, not under {src}\n")
        sys.exit(WRONG_HAL)

    recorder = None
    if trace_path != "-":
        import tracer

        recorder, caches = tracer.install()

    rc = 0
    if hal_argv:
        try:
            rc = hal.cli.main(hal_argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    t_done = time.monotonic()

    if recorder is not None:
        recorder.dump(trace_path, caches())

    import numpy
    import scipy

    doc = {
        "t_imported": t_imported,
        "t_done": t_done,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "hal_file": hal_file,
        "hal_version": hal.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
