"""One CLI invocation in a fresh interpreter, timed from inside.

    python3 child.py SRC_DIR RESULT_JSON TRACE -- CLI_ARGS...

Imports portrisk.cli from SRC_DIR (and nowhere else), optionally wraps
its layers in spans, runs ``portrisk.cli.main(CLI_ARGS)`` and writes the
timings, resource usage and span summary to RESULT_JSON.  The parent
spawns this script; ``imported_at`` is on the same monotonic clock as its
spawn time, so their difference is the interpreter plus import cost.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src, result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR RESULT_JSON TRACE -- CLI_ARGS...")
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import portrisk.cli

    imported_at = time.monotonic()
    if src not in Path(portrisk.cli.__file__).resolve().parents:
        raise SystemExit(f"portrisk was imported from {portrisk.cli.__file__}, not {src}")

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.wrap(portrisk.cli, "main", "cli.main")

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    code = portrisk.cli.main(argv)
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    def cpu(a, b):
        return (b.ru_utime - a.ru_utime) + (b.ru_stime - a.ru_stime)

    result = {
        "exit_code": code,
        "imported_at": imported_at,
        "wall_s": wall,
        "cpu_s": cpu(self0, self1) + cpu(kids0, kids1),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
