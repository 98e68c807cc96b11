"""Timed phase of one benchmark run, in its own fresh process.

Usage: ``python3 worker.py SPEC.json`` where the spec (written by run.py)
lists the argument list of each CLI operation, the seconds to measure,
whether to trace, and where to write the result.  Operations run one after another, in list
order and round again, through ``ornatag.cli.main(argv)`` until the time
is up; the operation in flight then completes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import ornatag.cli as cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    ops = spec["ops"]
    records = []
    n = 0
    begin = time.perf_counter()
    while True:
        argv = [arg.replace("{n}", str(n)) for arg in ops[n % len(ops)]]
        stdout = io.StringIO()
        stderr = io.StringIO()
        if tracer is not None:
            tracer.op = n
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as err:  # main itself broke: a failed operation
                print(f"{type(err).__name__}: {err}", file=stderr)
                code = -1
        elapsed = time.perf_counter() - t0
        records.append({
            "op": n % len(ops), "n": n, "seconds": elapsed, "code": code,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue() if code != 0 else ""})
        n += 1
        if time.perf_counter() - begin >= spec["seconds"]:
            break
    wall = time.perf_counter() - begin
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"records": records, "wall_s": wall, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spec["trace_out"], spec["trace_header"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
