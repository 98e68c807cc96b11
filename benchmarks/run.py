"""ornatag benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

Set-up builds every input from ``--seed`` (see workloads.py), then times
``import ornatag.cli`` in fresh processes (``setup_s``).  The timed phase
runs in one fresh single-threaded worker process (worker.py) that calls
``ornatag.cli.main(argv)`` with the arguments a user would type.  Every
operation's output is then checked (checks.py).  With ``--trace 1`` a
second worker wraps the package's public functions (tracing.py) and the
per-layer metrics are printed instead of the end-to-end ones.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set before numpy is imported here, and inherited by every worker
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse
import importlib.metadata
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_SAMPLES = 15
WORKER_GRACE_S = 60

IMPORT_PROBE = ("import time; t = time.perf_counter(); import ornatag.cli; "
                "print(time.perf_counter() - t)")

def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# statistics of one function's spans, by the last part of a per-layer
# metric name such as "tagger.emission_matrix.calls_per_melody"
SPAN_STATS = {
    "self_us_per_token": lambda fn, work: ratio(fn["self_ns"] / 1e3, work["tokens"]),
    "self_ms_per_op": lambda fn, work: ratio(fn["self_ns"] / 1e6, work["ops"]),
    "calls_per_token": lambda fn, work: ratio(fn["calls"], work["tokens"]),
    "calls_per_melody": lambda fn, work: ratio(fn["calls"], work["melodies"]),
    "calls_per_epoch": lambda fn, work: ratio(fn["calls"], work["epochs"]),
    "ms": lambda fn, work: ratio(fn["total_ns"] / 1e6, fn["calls"]),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="train, eval-rules, tag-stream or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase; run_seconds by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_sha() -> str:
    """HEAD of the repository when run from a git clone, else 'unknown'."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "git_sha": git_sha(), "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_per_worker": 1,
    }


def measure_setup() -> float:
    """Median time of ``import ornatag.cli``, each in a fresh process."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def run_worker(workload, work: Path, seconds: float, trace: bool,
               header: dict) -> dict:
    tag = "traced" if trace else "plain"
    spec = {
        "ops": [op.argv for op in workload.ops],
        "seconds": seconds, "trace": trace,
        "result": str(work / f"result-{tag}.json"),
        "trace_out": str(OUT / f"trace-{workload.name}-{header['seed']}.jsonl"),
        "trace_header": {**header, "workload": workload.name},
    }
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                   env=child_env(), stdout=subprocess.DEVNULL,
                   timeout=seconds + WORKER_GRACE_S, check=True)
    with open(spec["result"], encoding="utf-8") as handle:
        return json.load(handle)


def tail_percentile(samples: int) -> int:
    """95, or the highest percentile with ten samples beyond it; at least 50.

    A run of few long calls (train, eval-rules) has no tail to measure: its
    slowest call is noise, so it reports the median instead.
    """
    return int(max(50, min(95, 100 * (1 - 10 / samples))))


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def work_done(workload, result: dict, failed: dict) -> dict:
    """Tokens, melodies, operations and epochs of the operations that passed."""
    work = {"tokens": 0, "melodies": 0, "ops": 0}
    for rec in result["records"]:
        if rec["n"] not in failed:
            op = workload.ops[rec["op"]]
            work["tokens"] += op.tokens
            work["melodies"] += op.melodies
            work["ops"] += 1
    work["epochs"] = work["ops"] * workload.epochs
    return work


def end_to_end(entries: list, workload, result: dict, score,
               setup_s: float) -> dict:
    records = result["records"]
    wall = result["wall_s"]
    # a failed operation misses every latency limit: it counts as the whole run
    latencies = [1000 * (wall if rec["n"] in score.failed else rec["seconds"])
                 for rec in records]
    work = work_done(workload, result, score.failed)
    values = {
        "setup_s": setup_s,
        "tokens_per_s": work["tokens"] * max(workload.epochs, 1) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": _percentile(latencies,
                                      tail_percentile(len(latencies))),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ok_share": work["ops"] / len(records),
        "token_accuracy": score.accuracy or 0.0,
        "rule_satisfaction": score.satisfaction or 0.0,
    }
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
            for e in entries}


def per_layer(entries: list, workload, traced: dict, traced_failed: dict,
              plain: dict) -> tuple[dict, list]:
    """Per-layer metrics from the traced run; names no longer found are absent."""
    functions = traced["trace"]["functions"]
    work = work_done(workload, traced, traced_failed)
    traced_ns = 1e9 * sum(rec["seconds"] for rec in traced["records"])
    # both workers run the same operations in the same order, so compare
    # the time each took over the operations both completed
    common = min(len(plain["records"]), len(traced["records"]))
    plain_s = sum(rec["seconds"] for rec in plain["records"][:common])
    traced_s = sum(rec["seconds"] for rec in traced["records"][:common])
    derived = {"trace.overhead_share": 1 - ratio(plain_s, traced_s)}
    if "rules.collect_firings" in functions:
        firings, rule_positions, positions = traced["trace"]["firings"]
        derived["rules.firings_per_token"] = ratio(firings, positions)
        derived["rules.fire_rate"] = ratio(firings, rule_positions)
    for layer in LAYERS:
        derived[f"{layer}.share"] = ratio(
            sum(fn["self_ns"] for name, fn in functions.items()
                if name.split(".")[0] == layer), traced_ns)

    metrics = {}
    absent = []
    for entry in entries:
        name = entry["name"]
        function, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif function in functions and stat in SPAN_STATS:
            value = SPAN_STATS[stat](functions[function], work)
        else:
            absent.append(name)
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bench: dict) -> dict:
    import workloads
    from checks import check
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    phases = {}
    clock = time.perf_counter()

    def phase(label: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[label] = round(phases.get(label, 0.0) + now - clock, 3)
        clock = now

    try:
        workload = workloads.build(name, seed, work)
        phase("inputs")
        setup_s = measure_setup()
        phase("setup_s")
        header = provenance(seed)
        plain = run_worker(workload, work, seconds, False, header)
        phase("timed")
        score = check(workload, plain["records"], work)
        phase("checks")
        runs = [(plain, score)]
        if not trace:
            metrics = end_to_end(bench["end_to_end"], workload, plain, score,
                                 setup_s)
            absent = []
        else:
            traced = run_worker(workload, work, seconds, True, header)
            phase("traced")
            traced_score = check(workload, traced["records"], work)
            phase("checks")
            runs.append((traced, traced_score))
            metrics, absent = per_layer(bench["per_layer"], workload, traced,
                                        traced_score.failed, plain)
        failed = sum(len(sc.failed) for _, sc in runs)
        return {"workload": name, "provenance": header, "phases_s": phases,
                "tail_percentile": tail_percentile(len(plain["records"])),
                "correct": failed == 0,
                "attempted": sum(len(res["records"]) for res, _ in runs),
                "failed": failed, "metrics": metrics, "absent": absent,
                "brute_checked": sum(sc.brute_checked for _, sc in runs),
                "failures": [why for _, sc in runs
                             for why in sc.failed.values()][:5]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ornatag" / "cli.py").is_file():
        print(f"error: no ornatag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ornatag
    if Path(ornatag.__file__).resolve().parent != SRC / "ornatag":
        print(f"error: imported ornatag from {ornatag.__file__}", file=sys.stderr)
        return 2
    import workloads
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    results = [run_workload(name, args.seed, seconds, bool(args.trace), bench)
               for name in names]
    for res in results:
        print(json.dumps({k: res[k] for k in (
            "workload", "provenance", "phases_s", "attempted",
            "tail_percentile", "brute_checked", "absent", "failures")}))
        for metric, entry in res["metrics"].items():
            print(f"{res['workload']:<11} {metric:<46} "
                  f"{entry['value']:>14.6g} {entry['unit']}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{res['workload']}.{m}": e
                   for res in results for m, e in res["metrics"].items()}
    print(json.dumps({
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
