"""mosaicforest benchmark.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1                     # every workload in turn

One run is one process, one thread, a closed loop: whole passes over the
seeded job list, one job at a time, ending at the pass boundary nearest to
--seconds (at least one pass).  Every job is checked against an independent
route and against the digests pinned in digests.json; a failed or raising
job counts in `failed` and makes the exit code 1.  Jobs and set-up probes
are timed in process CPU time, which leaves out time the host steals from a
virtual CPU, and each turns round the CPUs the process may use
(spread_over_cpus), so no run's figures hang on one CPU of a shared host.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each job twice,
untraced then traced, prints the per-layer metrics taken from the spans of
the traced copies plus trace.overhead_ratio, and writes the spans as jsonl.
Without --workload every workload runs in a fresh process, one at a time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Human-readable lines above it carry the job list, stamps, each
metric with its sample count, and the reported-only figures (job_ms.p50,
job_ms.tail, job_ms.wall_mean, fail_ratio); the same go to out/result-*.json.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("enumerate", "exact_deep", "verify_cli")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 900
ROTATE_S = 0.05  # a measured section moves to the next allowed CPU this often

# work_per_s under the name each workload's users know it by
WORK_ALIASES = {
    "enumerate": "vertices_per_s",
    "exact_deep": "levels_per_s",
    "verify_cli": "symbols_per_s",
}


def _per_job(name, key="s"):
    """Mean per job that called the layer: seconds, or a count summed on its spans."""

    def metric(totals):
        agg = totals.get(name)
        return agg[key] / len(agg["jobs"]) if agg else 0.0

    return metric


def _per_item(name, item, scale):
    """Layer seconds per counted item (vertex, level, call), times `scale`."""

    def metric(totals):
        agg = totals.get(name)
        return agg["s"] / agg[item] * scale if agg else 0.0

    return metric


def _cli_bytes_out(totals):
    spans = [totals[n] for n in ("cli.verify", "cli.probs", "cli.export") if n in totals]
    if not spans:
        return 0.0
    return sum(agg["bytes_out"] for agg in spans) / len(set().union(*(a["jobs"] for a in spans)))


# name, unit, better, value from the traced spans (None: filled elsewhere)
PER_LAYER = [
    ("mosaic.build.us_per_vertex", "us", "lower", _per_item("mosaic.build", "vertices", 1e6)),
    ("mosaic.build.s", "s", "lower", _per_job("mosaic.build")),
    ("mosaic.build.vertices", "count", "higher", _per_job("mosaic.build", "vertices")),
    ("mosaic.build.cells", "count", "higher", _per_job("mosaic.build", "cells")),
    ("mosaic.build.bytes_per_vertex", "B", "lower", None),
    ("forest.grow.bytes_per_vertex", "B", "lower", None),
    ("mosaic.validate.bytes_per_vertex", "B", "lower", None),
    ("forest.grow.us_per_vertex", "us", "lower", _per_item("forest.grow", "vertices", 1e6)),
    ("forest.root_level_histogram.s", "s", "lower", _per_job("forest.root_level_histogram")),
    ("mosaic.validate.us_per_vertex", "us", "lower", _per_item("mosaic.validate", "vertices", 1e6)),
    ("forest.to_dot.s", "s", "lower", _per_job("forest.to_dot")),
    ("forest.spanning_tree.s", "s", "lower", _per_job("forest.spanning_tree")),
    ("mosaic.edge_list_text.s", "s", "lower", _per_job("mosaic.edge_list_text")),
    ("forest.to_dot.bytes_out", "B", "lower", _per_job("forest.to_dot", "bytes_out")),
    ("mosaic.edge_list_text.bytes_out", "B", "lower", _per_job("mosaic.edge_list_text", "bytes_out")),
    ("recurrence.layer_counts.us_per_level", "us", "lower", _per_item("recurrence.layer_counts", "levels", 1e6)),
    ("recurrence.spectral_constants.s", "s", "lower", _per_job("recurrence.spectral_constants")),
    ("recurrence.closed_form_count.us_per_call", "us", "lower", _per_item("recurrence.closed_form_count", "calls", 1e6)),
    ("recurrence.closed_form_count.calls", "count", "higher", _per_job("recurrence.closed_form_count", "calls")),
    ("quadratic.order_of_magnitude.us_per_call", "us", "lower", _per_item("quadratic.order_of_magnitude", "calls", 1e6)),
    ("quadratic.decimal.s", "s", "lower", _per_job("quadratic.decimal")),
    ("probability.distribution_error_report.ms_per_level", "ms", "lower", _per_item("probability.distribution_error_report", "levels", 1e3)),
    ("probability.exact_distribution.s", "s", "lower", _per_job("probability.exact_distribution")),
    ("probability.asymptotic_distribution.s", "s", "lower", _per_job("probability.asymptotic_distribution")),
    ("probability.cumulative_below.s", "s", "lower", _per_job("probability.cumulative_below")),
    ("cli.verify.s", "s", "lower", _per_job("cli.verify")),
    ("cli.probs.s", "s", "lower", _per_job("cli.probs")),
    ("cli.export.s", "s", "lower", _per_job("cli.export")),
    ("cli.bytes_out", "B", "lower", _cli_bytes_out),
    ("trace.overhead_ratio", "ratio", "lower", None),
]


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest of p99.9, p99, p90, p50 with at least ten samples beyond it.

    Below 20 samples none qualifies and the maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(pct / 100 * n)  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            return ordered[rank - 1], f"p{pct:g}"
    return ordered[-1], "p100"


def stamps() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_workloads():
    """Import the package from this checkout's src/ (never an installed copy)."""
    if not (SRC / "mosaicforest" / "__init__.py").is_file():
        raise ImportError(f"no mosaicforest package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mosaicforest
    import workloads

    if Path(mosaicforest.__file__).resolve().parent != SRC / "mosaicforest":
        raise ImportError(f"imported mosaicforest from {mosaicforest.__file__}")
    return workloads


@contextmanager
def spread_over_cpus():
    """Move this process round the CPUs it may use, one every ROTATE_S seconds.

    On a shared host one CPU can run 1.3-1.6x slower than another for tens
    of seconds at a time, and a single-threaded process stays on the CPU the
    scheduler first gave it, so a whole run's figures hung on that pick.
    Rotating gives every measured section an even share of each CPU.  With
    one allowed CPU, or no affinity calls, it does nothing.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        yield
        return
    order = itertools.cycle(cpus)

    def rotate(signum, frame):
        try:
            os.sched_setaffinity(0, {next(order)})
        except OSError:
            pass

    previous = signal.signal(signal.SIGALRM, rotate)
    signal.setitimer(signal.ITIMER_REAL, ROTATE_S, ROTATE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, cpus)


def setup_probe(args) -> int:
    """CPU time of import, input generation and one warm-up job in this fresh process."""
    from tracer import Tracer

    with spread_over_cpus():
        start = process_time()
        wl = load_workloads().WORKLOADS[args.workload]
        jobs = wl.draw(random.Random(args.seed))
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl.run(wl.warmup(jobs), Tracer(False), Path(tmp))
        seconds = process_time() - start
    print(json.dumps({"setup_s": seconds}))
    return 0


def measure_setup(args) -> float:
    """setup_s of one fresh process (see setup_probe)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_job(wl, job, tracer, workdir, digests, sha256, job_id):
    """Run one job and check it; returns (CPU s, wall s, units of work, problems)."""
    gc.collect()  # no earlier job's garbage is collected on this job's clock
    try:
        start, wall_start = process_time(), perf_counter()
        with tracer.job(job_id, repr(job)):
            out = wl.run(job, tracer, workdir)
        seconds, wall = process_time() - start, perf_counter() - wall_start
        problems = wl.check(job, out, workdir) or [
            f"{key} differs from its pinned digest"
            for key, text in wl.digest_texts(job, out, workdir).items()
            if digests.get(key) != sha256(text)
        ]
        return seconds, wall, out["units"], problems
    except Exception:
        return None, None, 0, [traceback.format_exc()]


def run_workload(args) -> int:
    from tracer import Tracer

    workloads = load_workloads()
    wl = workloads.WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text())
    jobs = wl.draw(random.Random(args.seed))
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": wl.why,
        "work_unit": wl.work_unit,
        "sizing": wl.sizing,
        "pool": {k: asdict(v) if is_dataclass(v) else v for k, v in wl.pool.items()},
        "jobs": [asdict(j) for j in jobs],
        "stamps": stamps(),
    }
    for key in ("why", "work_unit", "sizing", "pool", "jobs", "stamps"):
        print(f"{key}: {record[key] if isinstance(record[key], str) else json.dumps(record[key])}")
    sys.stdout.flush()

    setup_times = []
    plain, traced = Tracer(False), Tracer(True)
    done, pairs, failures = [], [], []
    attempted = 0
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        wl.run(wl.warmup(jobs), plain, workdir)
        start = pass_start = perf_counter()
        while True:
            for index, job in enumerate(jobs):  # whole passes: each job's share stays fixed
                pair = []
                for tracer in (plain, traced) if args.trace else (plain,):
                    attempted += 1
                    with spread_over_cpus():
                        seconds, wall, units, problems = run_job(
                            wl, job, tracer, workdir, digests, workloads.sha256, attempted
                        )
                    label = f"#{attempted} {job!r}{' traced' if tracer.enabled else ''}"
                    if problems:
                        failures.append({"job": label, "problems": problems})
                        print(f"FAIL {label}: {problems}", file=sys.stderr)
                        continue
                    print(f"job {label}: {seconds * 1e3:.1f} ms ok", flush=True)
                    pair.append(seconds)
                    if not tracer.enabled:
                        done.append((index, seconds, wall, units))
                if not args.trace:  # set-up probes spread over the run, off any job's clock
                    setup_times.append(measure_setup(args))
                if len(pair) == 2:
                    pairs.append(pair)
            # stop at the pass boundary nearest to --seconds
            now = perf_counter()
            if now + (now - pass_start) / 2 >= start + args.seconds:
                break
            pass_start = now
        while not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(measure_setup(args))
        memory = wl.memory(jobs) if args.trace and wl.memory else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    metrics = {}  # name -> (value, unit, sample count, note): the result line
    # printed and recorded only: at 6 to 12 jobs a run the median jumps between
    # the fast and slow periods of a shared host, and the tail is the maximum;
    # over ten seeds each spread up to 0.3, wider than any bound the gate allows
    reported = {"fail_ratio": (failed / attempted, "1", attempted, f"{failed} failed")}
    if args.trace:
        totals = traced.totals()
        memory["trace.overhead_ratio"] = (
            sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1 if pairs else 0.0
        )
        for name, unit, _, value in PER_LAYER:
            if value is None:  # memory pass or overhead: one value from the whole run
                n = len(pairs) if name == "trace.overhead_ratio" else int(name in memory)
                metrics[name] = (memory.get(name, 0.0), unit, n, "")
            else:
                layer = name.rsplit(".", 1)[0]
                n = sum(agg["calls"] for key, agg in totals.items() if key.startswith(layer))
                metrics[name] = (value(totals), unit, n, "spans")
        traced.write_jsonl(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    elif done:
        ms = [s * 1e3 for _, s, _, _ in done]
        tail_ms, pct = tail(ms)
        # all jobs' units over all jobs' seconds; whole passes keep each job's share fixed
        work_per_s = sum(u for *_, u in done) / sum(s for _, s, _, _ in done)
        reported["job_ms.p50"] = (statistics.median(ms), "ms", len(ms), "")
        reported["job_ms.tail"] = (tail_ms, "ms", len(ms), pct)
        reported["job_ms.wall_mean"] = (
            statistics.fmean(w * 1e3 for _, _, w, _ in done), "ms", len(ms), "wall clock"
        )
        metrics = {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times), ""),
            "job_ms.mean": (statistics.fmean(ms), "ms", len(ms), ""),
            "work_per_s": (work_per_s, "1/s", len(ms), WORK_ALIASES[wl.name]),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1, ""
            ),
        }

    for kind, table in (("metric", metrics), ("reported", reported)):
        for name, (value, unit, n, note) in table.items():
            print(f"{kind} {name} = {value:.6g} {unit} (n={n}{', ' + note if note else ''})")
    record.update(
        attempted=attempted,
        failed=failed,
        failures=failures,
        setup_times=setup_times,
        job_seconds=[[index, s, w] for index, s, w, _ in done],
        metrics=_table_json(metrics),
        reported=_table_json(reported),
    )
    result_path = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _table_json(table: dict) -> dict:
    return {k: {"value": v, "unit": u, "n": n, "note": note} for k, (v, u, n, note) in table.items()}


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time, then one summary."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 2
        record = json.loads(
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").read_text()
        )
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in record["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = {"value": m["value"], "unit": m["unit"]}
        rows += [(name, metric, m) for metric, m in {**record["metrics"], **record["reported"]}.items()]
    print("\n| workload | metric | value | unit | n | note |")
    print("|---|---|---|---|---|---|")
    for name, metric, m in rows:
        print(f"| {name} | {metric} | {m['value']:.6g} | {m['unit']} | {m['n']} | {m['note']} |")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    try:
        if args.setup_probe:
            return setup_probe(args)
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
