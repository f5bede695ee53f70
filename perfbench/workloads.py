"""The benchmark workloads: seeded job lists, the pipeline each job runs
through the mosaicforest layers, and the checks on every job's output.

Every call into the package goes through `Tracer.call`, so a traced run
times each layer from outside the program.  Checks run after a job's clock
stops and use a route independent of the one under test: the integer
recursion for layer sizes and forest counts, the recursion for the closed
form, Fraction prefix sums for `cumulative_below`, exact comparisons for
`order_of_magnitude`, and sha256 digests pinned in `digests.json` for every
export and CLI output.
"""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Callable

from mosaicforest import cli, forest, mosaic, probability, quadratic, recurrence
from mosaicforest.quadratic import QuadraticNumber
from mosaicforest.recurrence import SchlafliSymbol, Series


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str  # what one unit of work_per_s is
    pool: dict[str, object]
    sizing: str
    draw: Callable[[random.Random], list]  # seeded job list
    warmup: Callable[[list], object]  # small job through the same pipeline
    run: Callable  # (job, tracer, workdir) -> dict with "units"
    digest_texts: Callable  # (job, out, workdir) -> {digest key: text}
    check: Callable  # (job, out, workdir) -> list of problems
    all_jobs: Callable[[], list]  # every job a seed can draw, for digests
    memory: Callable[[list], dict] | None = None  # tracemalloc pass


def _shuffled(pool: dict[str, object]) -> Callable[[random.Random], list]:
    def draw(rng: random.Random) -> list:
        jobs = list(pool.values())
        rng.shuffle(jobs)
        return jobs

    return draw


# ---------------------------------------------------------------- enumerate


@dataclass(frozen=True)
class EnumerateJob:
    p: int
    q: int
    belts: int
    vertices: int  # pinned vertex count of the mosaic

    @property
    def key(self) -> str:
        return f"enumerate/{self.p}_{self.q}_b{self.belts}"


# One symbol per branch of the builder and grower.  The seed orders them but
# does not swap symbols: paired alternatives ({5,6} for {6,5}, {3,11} for
# {3,7}, {7,3} for {10,3}) differ by 10-30% in job time and peak memory,
# which spread the end-to-end metrics across seeds by up to 10%.
ENUMERATE_POOL = {
    "p>=4": EnumerateJob(6, 5, 5, 215_821),
    "p=3": EnumerateJob(3, 7, 11, 200_593),
    "q=3": EnumerateJob(10, 3, 6, 200_761),
}


def _run_enumerate(job: EnumerateJob, t, workdir: Path) -> dict:
    s = SchlafliSymbol(job.p, job.q)
    m = t.call(
        "mosaic.build",
        mosaic.build,
        s,
        job.belts,
        meta=lambda m: {"vertices": m.vertex_count, "cells": len(m.cells)},
    )
    n = {"vertices": m.vertex_count}
    out = {"units": m.vertex_count, "mosaic": m}
    if s.q > 3:
        f = t.call(
            "forest.grow", forest.grow, m, allow_triangles=s.p == 3, meta=lambda _: n
        )
        out["forest"] = f
        out["histogram"] = t.call(
            "forest.root_level_histogram", f.root_level_histogram, job.belts
        )
    out["report"] = t.call("mosaic.validate", mosaic.validate, m, meta=lambda _: n)
    if s.q > 3:
        out["dot"] = t.call("forest.to_dot", f.to_dot, meta=_text_bytes)
        out["spanning"] = t.call("forest.spanning_tree", f.spanning_tree)
        out["edges"] = t.call("mosaic.edge_list_text", m.edge_list_text, meta=_text_bytes)
    return out


def _text_bytes(text: str) -> dict:
    return {"bytes_out": len(text)}  # the exports are ASCII


def _enumerate_digest_texts(job: EnumerateJob, out: dict, workdir: Path) -> dict:
    texts = {f"{job.key}/layers": ",".join(map(str, out["mosaic"].layer_sizes))}
    if "forest" in out:
        tree, connectors = out["spanning"]
        texts[f"{job.key}/dot"] = out["dot"]
        texts[f"{job.key}/spanning"] = "\n".join(
            [f"{u} {v}" for u, v in tree] + [f"{u} {v} connector" for u, v in connectors]
        )
        texts[f"{job.key}/edges"] = out["edges"]
    return texts


def _check_enumerate(job: EnumerateJob, out: dict, workdir: Path) -> list[str]:
    problems = []
    m = out["mosaic"]
    s, belts = m.symbol, job.belts
    if not out["report"].passed:
        problems.append(f"validate failed: {out['report'].failures()}")
    if m.vertex_count != job.vertices:
        problems.append(f"{m.vertex_count} vertices, pinned {job.vertices}")
    if s.p >= 4 and s.q >= 4:
        rows = recurrence.layer_counts(s, belts)
        if m.layer_sizes != [r.total for r in rows]:
            problems.append("layer sizes differ from layer_counts")
        f = out["forest"]
        if [f.counts(i) for i in range(belts + 1)] != [(r.a, r.b) for r in rows]:
            problems.append("forest counts differ from layer_counts")
        law = probability.exact_distribution(s, belts, rows)
        if sum(law.masses) != 1:
            problems.append("exact law does not sum to 1")
        hist, total = out["histogram"], rows[belts].total
        if not set(hist) <= set(range(belts + 1)) or any(
            Fraction(hist.get(j, 0), total) != law.point_mass(j) for j in range(belts + 1)
        ):
            problems.append("forest histogram differs from the exact law")
    elif s.p == 3:
        f = out["forest"]
        if any(f.counts(i) != (len(m.layers[i]), 0) for i in range(1, belts + 1)):
            problems.append("p = 3 forest is not a single tree")
        if out["histogram"] != {0: len(m.layers[belts])}:
            problems.append("p = 3 histogram is not all main-root")
    return problems


# The p >= 4 job one belt smaller (21,801 vertices): the warm-up job, and the
# tracemalloc pass, which slows the layers about tenfold.
ENUMERATE_SMALL = EnumerateJob(6, 5, 4, 21_801)


def _enumerate_memory(jobs: list) -> dict:
    """tracemalloc peaks of build, grow and validate per vertex."""
    s = SchlafliSymbol(ENUMERATE_SMALL.p, ENUMERATE_SMALL.q)
    tracemalloc.start()
    try:
        m, build_peak = _traced_peak(mosaic.build, s, ENUMERATE_SMALL.belts)
        _, grow_peak = _traced_peak(forest.grow, m)
        _, validate_peak = _traced_peak(mosaic.validate, m)
    finally:
        tracemalloc.stop()
    n = m.vertex_count
    return {
        "mosaic.build.bytes_per_vertex": build_peak / n,
        "forest.grow.bytes_per_vertex": grow_peak / n,
        "mosaic.validate.bytes_per_vertex": validate_peak / n,
    }


def _traced_peak(fn, *args):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - base


ENUMERATE = Workload(
    name="enumerate",
    why=(
        "the mosaic and forest layers do almost all the work and exact arithmetic "
        "none; the p>=4, p=3 and q=3 branches together show a speed-up on one "
        "branch that costs another"
    ),
    work_unit="mosaic vertices built, grown, validated and exported",
    pool=ENUMERATE_POOL,
    sizing=(
        "belts = the most belts that keep the mosaic within 250,000 vertices "
        "(200k to 216k here); the seed orders the three jobs of a pass"
    ),
    draw=_shuffled(ENUMERATE_POOL),
    warmup=lambda jobs: ENUMERATE_SMALL,
    run=_run_enumerate,
    digest_texts=_enumerate_digest_texts,
    check=_check_enumerate,
    all_jobs=lambda: list(ENUMERATE_POOL.values()),
    memory=_enumerate_memory,
)


# --------------------------------------------------------------- exact_deep


@dataclass(frozen=True)
class DeepJob:
    p: int
    q: int
    level: int = 200  # closed-form sweep, ratio errors and both laws
    count_levels: int = 10_000  # layer_counts depth
    digits: int = 1000  # decimal views of the constants

    @property
    def key(self) -> str:
        return f"exact_deep/{self.p}_{self.q}_L{self.level}"


# Cost rises steeply with p and q, mostly in the level-200 error report, so
# the pool keeps three symbols whose jobs take about 2.7, 3.6 and 5.3 s on a
# quiet 2-core VM.  The seed orders them but does not swap symbols: {5,4}
# for {4,5}, or {6,4} or {5,5} for {4,6}, costs 15-30% more, and drawing
# between them spread the end-to-end metrics across seeds by 16-17%.
DEEP_POOL = {
    "trace 4": DeepJob(4, 5),
    "trace 6": DeepJob(4, 6),
    "trace 10": DeepJob(5, 6),
}


def _run_deep(job: DeepJob, t, workdir: Path) -> dict:
    s = SchlafliSymbol(job.p, job.q)
    rows = t.call(
        "recurrence.layer_counts",
        recurrence.layer_counts,
        s,
        job.count_levels,
        meta=lambda rows: {"levels": len(rows) - 1},
    )
    c = t.call("recurrence.spectral_constants", recurrence.spectral_constants, s)
    decimals = {}
    for name, value in c.named().items():
        if not isinstance(value, QuadraticNumber):
            value = QuadraticNumber(value)
        decimals[name] = t.call("quadratic.decimal", value.decimal, job.digits)
    sweep = [
        t.call("recurrence.closed_form_count", recurrence.closed_form_count, c, i, series)
        for i in range(1, job.level + 1)
        for series in (Series.A, Series.B, Series.ALL)
    ]
    ratio_errors = []
    for i in range(1, job.level + 1):
        err = t.call(
            "recurrence.growth_ratio_error", recurrence.growth_ratio_error, s, i, Series.ALL
        )
        ratio_errors.append(
            (err, t.call("quadratic.order_of_magnitude", quadratic.order_of_magnitude, err))
        )
    exact = t.call(
        "probability.exact_distribution", probability.exact_distribution, s, job.level
    )
    asym = t.call(
        "probability.asymptotic_distribution",
        probability.asymptotic_distribution,
        c,
        job.level,
    )
    report = t.call(
        "probability.distribution_error_report",
        probability.distribution_error_report,
        asym,
        exact,
        meta=lambda r: {"levels": r.level},
    )
    cumulative = [
        (
            t.call("probability.cumulative_below", exact.cumulative_below, j),
            t.call("probability.cumulative_below", asym.cumulative_below, j),
        )
        for j in range(job.level + 1)
    ]
    return {
        "units": job.level,
        "rows": rows,
        "decimals": decimals,
        "sweep": sweep,
        "ratio_errors": ratio_errors,
        "exact": exact,
        "asym": asym,
        "report": report,
        "cumulative": cumulative,
    }


def _deep_digest_texts(job: DeepJob, out: dict, workdir: Path) -> dict:
    return {
        f"{job.key}/decimals": "\n".join(f"{k}={v}" for k, v in out["decimals"].items()),
        f"{job.key}/orders": " ".join(
            [str(e) for _, e in out["ratio_errors"]]
            + [str(row.order) for row in out["report"].rows]
        ),
    }


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) for d >= 1, from Fraction comparisons only."""
    if b == 0 or a == 0 or (a > 0) == (b > 0):
        return (a > 0) - (a < 0) if a else (b > 0) - (b < 0)
    # a and b differ in sign: the larger of a**2 and b**2*d wins
    bigger = (a * a > b * b * d) - (a * a < b * b * d)
    return bigger if a > 0 else -bigger


def _order_holds(value, e: int) -> bool:
    """10**e <= |value| < 10**(e+1), decided exactly.

    Works on the parts of value = a + b*sqrt(d) with Fraction arithmetic, so
    it shares no code with QuadraticNumber's ordering that
    order_of_magnitude relies on.
    """
    if isinstance(value, QuadraticNumber):
        a, b, d = value.x, value.y, value.d
    else:
        a, b, d = Fraction(value), Fraction(0), 1
    s = _sign(a, b, d)
    if s == 0:
        return False
    a, b = s * a, s * b  # now a + b*sqrt(d) = |value|
    low, high = Fraction(10) ** e, Fraction(10) ** (e + 1)
    return _sign(a - low, b, d) >= 0 and _sign(a - high, b, d) < 0


def _check_deep(job: DeepJob, out: dict, workdir: Path) -> list[str]:
    problems = []
    rows = out["rows"]
    if len(rows) != job.count_levels + 1:
        problems.append(f"layer_counts returned {len(rows)} rows")
    expected = [
        value
        for r in rows[1 : job.level + 1]
        for value in (r.a, r.b, r.total)
    ]
    if out["sweep"] != expected:
        problems.append("closed form differs from the recursion")
    prefix = list(zip(accumulate(out["exact"].masses), accumulate(out["asym"].masses)))
    if prefix[-1][0] != 1:
        problems.append("exact law does not sum to 1")
    if prefix[-1][1] != 1:
        problems.append("asymptotic law does not sum to 1")
    mismatch = next((j for j, pair in enumerate(out["cumulative"]) if pair != prefix[j]), None)
    if mismatch is not None:
        problems.append(f"cumulative_below({mismatch}) differs from the prefix sum")
    for i, (err, e) in enumerate(out["ratio_errors"], start=1):
        if not _order_holds(err, e):
            problems.append(f"order_of_magnitude {e} wrong for the level-{i} ratio error")
            break
    for row in out["report"].rows:
        if row.difference == 0:
            ok = row.order is None
        else:
            ok = row.order is not None and _order_holds(row.difference, row.order)
        if not ok:
            problems.append(f"error report order wrong at root level {row.root_level}")
            break
    return problems


EXACT_DEEP = Workload(
    name="exact_deep",
    why=(
        "recurrence, quadratic and probability do all the work at level 200 and "
        "the enumeration layers none, so exact-arithmetic changes show here and "
        "mosaic changes must not"
    ),
    work_unit="symbol-levels (one symbol taken through every exact stage at one level)",
    pool=DEEP_POOL,
    sizing=(
        "level 200, layer_counts to 10^4 levels, 1000 digits; symbols with "
        "4 <= p, q <= 12 whose job takes 2.5 to 6 s; the seed orders the three "
        "jobs of a pass"
    ),
    draw=_shuffled(DEEP_POOL),
    warmup=lambda jobs: DeepJob(4, 5, level=60, count_levels=1000, digits=200),
    run=_run_deep,
    digest_texts=_deep_digest_texts,
    check=_check_deep,
    all_jobs=lambda: list(DEEP_POOL.values()),
)


# --------------------------------------------------------------- verify_cli


@dataclass(frozen=True)
class CliJob:
    probs_p: int
    probs_q: int
    probs_level: int
    export_p: int
    export_q: int
    export_belts: int = 7
    verify_levels: int = 6
    verify_symbols: str = ""  # empty: the CLI's default list


CLI_SYMBOL = (4, 5)
CLI_PROBS_LEVELS = range(145, 156)
EXPORTS = ("forest", "spanning", "mosaic-edges")
VERIFY_SYMBOL_COUNT = len(cli.DEFAULT_VERIFY_SYMBOLS.split(","))


def _cli_steps(job: CliJob) -> list[tuple[str, str, list[str]]]:
    """(span name, output file, argv) for each CLI call of a job."""
    verify = ["verify", "--levels", str(job.verify_levels)]
    if job.verify_symbols:
        verify += ["--symbols", job.verify_symbols]
    steps = [
        ("cli.verify", "verify.txt", verify),
        (
            "cli.probs",
            "probs.md",
            ["probs", "--p", str(job.probs_p), "--q", str(job.probs_q)]
            + ["--levels", str(job.probs_level), "--mode", "both"],
        ),
    ]
    for what in EXPORTS:
        steps.append(
            (
                "cli.export",
                f"{what}.txt",
                ["export", "--what", what, "--p", str(job.export_p), "--q", str(job.export_q)]
                + ["--levels", str(job.export_belts)],
            )
        )
    return steps


def _run_cli(job: CliJob, t, workdir: Path) -> dict:
    codes = {}
    for span, name, argv in _cli_steps(job):
        path = workdir / name
        path.unlink(missing_ok=True)
        codes[name] = t.call(
            span,
            cli.main,
            [*argv, "--out", str(path)],
            meta=lambda _, path=path: {"bytes_out": path.stat().st_size if path.exists() else 0},
        )
    symbols = len(job.verify_symbols.split(",")) if job.verify_symbols else VERIFY_SYMBOL_COUNT
    return {"units": symbols, "codes": codes}


def _cli_digest_texts(job: CliJob, out: dict, workdir: Path) -> dict:
    keys = {
        "verify.txt": f"verify_cli/verify_L{job.verify_levels}",
        "probs.md": f"verify_cli/probs_{job.probs_p}_{job.probs_q}_L{job.probs_level}",
    }
    for what in EXPORTS:
        keys[f"{what}.txt"] = f"verify_cli/{what}_{job.export_p}_{job.export_q}_b{job.export_belts}"
    return {key: (workdir / name).read_bytes() for name, key in keys.items()}


def _check_cli(job: CliJob, out: dict, workdir: Path) -> list[str]:
    problems = [f"{name}: exit code {rc}" for name, rc in out["codes"].items() if rc != 0]
    if problems:
        return problems
    verify = (workdir / "verify.txt").read_text().splitlines()
    if verify[-1] != "verification PASSED":
        problems.append(f"verify ended with {verify[-1]!r}")
    s = SchlafliSymbol(job.export_p, job.export_q)
    vertices = sum(r.total for r in recurrence.layer_counts(s, job.export_belts))
    header = (workdir / "mosaic-edges.txt").read_text().split("\n", 1)[0]
    if header != f"# p={s.p} q={s.q} belts={job.export_belts} vertices={vertices}":
        problems.append(f"edge list header {header!r}, layer_counts gives {vertices} vertices")
    spanning = (workdir / "spanning.txt").read_text().splitlines()
    if len(spanning) - 1 != vertices - 1:
        problems.append(f"spanning tree has {len(spanning) - 1} edges for {vertices} vertices")
    return problems


def _draw_cli(rng: random.Random) -> list[CliJob]:
    return [CliJob(*CLI_SYMBOL, level, *CLI_SYMBOL) for level in rng.sample(CLI_PROBS_LEVELS, 3)]


VERIFY_CLI = Workload(
    name="verify_cli",
    why=(
        "the commands users run: verify shares its wall clock between enumeration "
        "and the closed-form sweep, and probs and export add the write path"
    ),
    work_unit="symbols cross-validated by verify (6 per job; the job also runs probs and export)",
    pool={"probs and export symbol": CLI_SYMBOL, "probs levels": list(CLI_PROBS_LEVELS)},
    sizing=(
        "verify: default symbol list at 6 levels; probs --mode both for {4,5} at "
        "a level in 145..155; export of forest, spanning and mosaic-edges for {4,5} "
        "at 7 belts (39,761 vertices); the seed draws 3 distinct levels"
    ),
    draw=_draw_cli,
    warmup=lambda jobs: CliJob(4, 5, 10, 4, 5, export_belts=3, verify_levels=2, verify_symbols="4:5"),
    run=_run_cli,
    digest_texts=_cli_digest_texts,
    check=_check_cli,
    all_jobs=lambda: [CliJob(*CLI_SYMBOL, level, *CLI_SYMBOL) for level in CLI_PROBS_LEVELS],
)


WORKLOADS = {wl.name: wl for wl in (ENUMERATE, EXACT_DEEP, VERIFY_CLI)}
