"""qnarrow benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload solve-eager --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root; the library is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics untraced, per-layer
metrics with --trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import tracer  # noqa: E402

# Every search is bounded by this many expanded configurations; a search
# that stops on it counts as not decided, never as failed.
MAX_CONFIGS = 400
# OracleBounds of verify-ground and of the checks of the solve workloads'
# solutions outside the timed loop.
ORACLE_BOUNDS = {"max_term_depth": 10, "max_nodes": 100}
JOIN_STEPS = 2
# verify-ground checks the best solutions of each problem, at most this many
VERIFY_SOLUTIONS = 3

SETUP_REPEATS = 5
MIN_REQUESTS = 100   # so that ten samples lie beyond the 90th percentile
SELF_CHECK_REQUESTS = 10


@dataclass(frozen=True)
class Workload:
    strategy: str
    max_steps: int
    verify: bool
    pool: int  # distinct requests, replayed in passes for the whole run

    @property
    def reference(self) -> int:
        """Leading pool requests over which the shares are counted; the
        loop runs until they are all served."""
        return 2 * self.pool // 3


WORKLOADS = {
    "solve-eager": Workload("eager-su", 3, False, 1200),
    "solve-lazy": Workload("lazy", 2, False, 1200),
    "verify-ground": Workload("eager-su", 2, True, 1200),
}

# Per-layer counters of a traced run: (workloads where they must be
# non-zero, workloads where they must be zero).  A refactor that moves a
# function fails here instead of reading 0.
SOLVES = ("solve-eager", "solve-lazy")
ALL = tuple(WORKLOADS)
EXPECTED = {
    "frontend.parse_calls": (ALL, ()),
    "narrow.configs_expanded": (ALL, ()),
    "unify.mgu_calls": (("solve-lazy",), ("solve-eager", "verify-ground")),
    "unify.match_calls": (("verify-ground",), SOLVES),
    "term.fresh_variant_calls": (ALL, ()),
    "term.replace_at_calls": (ALL, ()),
    "quantale.q_tensor_calls": (ALL, ()),
    "rewrite.joinable_calls": (("verify-ground",), SOLVES),
    "rewrite.rewrite_steps_calls": (("verify-ground",), SOLVES),
    "oracle.verify_calls": (("verify-ground",), SOLVES),
    "oracle.conversion_calls": (("verify-ground",), SOLVES),
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Speed calibration.
# ---------------------------------------------------------------------------

# Shared machines of this class slow down by up to 60% for tens of seconds
# at a time, longer than a run.  A fixed pure-Python kernel, independent of
# the library, is timed every CAL_INTERVAL_S between requests, and every
# timing is scaled to the speed at which the kernel takes CAL_NOMINAL_S
# (its time on a quiet 2-vCPU x86-64 VM under CPython 3.11).  Raw figures
# are printed alongside.
CAL_NOMINAL_S = 0.001
CAL_INTERVAL_S = 0.05
CAL_WINDOW = 9


def _kernel() -> int:
    seen: dict = {}
    for i in range(800):
        t: tuple = ("Z",)
        for j in range(i % 13):
            t = ("S", t, j % 3)
        key = (t, i % 7)
        seen[key] = seen.get(key, 0) + len(t)
    return len(seen)


class Calibrator:
    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def due(self) -> None:
        if time.perf_counter() - self.last >= CAL_INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor taking a duration measured now to nominal speed."""
        return CAL_NOMINAL_S / statistics.median(self.samples[-CAL_WINDOW:])


# ---------------------------------------------------------------------------
# The library, imported from this checkout.
# ---------------------------------------------------------------------------


class Library:
    """Fresh imports of the measured modules.  Calls go through module
    attributes, so the tracer's wrappers are seen."""

    def __init__(self):
        if not (ROOT / "src" / "qnarrow" / "__init__.py").is_file():
            raise BenchError(f"no qnarrow sources under {ROOT / 'src'}")
        if sys.path[0] != str(ROOT / "src"):
            sys.path.insert(0, str(ROOT / "src"))
        for name in [m for m in sys.modules if m == "qnarrow" or m.startswith("qnarrow.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        for layer in tracer.LAYERS:
            setattr(self, layer, importlib.import_module(f"qnarrow.{layer}"))
        self.bounds = self.oracle.OracleBounds(**ORACLE_BOUNDS)

    def clear_caches(self) -> None:
        self.quantale.cbe_compose.cache_clear()
        self.quantale.cbe_normalize.cache_clear()


def serve(lib: Library, wl: Workload, text: str) -> list:
    """One request, called the way `qnarrow solve` and `qnarrow oracle
    --verify` call the library."""
    pf = lib.frontend.parse(text)
    out = []
    for problem in pf.problems:
        result = lib.narrow.solve(pf.trs, problem.left, problem.right,
                                  threshold=problem.threshold, strategy=wl.strategy,
                                  order="bfs", max_steps=wl.max_steps,
                                  max_solutions=None, max_configs=MAX_CONFIGS)
        verified = []
        if wl.verify:
            pool = tuple(lib.term.App(c) for c in pf.signature.constants())
            for sol in result.solutions[:VERIFY_SOLUTIONS]:
                verdict = lib.oracle.verify_solution(pf.trs, problem.left, problem.right,
                                                     sol.subst, sol.degree,
                                                     pool=pool, bounds=lib.bounds)
                left, right = sol.subst.apply(problem.left), sol.subst.apply(problem.right)
                joins = [lib.rewrite.joinable(pf.trs, c.grounding.apply(left),
                                              c.grounding.apply(right), JOIN_STEPS)
                         for c in verdict.checks]
                verified.append((verdict, joins))
        out.append((problem, result, verified))
    return out


@dataclass
class ProblemRecord:
    threshold: object
    decided: bool
    configs: int
    solutions: list          # (substitution, degree)
    verdicts: list           # verify-ground: (status, [(outcome, join entry)])


def summarize(out: list) -> list[ProblemRecord]:
    records = []
    for problem, result, verified in out:
        records.append(ProblemRecord(
            problem.threshold,
            result.stopped != "config-limit",
            result.configs_expanded,
            [(sol.subst, sol.degree) for sol in result.solutions],
            [(verdict.status, [(c.outcome, join) for c, join in zip(verdict.checks, joins)])
             for verdict, joins in verified]))
    return records


# ---------------------------------------------------------------------------
# Output checks, once per distinct request, outside the timed loop.
# ---------------------------------------------------------------------------


def check_request(lib: Library, wl: Workload, text: str,
                  records: list[ProblemRecord]) -> list[str]:
    q = lib.quantale
    problems = []
    pf = None
    for k, rec in enumerate(records):
        for subst, degree in rec.solutions:
            if rec.threshold is not None and not q.q_leq(rec.threshold, degree):
                problems.append(f"problem {k}: {subst} at {degree} is below the threshold")
        if wl.verify:
            for status, checks in rec.verdicts:
                if status == "REFUTED":
                    problems.append(f"problem {k}: oracle refuted a solution")
                for outcome, join in checks:
                    if join is None:
                        continue
                    if outcome.degree is None and outcome.exhausted:
                        problems.append(f"problem {k}: join exists but the oracle "
                                        "proved the terms non-convertible")
                    elif outcome.degree is not None and outcome.optimal and \
                            q.q_geq(join[0], outcome.degree) and join[0] != outcome.degree:
                        problems.append(f"problem {k}: join degree {join[0]} beats the "
                                        f"proven-optimal conversion {outcome.degree}")
        elif rec.solutions:
            # the best solution makes the strongest degree claim, so it is
            # the one a wrong degree would get refuted on
            if pf is None:
                pf = lib.frontend.parse(text)
            problem = pf.problems[k]
            subst, degree = rec.solutions[0]
            verdict = lib.oracle.verify_solution(pf.trs, problem.left, problem.right,
                                                 subst, degree, bounds=lib.bounds)
            if verdict.status == "REFUTED":
                problems.append(f"problem {k}: oracle refuted {subst} at {degree}")
    return problems


def shares(records: list[list[ProblemRecord]]) -> dict[str, float]:
    problems = [rec for request in records for rec in request]
    verdicts = [status for rec in problems for status, _ in rec.verdicts]
    return {
        "decided_share": sum(rec.decided for rec in problems) / len(problems),
        "solved_share": sum(bool(rec.solutions) for rec in problems) / len(problems),
        "confirmed_share": (sum(s == "CONFIRMED" for s in verdicts) / len(verdicts)
                            if verdicts else 0.0),
        "configs_expanded": sum(rec.configs for rec in problems),
    }


def digest(records: list[list[ProblemRecord]]) -> str:
    h = hashlib.sha256()
    for request in records:
        for rec in request:
            for subst, degree in rec.solutions:
                h.update(f"{subst}@{degree};".encode())
            h.update(f"|{rec.decided}|{[s for s, _ in rec.verdicts]}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up, timed loop, metrics.
# ---------------------------------------------------------------------------


def set_up(wl: Workload, seed: int) -> tuple[Library, list[str]]:
    lib = Library()
    tracer.check_lookup_sites()
    pool = [text for _, text in gen.requests(seed, wl.pool)]
    # the warm-up pass touches every code path; it serves the fixed demo
    # files, so that set-up time does not hinge on one costly seeded request
    for name in gen.DEMO_NAMES:
        serve(lib, wl, gen.demo_text(name))
    return lib, pool


class Loop:
    """What one closed-loop run observed."""

    def __init__(self):
        self.latencies: list[float] = []    # calibrated, one per request served
        self.raw: list[float] = []          # as measured
        self.indices: list[int] = []        # pool index of each request served
        self.records: dict[int, list[ProblemRecord]] = {}  # first result per index
        self.raised: dict[int, str] = {}


def timed_loop(lib, wl, pool, seconds, cal, wrap=None, count=None) -> Loop:
    """Closed loop over the pool, in order and wrapping around, for
    `seconds` and at least until the reference prefix and MIN_REQUESTS are
    served; or for exactly `count` requests."""
    perf = time.perf_counter
    loop = Loop()
    minimum = max(MIN_REQUESTS, wl.reference)
    i = 0
    start = perf()
    while True:
        if count is None:
            if i >= minimum and perf() - start >= seconds:
                break
        elif i >= count:
            break
        idx = i % len(pool)
        cal.due()
        t0 = perf()
        try:
            out = wrap(serve, lib, wl, pool[idx]) if wrap else serve(lib, wl, pool[idx])
        except Exception:  # a failed request is counted, not fatal
            out = None
            loop.raised.setdefault(idx, traceback.format_exc())
        dt = perf() - t0
        loop.latencies.append(dt * cal.scale())
        loop.raw.append(dt)
        loop.indices.append(idx)
        if out is not None and idx not in loop.records:
            loop.records[idx] = summarize(out)
        i += 1
    return loop


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tr: tracer.Tracer, overhead: float,
                  scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; times are multiplied by `scale`."""
    obs = tr.observed

    def ratio(a, b):
        return a / b if b else 0.0

    configs = obs["configs_expanded"]
    mgu_calls, mgu_s = tr.leaf_total("unify.mgu")
    unifiable_calls, unifiable_s = tr.leaf_total("unify.unifiable")
    match_calls, match_s = tr.leaf_total("unify.match")
    fv_calls, fv_s = tr.leaf_total("term.fresh_variant")
    ra_calls, ra_s = tr.leaf_total("term.replace_at")
    qt_calls, qt_s = tr.leaf_total("quantale.q_tensor")
    ca_calls, _ = tr.leaf_total("quantale.cbe_apply")
    rs_calls, rs_s = tr.leaf_total("rewrite.rewrite_steps")
    conversions = tr.span_count("oracle.best_conversion_degree")
    m = {
        "frontend.parse_calls": (tr.span_count("frontend.parse"), "count"),
        "frontend.parse_s": (tr.span_time("frontend.parse"), "s"),
        "narrow.solve_s": (tr.span_time("narrow.solve"), "s"),
        "narrow.configs_expanded": (configs, "count"),
        "narrow.solutions_per_kconfig": (ratio(1000 * obs["solutions"], configs), "1/kconfig"),
        "unify.mgu_calls": (mgu_calls, "count"),
        "unify.mgu_s": (mgu_s, "s"),
        "unify.mgu_success_ratio": (ratio(obs["mgu_unified"], mgu_calls), "ratio"),
        "unify.unifiable_calls": (unifiable_calls, "count"),
        "unify.unifiable_s": (unifiable_s, "s"),
        "unify.match_calls": (match_calls, "count"),
        "unify.match_s": (match_s, "s"),
        "term.fresh_variant_calls": (fv_calls, "count"),
        "term.fresh_variant_s": (fv_s, "s"),
        "term.replace_at_calls": (ra_calls, "count"),
        "term.replace_at_s": (ra_s, "s"),
        "quantale.q_tensor_calls": (qt_calls, "count"),
        "quantale.q_tensor_s": (qt_s, "s"),
        "quantale.cbe_apply_calls": (ca_calls, "count"),
        "quantale.cbe_compose_hit_ratio": (tr.cache_ratio["cbe_compose"], "ratio"),
        "quantale.cbe_normalize_hit_ratio": (tr.cache_ratio["cbe_normalize"], "ratio"),
        "rewrite.joinable_calls": (tr.span_count("rewrite.joinable"), "count"),
        "rewrite.joinable_s": (tr.span_time("rewrite.joinable"), "s"),
        "rewrite.rewrite_steps_calls": (rs_calls, "count"),
        "rewrite.rewrite_steps_s": (rs_s, "s"),
        "rewrite.terms_reached": (obs["terms_reached"], "count"),
        "oracle.verify_calls": (tr.span_count("oracle.verify_solution"), "count"),
        "oracle.verify_s": (tr.span_time("oracle.verify_solution"), "s"),
        "oracle.conversion_calls": (conversions, "count"),
        "oracle.conversion_s": (tr.span_time("oracle.best_conversion_degree"), "s"),
        "oracle.optimal_share": (ratio(obs["conversion_optimal"], conversions), "ratio"),
        "oracle.capped_share": (ratio(obs["conversion_capped"], conversions), "ratio"),
    }
    for layer in tracer.LAYERS + ("request",):
        m[f"{layer}.self_s"] = (tr.self_time[layer], "s")
    m = {name: (value * scale if unit == "s" else value, unit)
         for name, (value, unit) in m.items()}
    m["frontend.bytes_per_s"] = (ratio(obs["parse_bytes"], m["frontend.parse_s"][0]), "B/s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def check_expectations(workload: str, metrics: dict) -> None:
    wrong = []
    for name, (nonzero, zero) in EXPECTED.items():
        value = metrics[name][0]
        if (workload in nonzero and not value) or (workload in zero and value):
            wrong.append(f"{name} = {value}")
    if wrong:
        raise BenchError(f"layer counters off on {workload}: " + "; ".join(wrong))


def write_trace(tr: tracer.Tracer, workload: str, seed: int) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for request, span, parent, kind, start, end, own in tr.spans:
            handle.write(json.dumps({"request": request, "span": span, "parent": parent,
                                     "kind": kind, "start": start, "end": end,
                                     "self": own}) + "\n")
        for (kind, parent), calls in sorted(tr.leaf_calls.items()):
            handle.write(json.dumps({"leaf": kind, "parent_kind": parent, "calls": calls,
                                     "time": tr.leaf_time[(kind, parent)]}) + "\n")
    return path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    cal = Calibrator()
    setups = []
    for _ in range(SETUP_REPEATS):
        for _ in range(CAL_WINDOW):
            cal.sample()
        t0 = time.perf_counter()
        lib, pool = set_up(wl, seed)
        setups.append((time.perf_counter() - t0) * cal.scale())

    tr = None
    if trace:
        # fixed work, so that the counters are exact and comparable; both
        # passes start from cold library caches, the untraced one first
        lib.clear_caches()
        plain = timed_loop(lib, wl, pool, seconds, cal, count=wl.reference)
        lib.clear_caches()
        with tracer.Tracer() as tr:
            loop = timed_loop(lib, wl, pool, seconds, cal, wrap=tr.request,
                              count=wl.reference)
        overhead = sum(loop.latencies) / sum(plain.latencies)
    else:
        loop = timed_loop(lib, wl, pool, seconds, cal)
    t_end = time.perf_counter()

    failing: dict[str, list[str]] = {}
    for idx, recs in loop.records.items():
        if pool[idx] not in failing:
            found = check_request(lib, wl, pool[idx], recs)
            if found:
                failing[pool[idx]] = found
    for idx, tb in loop.raised.items():
        failing.setdefault(pool[idx], []).append(tb)
    served = len(loop.indices)
    failed = sum(1 for idx in loop.indices if pool[idx] in failing)
    for text, found in list(failing.items())[:3]:
        print(f"FAILED request:\n{text}" + "\n".join(found), file=sys.stderr)

    reference = [loop.records[idx] for idx in range(wl.reference) if idx in loop.records]
    counts = shares(reference)
    ms = sorted(x * 1000 for x in loop.latencies)
    cuts = statistics.quantiles(ms, n=10, method="inclusive")
    report = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (served / sum(loop.latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (cuts[8], "ms"),
        "decided_share": (counts["decided_share"], "ratio"),
        "solved_share": (counts["solved_share"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "failed_share": (failed / served, "ratio"),
        "confirmed_share": (counts["confirmed_share"], "ratio"),
        "requests_served": (served, "count"),
        "distinct_requests": (len(loop.records), "count"),
        "raw_throughput_rps": (served / sum(loop.raw), "1/s"),
        "raw_latency_p50_ms": (1000 * statistics.median(loop.raw), "ms"),
        "calibration_scale": (statistics.median(CAL_NOMINAL_S / x for x in cal.samples),
                              "ratio"),
        "checks_s": (time.perf_counter() - t_end, "s"),
    }
    if trace:
        # the traced pass's own latency-weighted factor, so that the scaled
        # self times add up to its calibrated service time
        report = layer_metrics(tr, overhead, sum(loop.latencies) / sum(loop.raw))
        report["confirmed_share"] = extra.pop("confirmed_share")
        check_expectations(workload, report)
        extra["trace_file"] = (str(write_trace(tr, workload, seed).relative_to(ROOT)), "")
        for (kind, parent), calls in sorted(tr.leaf_calls.items()):
            print(f"  leaf {kind:<24} under {parent:<30} {calls:>10} calls "
                  f"{tr.leaf_time[(kind, parent)]:.4f} s")
    for name, (value, unit) in {**report, **extra}.items():
        print(f"{name:<34} {value} {unit}")
    return {
        "correct": not failing,
        "attempted": served,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()},
    }


def digests(seed: int) -> dict:
    """Count metrics and output digest of a tiny run of each workload."""
    out = {}
    for workload, wl in WORKLOADS.items():
        lib = Library()
        pool = [text for _, text in gen.requests(seed, SELF_CHECK_REQUESTS)]
        loop = timed_loop(lib, wl, pool, 0, Calibrator(), count=len(pool))
        if loop.raised:
            raise BenchError(f"{workload}: request failed:\n"
                             f"{next(iter(loop.raised.values()))}")
        recs = [loop.records[i] for i in range(len(pool))]
        out[workload] = [shares(recs), digest(recs)]
    return out


def self_check(seed: int) -> None:
    """Tiny runs in two processes with different string hashing must agree
    exactly, and another seed must give other inputs."""
    if gen.requests(seed, 20) == gen.requests(seed + 1, 20):
        raise BenchError(f"seeds {seed} and {seed + 1} generate the same inputs")
    runs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digests",
                               "--seed", str(seed)],
                              env={**os.environ, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True, timeout=600)
        if proc.returncode:
            raise BenchError(f"digest run failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    for workload in WORKLOADS:
        if runs[0][workload] != runs[1][workload]:
            raise BenchError(f"{workload} is not deterministic: "
                             f"{runs[0][workload]} != {runs[1][workload]}")
        counts, hexdigest = runs[0][workload]
        print(f"{workload}: deterministic {counts} digest {hexdigest[:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check determinism and seed sensitivity, then exit")
    parser.add_argument("--digests", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            self_check(args.seed)
            return 0
        if args.digests:
            print(json.dumps(digests(args.seed)))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, tracer.TracingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
