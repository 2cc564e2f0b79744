#!/usr/bin/env python3
"""CI's bench gate: every threshold the reproduction's claims rest on.

    check_bench.py REPORT.json...             # reports the benches archive
    check_bench.py overhead BUILD_ON BUILD_OFF

A report's checks are the rows of RULES for the kind its "schema" field
names (SCHEMAS); a report with no known schema fails.  The reports are
written by bench_dse --dse-json, bench_solver_scaling --solver-json,
bench_update_churn --update-json and bench_engine_throughput
--engine-json / --stats-json.

`overhead` times two build trees, one configured with the default
FETCAM_OBS=ON and one with -DFETCAM_OBS=OFF: bench_solver_scaling with
telemetry off at run time against compiled out, and `fetcam_cli engine`
qps compiled out against runtime off and against metrics on.

A rule fails when its field is missing or of the wrong type, and so does
a conditional rule whose condition cannot be read: the gate never passes
a report it could not check.  Prints one line per rule and exits 1 when
any rule fails.
"""

import json
import operator
import os
import subprocess
import sys
import tempfile


class Each(list):
    """The values of a path through a list or dict ("a[].b"): a rule on
    them must hold for each one."""


def get(doc, path):
    """The field at a dotted path; "a[]" maps the rest of the path over
    the items of a list, or the values of a dict."""
    head, _, rest = path.partition(".")
    if head.endswith("[]"):
        items = doc[head[:-2]]
        if isinstance(items, dict):
            items = items.values()
        return Each(get(x, rest) if rest else x for x in items)
    return get(doc[head], rest) if rest else doc[head]


def ref(path):
    """A bound read from another field of the same report."""
    def bound(report):
        return get(report, path)
    bound.__name__ = path
    return bound


def ratio(num, den):
    return num / den if den > 0 else 0.0


# Values computed from several fields.  Each reads what it needs through
# get(), so a missing field fails the rule that uses it.

def largest_kernel(report):
    return max(get(report, "kernels"), key=lambda row: row["n"])


def largest_path_speedup(report):
    """Scratch path (triplet build + full factor) over the steady path
    (stamp-slot replay + refactor) a Newton iteration pays, at the
    largest kernel size."""
    k = largest_kernel(report)
    return ratio(k["triplet_build_us"] + k["full_factor_us"],
                 k["replay_fill_us"] + k["refactor_us"])


def largest_factor_speedup(report):
    k = largest_kernel(report)
    return ratio(k["full_factor_us"], k["refactor_us"])


def newton_path_256(report):
    """Newton-path speedups at the paper-scale (>= 256-bit) slices; there
    must be at least one."""
    rows = [row["speedup"] for row in get(report, "newton_path")
            if row["n_bits"] >= 256]
    if not rows:
        raise KeyError("no newton_path row at n_bits >= 256")
    return Each(rows)


def transient_hit_rates(report):
    """Refactor hit rates of the transient rows, which --no-transient
    leaves out."""
    return Each(row["refactor_hit_rate"]
                for row in report.get("transient", []))


def delta_fraction(report):
    """Planned delta write phases as a share of the naive rewrite's."""
    naive = get(report, "endurance_aware.naive_write_phases")
    delta = get(report, "endurance_aware.delta_write_phases")
    return delta / naive if naive else 1.0


def frontier_designs(report):
    return {p["design"] for p in get(report, "exact.frontier")}


def frames_sent(report):
    return get(report, "wire.clients") * get(report, "wire.frames_per_client")


def histogram_buckets(report):
    hist = get(report, "approx.distance_histogram")
    if not isinstance(hist, list):
        raise TypeError("approx.distance_histogram is not a list")
    return len(hist)


def threshold_plus_one(report):
    return get(report, "approx.threshold") + 1


def histogram_total(report):
    return sum(get(report, "approx.distance_histogram"))


OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "in": lambda v, b: b[0] <= v <= b[1],
    "has": lambda v, b: isinstance(v, dict) and all(k in v for k in b),
    "is": isinstance,
    "nonempty": lambda v, b: isinstance(v, b) and len(v) > 0,
    "meets": lambda v, b: bool(set(v) & b),
    # The emitters write a non-finite number as null.
    "finite": lambda v, b: isinstance(v, list) and None not in v,
}

SCHEMAS = {
    "fetcam.dse.v1": "dse",
    "fetcam.solver.v1": "solver",
    "fetcam.update.v1": "update",
    "fetcam.engine.v1": "engine",
    "fetcam.stats.v1": "stats",
}

RATE = (0.0, 1.0)
AVX2 = ("simd.active_tier", "==", "avx2")
SOLVER_BENCHES = ("BM_DenseLu/256", "BM_SparseLu/2048",
                  "BM_WordSearchTransient/32")

# (kind, field, check, bound[, only when (field, check, bound)]).  A field
# is a path for get() or a function of the report; so is a bound given by
# ref() or a function, any other bound is a constant.
RULES = [
    # The sweep keeps both cell families on its frontier, agrees with
    # the paper's operating points, and the surrogate prunes without
    # losing the frontier.  Every number is deterministic.
    ("dse", "exact.candidates", ">", 0),
    ("dse", "exact.evaluated", ">", 0),
    ("dse", "exact.frontier", "nonempty", list),
    ("dse", frontier_designs, "meets", {"2sg", "2dg"}),
    ("dse", frontier_designs, "meets", {"1p5sg", "1p5dg"}),
    ("dse", "exact.frontier[].objectives", "finite", None),
    ("dse", "paper_points", "nonempty", list),
    ("dse", "paper_points[].ok", "==", True),
    ("dse", "paper_points[].domination_depth", "<=", 0.05),
    ("dse", "surrogate.enabled", "==", True),
    ("dse", "surrogate.eval_fraction", "<=", 0.60),
    ("dse", "surrogate_frontier_recall", ">=", 0.95),
    ("dse", "surrogate.validated", ">", 0, ("surrogate.skipped", ">", 0)),
    # The KLU-style refactor path earns its reuse machinery at the
    # largest kernel size and on the paper-scale Newton path; a cold
    # refactor cache would mean the pattern keying broke.
    ("solver", "kernels", "nonempty", list),
    ("solver", largest_path_speedup, ">=", 2.0),
    ("solver", largest_factor_speedup, ">=", 1.5),
    ("solver", newton_path_256, ">=", 2.0),
    ("solver", transient_hit_rates, ">=", 0.9),
    # Rule churn: delta planning beats the naive rewrite, and
    # endurance-aware placement levels wear no worse than capacity-only.
    ("update", "endurance_aware.steps", ">", 0),
    ("update", "capacity_only.steps", ">", 0),
    ("update", "endurance_aware.naive_write_phases", ">", 0),
    ("update", "capacity_only.naive_write_phases", ">", 0),
    ("update", "endurance_aware.keeps", ">", 0),
    ("update", "capacity_only.keeps", ">", 0),
    ("update", "endurance_aware.delta_write_phases", ">", 0),
    ("update", "capacity_only.delta_write_phases", ">", 0),
    ("update", delta_fraction, "<=", 0.5),
    ("update", "endurance_aware.mat_spread", ">=", 0),
    ("update", "capacity_only.mat_spread", ">=", 0),
    ("update", "endurance_aware.mat_spread", "<=",
     ref("capacity_only.mat_spread")),
    ("update", "endurance_aware.max_row_writes", "<=",
     ref("capacity_only.max_row_writes")),
    # The packed kernel beats the behavioral array at the gate shape,
    # and the AVX2 tier beats scalar on the same packing.  A build that
    # compiled the AVX2 tier must run it.
    ("engine", "kernel.rows", "==", 4096),
    ("engine", "kernel.cols", "==", 128),
    ("engine", "kernel.speedup", ">=", 4.0),
    ("engine", "kernel.two_step_speedup", ">", 0.0),
    ("engine", "simd.available", "==", True, ("simd.compiled", "==", True)),
    ("engine", "simd.speedup", ">=", 2.0, ("simd.available", "==", True)),
    ("engine", "simd.two_step_speedup", ">=", 2.0,
     ("simd.available", "==", True)),
    # The scale sections ran, served every frame, and report sane
    # percentiles.  Absolute qps floors hold on the AVX2 tier.
    ("engine", "multicore.configs", "nonempty", list),
    ("engine", "multicore.configs[].qps", ">", 0.0),
    ("engine", "multicore.best_qps", ">=", 100000, AVX2),
    ("engine", "wire.frames_served", "==", frames_sent),
    ("engine", "wire.qps", ">", 0.0),
    ("engine", "wire.rtt_p50_us", ">", 0.0),
    ("engine", "wire.rtt_p99_us", ">=", ref("wire.rtt_p50_us")),
    ("engine", "wire.qps", ">=", 100000, AVX2),
    # The trace-driven engine: counts, rates and energy are sane, and the
    # blocked, mat-skip pruned arm beats the query-at-a-time baseline.
    ("engine", "engine.searches", ">", 0),
    ("engine", "engine.qps", ">", 0.0),
    ("engine", "engine.hit_rate", "in", RATE),
    ("engine", "engine.step1_miss_rate", "in", RATE),
    ("engine", "engine.energy_per_search_j", ">", 0.0),
    ("engine", "engine.p99_batch_us", ">=", ref("engine.p50_batch_us")),
    ("engine", "engine", "has", ("query_block", "baseline_qps",
                                 "block_speedup", "mats_considered",
                                 "mats_skipped", "mat_skip_rate")),
    ("engine", "engine.query_block", ">=", 1),
    ("engine", "engine.mat_skip_rate", "in", RATE),
    ("engine", "engine.mats_skipped", "<=", ref("engine.mats_considered")),
    ("engine", "engine.baseline_qps", ">", 0.0),
    ("engine", "engine.block_speedup", ">=", 1.25, AVX2),
    ("engine", "engine.qps", ">=", 568000, AVX2),
    # The multi-bit kNN path keeps recall@k against brute force over
    # enough scored queries, and pays at least the exact path's energy
    # (threshold search cannot stop at step 1).
    ("engine", "approx", "has", ("digit_bits", "k", "threshold", "rules",
                                 "searches", "hit_rate", "recall_at_k",
                                 "recall_queries", "qps",
                                 "energy_per_search_j",
                                 "exact_energy_per_search_j",
                                 "energy_ratio", "distance_histogram")),
    ("engine", "approx.searches", ">", 0),
    ("engine", "approx.qps", ">", 0.0),
    ("engine", "approx.hit_rate", "in", RATE),
    ("engine", "approx.recall_queries", ">=", 100),
    ("engine", "approx.recall_at_k", "in", RATE),
    ("engine", "approx.recall_at_k", ">=", 0.95),
    ("engine", histogram_buckets, "==", threshold_plus_one),
    ("engine", histogram_total, "<=", ref("approx.searches")),
    ("engine", "approx.energy_per_search_j", ">", 0.0),
    ("engine", "approx.exact_energy_per_search_j", ">", 0.0),
    ("engine", "approx.energy_ratio", ">=", 1.0),
    ("engine", "approx.qps", ">=", 50000, AVX2),
    # The live stats scrape carries what a dashboard keys on.
    ("stats", "engine", "has", ("batches", "requests", "searches",
                                "queue_depth", "queue_capacity",
                                "queue_high_watermark", "in_flight",
                                "query_block", "mats_considered",
                                "mats_skipped", "mat_skip_rate")),
    ("stats", "stages", "nonempty", dict),
    ("stats", "stages[]", "has", ("count", "p50_us", "p99_us", "p999_us",
                                  "max_us")),
    ("stats", "slow_queries", "is", list),
    ("stats", "server", "has", ("connections_accepted", "frames_served",
                                "frames_rejected", "backpressure_stalls",
                                "force_closes")),
    # Telemetry left off costs nothing measurable, and metrics stay cheap.
    *[("overhead", f"solver_off_pct.{b}", "<=", 2.0) for b in SOLVER_BENCHES],
    ("overhead", "engine_off_pct", "<=", 2.0),
    ("overhead", "engine_metrics_pct", "<=", 5.0),
]


def computed(x):
    """A field or bound given as a function of the report (not a type)."""
    return callable(x) and not isinstance(x, type)


def label(x):
    if callable(x):
        return x.__name__
    if isinstance(x, set):
        return "|".join(sorted(x))
    if isinstance(x, tuple) and all(isinstance(k, str) for k in x):
        return f"{len(x)} fields"
    if isinstance(x, tuple):
        return f"[{x[0]}, {x[1]}]"
    return "" if x is None else str(x)


def rule_name(rule):
    kind, field, op, bound = rule[:4]
    name = f"{kind}: {label(field)} {op} {label(bound)}".rstrip()
    if len(rule) > 4:
        name += " if {} {} {}".format(*map(label, rule[4]))
    return name


def brief(v):
    if isinstance(v, dict):
        return "present"
    if isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v):
        return f"{len(v)} items"
    return v


def holds(report, field, op, bound):
    """(ok, first failing value or the value) of one check."""
    v = field(report) if computed(field) else get(report, field)
    b = bound(report) if computed(bound) else bound
    for x in (v if isinstance(v, Each) else [v]):
        if not OPS[op](x, b):
            if op == "has" and isinstance(x, dict):
                x = "missing " + ", ".join(k for k in b if k not in x)
            return False, brief(x)
    return True, brief(v)


def verdict(report, rule):
    """("ok" | "FAIL" | "skip", detail) of one rule."""
    try:
        if len(rule) > 4:
            applies, seen = holds(report, *rule[4])
            if not applies:
                return "skip", f"{label(rule[4][0])} is {seen}"
        ok, shown = holds(report, *rule[1:4])
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return "FAIL", f"missing or malformed: {e!r}"
    return ("ok" if ok else "FAIL"), f"{shown}"


def check(report, kind=None):
    """[(rule name, status, detail)] for the rules of the report's kind;
    the kind defaults to the one its schema names."""
    if kind is None:
        schema = report.get("schema") if isinstance(report, dict) else None
        kind = SCHEMAS.get(schema)
        if kind is None:
            return [("schema", "FAIL", f"unknown schema {schema!r}")]
    return [(rule_name(r), *verdict(report, r))
            for r in RULES if r[0] == kind]


# --- overhead: two build trees, telemetry compiled in vs compiled out ---

# Interleaved rounds; solver passes of REPETITIONS each.  Noise on a
# shared runner only ever slows a run, so the gate keeps the minimum time
# per benchmark and the maximum qps per engine arm.
ROUNDS = 8
REPETITIONS = 2
FILTER = "|".join(f"{b}$" for b in SOLVER_BENCHES)
# A search-only trace, large enough that qps is stable while one arm
# stays under about a second on a loaded runner.
ENGINE_ARGS = ["engine", "--queries", "60000", "--rules", "1024",
               "--seed", "3", "--batch", "256"]
ENGINE_ARMS = (("compiled-out", False, None), ("runtime-off", True, "off"),
               ("metrics-on", True, "metrics"))
US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


def solver_pass(build):
    """[(benchmark, cpu us)] of one bench_solver_scaling pass with the
    runtime level off."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "bench.json")
        subprocess.run(
            [os.path.join(build, "bench", "bench_solver_scaling"),
             f"--benchmark_filter={FILTER}",
             f"--benchmark_repetitions={REPETITIONS}",
             f"--benchmark_out={out}", "--benchmark_out_format=json"],
            env=dict(os.environ, FETCAM_OBS="off"), check=True,
            stdout=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as f:
            text = f.read()
    runs = json.loads(text)["benchmarks"] if text.strip() else []
    return [(b["name"], b["cpu_time"] * US[b["time_unit"]]) for b in runs
            if b.get("run_type", "iteration") == "iteration"]


def engine_qps(build, level):
    cmd = [os.path.join(build, "src", "fetcam_cli")]
    if level is not None:
        cmd += ["--obs-level", level]
    out = subprocess.run(cmd + ENGINE_ARGS, check=True, capture_output=True,
                         text=True).stdout
    return float(json.loads(out)["qps"])


def overhead_report(solver_on, solver_off, qps):
    """The overhead report from raw samples: solver_* map a benchmark to
    its cpu us samples, qps maps an engine arm to its qps samples.  A
    benchmark missing from either build, or a zero baseline, leaves its
    field out, which fails its rule."""
    report = {"solver_off_pct": {}}
    for name in solver_on.keys() & solver_off.keys():
        on_t, off_t = min(solver_on[name]), min(solver_off[name])
        if off_t > 0:
            report["solver_off_pct"][name] = 100.0 * (on_t - off_t) / off_t
    base = max(qps.get("compiled-out", [0.0]))
    for arm, key in (("runtime-off", "engine_off_pct"),
                     ("metrics-on", "engine_metrics_pct")):
        if base > 0 and qps.get(arm):
            report[key] = 100.0 * (base - max(qps[arm])) / base
    return report


def measure_overhead(build_on, build_off):
    solver = ({}, {})
    for _ in range(ROUNDS):
        for build, samples in zip((build_on, build_off), solver):
            for name, t in solver_pass(build):
                samples.setdefault(name, []).append(t)
    qps = {arm: [] for arm, _, _ in ENGINE_ARMS}
    for i in range(ROUNDS):
        # Alternate the order so load drift hits every arm from both sides.
        for arm, on, level in ENGINE_ARMS[::1 if i % 2 == 0 else -1]:
            qps[arm].append(engine_qps(build_on if on else build_off, level))
    return overhead_report(*solver, qps)


def main(argv):
    if len(argv) == 3 and argv[0] == "overhead":
        results = check(measure_overhead(argv[1], argv[2]), "overhead")
    elif argv and argv[0] != "overhead":
        results = []
        for path in argv:
            try:
                with open(path, encoding="utf-8") as f:
                    report = json.load(f)
            except (OSError, ValueError) as e:
                results.append((path, "FAIL", f"unreadable: {e}"))
                continue
            results += [(f"{path}: schema" if name == "schema" else name,
                         status, detail)
                        for name, status, detail in check(report)]
    else:
        print(__doc__)
        return 2
    for name, status, detail in results:
        print(f"{status:<4} {name}: {detail}")
    return 1 if any(status == "FAIL" for _, status, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
