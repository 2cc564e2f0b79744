#!/usr/bin/env python3
"""Self-test of the bench gate (tools/check_bench.py).

    python3 tools/test_check_bench.py

One passing report per kind, trimmed from real bench runs; one mutation
per check the gate makes, each expected to fail with its rule named;
bound-edge cases on both sides of every numeric bound (so loosening any
bound in the gate's table turns this test red); an unknown schema; and
the overhead verdict on synthetic samples.
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402

DELETE = object()


def dse_report():
    two_sg = {"design": "2sg", "vdd": 0.7, "latency_ps": 201.316364,
              "objectives": [201.316364, 0.237646438, 1.673125, 0]}
    one_p5 = {"design": "1p5dg", "vdd": 0.7, "latency_ps": 419.485988,
              "objectives": [419.485988, 0.21883868, 0.4920425, 0.953125]}
    return {
        "schema": "fetcam.dse.v1",
        "exact": {"candidates": 256, "evaluated": 256, "skipped": 0,
                  "validated": 0, "eval_fraction": 1,
                  "frontier": [two_sg, one_p5]},
        "surrogate": {"enabled": True, "candidates": 256, "evaluated": 137,
                      "skipped": 119, "validated": 15,
                      "eval_fraction": 0.59375, "frontier": [two_sg]},
        "surrogate_frontier_recall": 1,
        "paper_points": [
            {"design": "2sg", "ok": True, "domination_depth": 0,
             "objectives": [85.3631795, 0.380540972, 2.845, 0]},
            {"design": "1p5dg", "ok": True,
             "domination_depth": 0.0143915138,
             "objectives": [189.427881, 0.624865487, 3.28096, 0.734375]},
        ],
    }


def solver_report():
    return {
        "schema": "fetcam.solver.v1",
        "kernels": [
            {"n": 64, "nnz": 192, "full_factor_us": 6.994,
             "refactor_us": 3.187, "triplet_build_us": 17.512,
             "replay_fill_us": 0.487999},
            {"n": 2048, "nnz": 6268, "full_factor_us": 310.663,
             "refactor_us": 126.347, "triplet_build_us": 567.564,
             "replay_fill_us": 15.327},
        ],
        "newton_path": [
            {"n_bits": 64, "system_size": 55, "scratch_us": 44.616,
             "steady_us": 7.71001, "speedup": 5.78677},
            {"n_bits": 256, "system_size": 151, "scratch_us": 158.109,
             "steady_us": 28.363, "speedup": 5.57448},
        ],
        "transient": [
            {"n_bits": 64, "reuse_on_s": 0.046913, "reuse_off_s": 0.0489864,
             "refactor_hit_rate": 0.974419},
            {"n_bits": 256, "reuse_on_s": 0.167519, "reuse_off_s": 0.204791,
             "refactor_hit_rate": 0.978723},
        ],
    }


def update_report():
    def arm(delta, spread, max_row):
        return {"steps": 24, "delta_write_phases": delta,
                "naive_write_phases": 6912, "keeps": 681,
                "mat_writes": [194, 193, 195, 194], "mat_spread": spread,
                "max_row_writes": max_row}
    return {"schema": "fetcam.update.v1",
            "endurance_aware": arm(1542, 2, 13),
            "capacity_only": arm(1293, 51, 22)}


def engine_report():
    """From the AVX2 tier of a Release build with SIMD on."""
    return {
        "schema": "fetcam.engine.v1",
        "kernel": {"rows": 4096, "cols": 128, "unpacked_us": 67338.7,
                   "packed_us": 100.521, "speedup": 669.897,
                   "two_step_speedup": 32.8452},
        "simd": {"compiled": True, "available": True, "active_tier": "avx2",
                 "scalar_us": 191.161, "simd_us": 62.148, "speedup": 3.0759,
                 "two_step_speedup": 3.32138},
        "multicore": {"configs": [
            {"rules": 2048, "mats": 8, "dispatch_threads": 1, "qps": 718924},
            {"rules": 65536, "mats": 64, "dispatch_threads": 4,
             "qps": 55451.8}], "best_qps": 718924},
        "wire": {"clients": 2, "frames_per_client": 100,
                 "queries_per_frame": 64, "frames_served": 200,
                 "qps": 667095, "rtt_p50_us": 1474.5, "rtt_p99_us": 1932.54},
        "approx": {"digit_bits": 2, "k": 4, "threshold": 2, "rules": 2048,
                   "searches": 20000, "hit_rate": 0.49445, "recall_at_k": 1,
                   "recall_queries": 977, "qps": 1357410.0,
                   "energy_per_search_j": 2.14958e-10,
                   "exact_energy_per_search_j": 4.98307e-11,
                   "energy_ratio": 4.31377,
                   "distance_histogram": [3368, 3350, 3171]},
        "engine": {"searches": 49452, "hit_rate": 1, "step1_miss_rate": 0.98708,
                   "query_block": 8, "baseline_qps": 1257750.0,
                   "block_speedup": 2.0353, "mats_considered": 395616,
                   "mats_skipped": 246677, "mat_skip_rate": 0.623526,
                   "energy_per_search_j": 5.1942e-11, "qps": 2559890.0,
                   "p50_batch_us": 180.339, "p99_batch_us": 364.842},
    }


def engine_scalar_report():
    """From a -DFETCAM_SIMD=OFF build: the AVX2-tier floors do not apply."""
    report = engine_report()
    report["simd"] = {"compiled": False, "available": False,
                      "active_tier": "scalar", "scalar_us": 191.161,
                      "simd_us": 0, "speedup": 0, "two_step_speedup": 0}
    report["engine"]["qps"] = 1103210.0
    report["engine"]["block_speedup"] = 1.1
    report["multicore"]["best_qps"] = 107459
    report["wire"]["qps"] = 22042.6
    report["approx"]["qps"] = 23127.8
    return report


def stats_report():
    return {
        "schema": "fetcam.stats.v1",
        "engine": {"batches": 200, "requests": 12800, "searches": 12800,
                   "queue_depth": 0, "queue_capacity": 8,
                   "queue_high_watermark": 8, "in_flight": 0,
                   "query_block": 8, "mats_considered": 102400,
                   "mats_skipped": 0, "mat_skip_rate": 0},
        "stages": {"engine.stage.match": {
            "count": 200, "p50_us": 81.919, "p99_us": 106.495,
            "p999_us": 164.694, "max_us": 164.694}},
        "slow_queries": [{"seq": 169, "total_us": 1007.057}],
        "server": {"connections_accepted": 3, "frames_served": 200,
                   "frames_rejected": 0, "backpressure_stalls": 0,
                   "force_closes": 0},
    }


BASES = {"dse": dse_report, "solver": solver_report, "update": update_report,
         "engine": engine_report, "engine_scalar": engine_scalar_report,
         "stats": stats_report}


def mutate(report, changes):
    """A copy of report with each dotted path set (or deleted); integer
    parts index lists."""
    report = copy.deepcopy(report)
    for path, new in changes.items():
        *parents, last = [int(p) if p.isdigit() else p
                          for p in path.split(".")]
        doc = report
        for p in parents:
            doc = doc[p]
        if new is DELETE:
            del doc[last]
        else:
            doc[last] = new
    return report


def without_stage_field(field):
    def stages(report):
        return {name: {k: v for k, v in stage.items() if k != field}
                for name, stage in report["stages"].items()}
    return stages


def one_p5_only(report):
    return [p for p in report["exact"]["frontier"] if p["design"] != "2sg"]


def two_sg_only(report):
    return [p for p in report["exact"]["frontier"] if p["design"] == "2sg"]


# Base report names, short for the case tables below.
D, S, U, E, C, T = ("dse", "solver", "update", "engine", "engine_scalar",
                    "stats")
ENGINE_FIELDS = ["query_block", "baseline_qps", "block_speedup",
                 "mats_considered", "mats_skipped", "mat_skip_rate"]
APPROX_FIELDS = ["digit_bits", "k", "threshold", "rules", "searches",
                 "hit_rate", "recall_at_k", "recall_queries", "qps",
                 "energy_per_search_j", "exact_energy_per_search_j",
                 "energy_ratio", "distance_histogram"]
STATS_ENGINE_FIELDS = ["batches", "requests", "searches", "queue_depth",
                       "queue_capacity", "queue_high_watermark", "in_flight",
                       "query_block", "mats_considered", "mats_skipped",
                       "mat_skip_rate"]
STAGE_FIELDS = ["count", "p50_us", "p99_us", "p999_us", "max_us"]
SERVER_FIELDS = ["connections_accepted", "frames_served", "frames_rejected",
                 "backpressure_stalls", "force_closes"]

# (base, {path: new value}, rule expected to fail).  A value may be a
# function of the base report.  Each row breaks one check the gate makes.
MUTATIONS = [
    (D, {"schema": "fetcam.dse.v0"}, "schema"),
    (D, {"exact": DELETE}, "dse: exact.candidates > 0"),
    (D, {"exact.candidates": 0}, "dse: exact.candidates > 0"),
    (D, {"exact.evaluated": 0}, "dse: exact.evaluated > 0"),
    (D, {"exact.frontier": []}, "dse: exact.frontier nonempty list"),
    (D, {"exact.frontier": one_p5_only},
     "dse: frontier_designs meets 2dg|2sg"),
    (D, {"exact.frontier": two_sg_only},
     "dse: frontier_designs meets 1p5dg|1p5sg"),
    (D, {"exact.frontier": lambda r: r["exact"]["frontier"] + [
        {"objectives": [1.0, 1.0, 1.0, 0.0]}]},
     "dse: frontier_designs meets 2dg|2sg"),
    (D, {"exact.frontier.1.objectives.2": None},
     "dse: exact.frontier[].objectives finite"),
    (D, {"paper_points": []}, "dse: paper_points nonempty list"),
    (D, {"paper_points.1.ok": False}, "dse: paper_points[].ok == True"),
    (D, {"paper_points.1.domination_depth": 0.2},
     "dse: paper_points[].domination_depth <= 0.05"),
    (D, {"surrogate.enabled": False}, "dse: surrogate.enabled == True"),
    (D, {"surrogate.eval_fraction": 0.7},
     "dse: surrogate.eval_fraction <= 0.6"),
    (D, {"surrogate_frontier_recall": 0.9},
     "dse: surrogate_frontier_recall >= 0.95"),
    (D, {"surrogate.validated": 0},
     "dse: surrogate.validated > 0 if surrogate.skipped > 0"),
    (S, {"kernels": []}, "solver: kernels nonempty list"),
    (S, {"kernels.1.replay_fill_us": 400.0},
     "solver: largest_path_speedup >= 2.0"),
    (S, {"kernels.1.refactor_us": 310.663},
     "solver: largest_factor_speedup >= 1.5"),
    (S, {"newton_path.1.speedup": 1.9}, "solver: newton_path_256 >= 2.0"),
    (S, {"transient.0.refactor_hit_rate": 0.8},
     "solver: transient_hit_rates >= 0.9"),
    (U, {"endurance_aware": DELETE}, "update: endurance_aware.steps > 0"),
    (U, {"capacity_only": DELETE}, "update: capacity_only.steps > 0"),
    (U, {"endurance_aware.steps": 0}, "update: endurance_aware.steps > 0"),
    (U, {"capacity_only.steps": 0}, "update: capacity_only.steps > 0"),
    (U, {"endurance_aware.naive_write_phases": 0},
     "update: endurance_aware.naive_write_phases > 0"),
    (U, {"capacity_only.naive_write_phases": 0},
     "update: capacity_only.naive_write_phases > 0"),
    (U, {"endurance_aware.keeps": 0}, "update: endurance_aware.keeps > 0"),
    (U, {"capacity_only.keeps": 0}, "update: capacity_only.keeps > 0"),
    (U, {"endurance_aware.delta_write_phases": 0},
     "update: endurance_aware.delta_write_phases > 0"),
    (U, {"capacity_only.delta_write_phases": 0},
     "update: capacity_only.delta_write_phases > 0"),
    (U, {"endurance_aware.delta_write_phases": 4000},
     "update: delta_fraction <= 0.5"),
    (U, {"endurance_aware.mat_spread": DELETE},
     "update: endurance_aware.mat_spread >= 0"),
    (U, {"capacity_only.mat_spread": DELETE},
     "update: capacity_only.mat_spread >= 0"),
    (U, {"endurance_aware.mat_spread": 60},
     "update: endurance_aware.mat_spread <= capacity_only.mat_spread"),
    (U, {"endurance_aware.max_row_writes": 30},
     "update: endurance_aware.max_row_writes <= "
     "capacity_only.max_row_writes"),
    (E, {"kernel": DELETE}, "engine: kernel.rows == 4096"),
    (E, {"kernel.rows": 2048}, "engine: kernel.rows == 4096"),
    (E, {"kernel.cols": 64}, "engine: kernel.cols == 128"),
    (E, {"kernel.speedup": 3.5}, "engine: kernel.speedup >= 4.0"),
    (E, {"kernel.two_step_speedup": 0.0},
     "engine: kernel.two_step_speedup > 0.0"),
    (E, {"simd": DELETE},
     "engine: simd.available == True if simd.compiled == True"),
    (E, {"simd.available": False},
     "engine: simd.available == True if simd.compiled == True"),
    (E, {"simd.speedup": 1.5},
     "engine: simd.speedup >= 2.0 if simd.available == True"),
    (E, {"simd.two_step_speedup": 1.5},
     "engine: simd.two_step_speedup >= 2.0 if simd.available == True"),
    (E, {"multicore": DELETE}, "engine: multicore.configs nonempty list"),
    (E, {"multicore.configs": []}, "engine: multicore.configs nonempty list"),
    (E, {"multicore.configs.1.qps": 0.0},
     "engine: multicore.configs[].qps > 0.0"),
    (E, {"multicore.best_qps": 90000},
     "engine: multicore.best_qps >= 100000 if simd.active_tier == avx2"),
    (E, {"wire": DELETE}, "engine: wire.frames_served == frames_sent"),
    (E, {"wire.frames_served": 199},
     "engine: wire.frames_served == frames_sent"),
    (E, {"wire.qps": 0.0}, "engine: wire.qps > 0.0"),
    (E, {"wire.rtt_p50_us": 0.0}, "engine: wire.rtt_p50_us > 0.0"),
    (E, {"wire.rtt_p99_us": 1000.0},
     "engine: wire.rtt_p99_us >= wire.rtt_p50_us"),
    (E, {"wire.qps": 90000},
     "engine: wire.qps >= 100000 if simd.active_tier == avx2"),
    (E, {"engine": DELETE}, "engine: engine.searches > 0"),
    (E, {"engine.searches": 0}, "engine: engine.searches > 0"),
    (E, {"engine.qps": 0.0}, "engine: engine.qps > 0.0"),
    (E, {"engine.hit_rate": 1.5}, "engine: engine.hit_rate in [0.0, 1.0]"),
    (E, {"engine.step1_miss_rate": -0.5},
     "engine: engine.step1_miss_rate in [0.0, 1.0]"),
    (E, {"engine.energy_per_search_j": 0.0},
     "engine: engine.energy_per_search_j > 0.0"),
    (E, {"engine.p99_batch_us": 100.0},
     "engine: engine.p99_batch_us >= engine.p50_batch_us"),
    *[(E, {f"engine.{f}": DELETE}, "engine: engine has 6 fields")
      for f in ENGINE_FIELDS],
    (E, {"engine.query_block": 0}, "engine: engine.query_block >= 1"),
    (E, {"engine.mat_skip_rate": 1.5},
     "engine: engine.mat_skip_rate in [0.0, 1.0]"),
    (E, {"engine.mats_skipped": 400000},
     "engine: engine.mats_skipped <= engine.mats_considered"),
    (E, {"engine.baseline_qps": 0.0}, "engine: engine.baseline_qps > 0.0"),
    (E, {"engine.block_speedup": 1.1},
     "engine: engine.block_speedup >= 1.25 if simd.active_tier == avx2"),
    (E, {"engine.qps": 500000},
     "engine: engine.qps >= 568000 if simd.active_tier == avx2"),
    (E, {"approx": DELETE}, "engine: approx has 13 fields"),
    *[(E, {f"approx.{f}": DELETE}, "engine: approx has 13 fields")
      for f in APPROX_FIELDS],
    (E, {"approx.searches": 0}, "engine: approx.searches > 0"),
    (E, {"approx.qps": 0.0}, "engine: approx.qps > 0.0"),
    (E, {"approx.hit_rate": 1.5}, "engine: approx.hit_rate in [0.0, 1.0]"),
    (E, {"approx.recall_queries": 50}, "engine: approx.recall_queries >= 100"),
    (E, {"approx.recall_at_k": 1.5},
     "engine: approx.recall_at_k in [0.0, 1.0]"),
    (E, {"approx.recall_at_k": 0.9}, "engine: approx.recall_at_k >= 0.95"),
    (E, {"approx.distance_histogram": [1, 2]},
     "engine: histogram_buckets == threshold_plus_one"),
    (E, {"approx.distance_histogram": "3368,3350,3171"},
     "engine: histogram_buckets == threshold_plus_one"),
    (E, {"approx.distance_histogram": [10000, 10000, 1]},
     "engine: histogram_total <= approx.searches"),
    (E, {"approx.energy_per_search_j": 0.0},
     "engine: approx.energy_per_search_j > 0.0"),
    (E, {"approx.exact_energy_per_search_j": 0.0},
     "engine: approx.exact_energy_per_search_j > 0.0"),
    (E, {"approx.energy_ratio": 0.9}, "engine: approx.energy_ratio >= 1.0"),
    (E, {"approx.qps": 40000},
     "engine: approx.qps >= 50000 if simd.active_tier == avx2"),
    (T, {"schema": "fetcam.stats.v0"}, "schema"),
    (T, {"engine": []}, "stats: engine has 11 fields"),
    *[(T, {f"engine.{f}": DELETE}, "stats: engine has 11 fields")
      for f in STATS_ENGINE_FIELDS],
    (T, {"stages": {}}, "stats: stages nonempty dict"),
    (T, {"stages": []}, "stats: stages nonempty dict"),
    *[(T, {"stages": without_stage_field(f)}, "stats: stages[] has 5 fields")
      for f in STAGE_FIELDS],
    (T, {"slow_queries": {}}, "stats: slow_queries is list"),
    (T, {"server": DELETE}, "stats: server has 5 fields"),
    *[(T, {f"server.{f}": DELETE}, "stats: server has 5 fields")
      for f in SERVER_FIELDS],
]

# Reports that failed nothing before the gate read every field it uses,
# and now fail closed.
TIGHTENINGS = [
    (U, {"endurance_aware.max_row_writes": DELETE,
         "capacity_only.max_row_writes": DELETE},
     "update: endurance_aware.max_row_writes <= "
     "capacity_only.max_row_writes"),
    (S, {"newton_path.1.n_bits": 128}, "solver: newton_path_256 >= 2.0"),
    (S, {"newton_path": DELETE}, "solver: newton_path_256 >= 2.0"),
    (D, {"surrogate.skipped": DELETE},
     "dse: surrogate.validated > 0 if surrogate.skipped > 0"),
    (E, {"wire.clients": DELETE, "wire.frames_per_client": DELETE,
         "wire.frames_served": DELETE},
     "engine: wire.frames_served == frames_sent"),
    (E, {"engine.p50_batch_us": DELETE, "engine.p99_batch_us": DELETE},
     "engine: engine.p99_batch_us >= engine.p50_batch_us"),
    (C, {"simd.compiled": DELETE},
     "engine: simd.available == True if simd.compiled == True"),
    (C, {"simd.available": DELETE},
     "engine: simd.speedup >= 2.0 if simd.available == True"),
    (C, {"simd.active_tier": DELETE},
     "engine: engine.qps >= 568000 if simd.active_tier == avx2"),
    (C, {"schema": DELETE}, "schema"),
]

# (base, changes) that must still pass: each bound is inclusive or
# exclusive as before, and a bound that applies only on the AVX2 tier or
# with AVX2 compiled in does not apply without it.
PASSES = [
    (D, {"paper_points.1.domination_depth": 0.05}),
    (D, {"surrogate.eval_fraction": 0.60}),
    (D, {"surrogate_frontier_recall": 0.95}),
    (D, {"surrogate.skipped": 0, "surrogate.validated": 0}),
    (D, {"exact.candidates": 1, "exact.evaluated": 1}),
    (S, {"kernels.1.triplet_build_us": 5.0, "kernels.1.full_factor_us": 3.0,
         "kernels.1.replay_fill_us": 2.0, "kernels.1.refactor_us": 2.0}),
    (S, {"newton_path.1.speedup": 2.0}),
    (S, {"newton_path.0.speedup": 1.0}),
    (S, {"transient.0.refactor_hit_rate": 0.9}),
    (S, {"transient": DELETE}),
    (U, {"endurance_aware.delta_write_phases": 3456}),
    (U, {"endurance_aware.mat_spread": 0, "capacity_only.mat_spread": 0}),
    (U, {"endurance_aware.mat_spread": 51}),
    (U, {"endurance_aware.max_row_writes": 22}),
    (E, {"kernel.speedup": 4.0}),
    (E, {"simd.speedup": 2.0, "simd.two_step_speedup": 2.0}),
    (E, {"multicore.best_qps": 100000, "wire.qps": 100000}),
    (E, {"wire.rtt_p99_us": 1474.5}),
    (E, {"engine.hit_rate": 0.0, "engine.step1_miss_rate": 1.0,
         "engine.mat_skip_rate": 1.0}),
    (E, {"engine.hit_rate": 1.0, "engine.step1_miss_rate": 0.0,
         "engine.mat_skip_rate": 0.0}),
    (E, {"engine.p99_batch_us": 180.339}),
    (E, {"engine.query_block": 1}),
    (E, {"engine.mats_skipped": 395616}),
    (E, {"engine.block_speedup": 1.25, "engine.qps": 568000}),
    (E, {"approx.recall_queries": 100, "approx.recall_at_k": 0.95}),
    (E, {"approx.hit_rate": 0.0}),
    (E, {"approx.hit_rate": 1.0, "approx.recall_at_k": 1.0}),
    (E, {"approx.distance_histogram": [20000, 0, 0]}),
    (E, {"approx.energy_ratio": 1.0, "approx.qps": 50000}),
    (C, {"engine.qps": 1.0, "engine.block_speedup": 0.5,
         "multicore.best_qps": 1.0, "wire.qps": 1.0, "approx.qps": 1.0}),
    (C, {"simd.compiled": True, "simd.available": True,
         "simd.active_tier": "scalar", "simd.speedup": 2.0,
         "simd.two_step_speedup": 2.0}),
    (T, {"slow_queries": []}),
]

# (base, changes, rule): just past each numeric bound, within a hundredth
# of it, so that loosening any bound of the table lets one of these pass.
EDGES = [
    (D, {"paper_points.1.domination_depth": 0.0500001},
     "dse: paper_points[].domination_depth <= 0.05"),
    (D, {"surrogate.eval_fraction": 0.6000001},
     "dse: surrogate.eval_fraction <= 0.6"),
    (D, {"surrogate_frontier_recall": 0.9499999},
     "dse: surrogate_frontier_recall >= 0.95"),
    (S, {"kernels.1.triplet_build_us": 5.0, "kernels.1.full_factor_us": 3.0,
         "kernels.1.replay_fill_us": 2.000001, "kernels.1.refactor_us": 2.0},
     "solver: largest_path_speedup >= 2.0"),
    (S, {"kernels.1.triplet_build_us": 5.0, "kernels.1.full_factor_us": 2.999999,
         "kernels.1.replay_fill_us": 2.0, "kernels.1.refactor_us": 2.0},
     "solver: largest_factor_speedup >= 1.5"),
    (S, {"newton_path.1.speedup": 1.999999}, "solver: newton_path_256 >= 2.0"),
    (S, {"transient.1.refactor_hit_rate": 0.8999999},
     "solver: transient_hit_rates >= 0.9"),
    (U, {"endurance_aware.delta_write_phases": 3457},
     "update: delta_fraction <= 0.5"),
    (U, {"endurance_aware.mat_spread": -0.001},
     "update: endurance_aware.mat_spread >= 0"),
    (U, {"capacity_only.mat_spread": -0.001},
     "update: capacity_only.mat_spread >= 0"),
    (E, {"kernel.speedup": 3.999999}, "engine: kernel.speedup >= 4.0"),
    (E, {"simd.speedup": 1.999999},
     "engine: simd.speedup >= 2.0 if simd.available == True"),
    (E, {"simd.two_step_speedup": 1.999999},
     "engine: simd.two_step_speedup >= 2.0 if simd.available == True"),
    (E, {"multicore.best_qps": 99999.99},
     "engine: multicore.best_qps >= 100000 if simd.active_tier == avx2"),
    (E, {"wire.qps": 99999.99},
     "engine: wire.qps >= 100000 if simd.active_tier == avx2"),
    (E, {"wire.rtt_p99_us": 1474.499},
     "engine: wire.rtt_p99_us >= wire.rtt_p50_us"),
    *[(E, {f"engine.{f}": v}, f"engine: engine.{f} in [0.0, 1.0]")
      for f in ("hit_rate", "step1_miss_rate", "mat_skip_rate")
      for v in (-1e-9, 1.000000001)],
    (E, {"engine.query_block": 0.999999}, "engine: engine.query_block >= 1"),
    (E, {"engine.mats_skipped": 395617},
     "engine: engine.mats_skipped <= engine.mats_considered"),
    (E, {"engine.block_speedup": 1.249999},
     "engine: engine.block_speedup >= 1.25 if simd.active_tier == avx2"),
    (E, {"engine.qps": 567999.9},
     "engine: engine.qps >= 568000 if simd.active_tier == avx2"),
    *[(E, {f"approx.{f}": v}, f"engine: approx.{f} in [0.0, 1.0]")
      for f in ("hit_rate", "recall_at_k") for v in (-1e-9, 1.000000001)],
    (E, {"approx.recall_queries": 99.99999},
     "engine: approx.recall_queries >= 100"),
    (E, {"approx.recall_at_k": 0.9499999},
     "engine: approx.recall_at_k >= 0.95"),
    (E, {"approx.distance_histogram": [20000, 0, 1]},
     "engine: histogram_total <= approx.searches"),
    (E, {"approx.energy_ratio": 0.9999999},
     "engine: approx.energy_ratio >= 1.0"),
    (E, {"approx.qps": 49999.99},
     "engine: approx.qps >= 50000 if simd.active_tier == avx2"),
]


def build(base, changes):
    report = BASES[base]()
    return mutate(report, {p: v(report) if callable(v) else v
                           for p, v in changes.items()})


def failures(report, kind=None):
    return {name for name, status, _ in check_bench.check(report, kind)
            if status == "FAIL"}


class Reports(unittest.TestCase):
    def test_every_base_report_passes(self):
        for base in BASES:
            with self.subTest(base=base):
                self.assertEqual(failures(build(base, {})), set())

    def test_every_rule_is_exercised(self):
        expected = {rule for _, _, rule in MUTATIONS + TIGHTENINGS + EDGES}
        names = {check_bench.rule_name(r) for r in check_bench.RULES
                 if r[0] != "overhead"}
        self.assertEqual(names - expected, set())

    def assert_fails(self, cases):
        for base, changes, rule in cases:
            with self.subTest(base=base, changes=list(changes), rule=rule):
                self.assertIn(rule, failures(build(base, changes)))

    def test_each_mutation_fails_its_rule(self):
        self.assert_fails(MUTATIONS)

    def test_fail_closed_on_missing_fields(self):
        self.assert_fails(TIGHTENINGS)

    def test_bound_edges_fail_just_past_the_bound(self):
        self.assert_fails(EDGES)

    def test_bound_edges_and_conditions_pass(self):
        for base, changes in PASSES:
            with self.subTest(base=base, changes=list(changes)):
                self.assertEqual(failures(build(base, changes)), set())

    def test_unknown_or_missing_schema_fails(self):
        for report in ({"schema": "fetcam.bogus.v1"}, {}, [], "x"):
            self.assertEqual(failures(report), {"schema"})

    def test_conditional_rules_are_skipped_not_passed(self):
        statuses = {name: status for name, status, _ in
                    check_bench.check(engine_scalar_report())}
        self.assertEqual(
            statuses["engine: engine.qps >= 568000 if simd.active_tier == "
                     "avx2"], "skip")
        self.assertEqual(statuses["engine: engine.qps > 0.0"], "ok")


def overhead(on=(101.0, 102.0), off=(100.0, 103.0), base=(90.0, 100.0),
             runtime_off=(98.0, 97.0), metrics=(95.0, 94.0), drop=None):
    solver_on = {b: list(on) for b in check_bench.SOLVER_BENCHES}
    solver_off = {b: list(off) for b in check_bench.SOLVER_BENCHES}
    if drop:
        del solver_on[drop]
    qps = {"compiled-out": list(base), "runtime-off": list(runtime_off),
           "metrics-on": list(metrics)}
    return failures(check_bench.overhead_report(solver_on, solver_off, qps),
                    "overhead")


class Overhead(unittest.TestCase):
    OFF = "overhead: engine_off_pct <= 2.0"
    METRICS = "overhead: engine_metrics_pct <= 5.0"

    def solver_rule(self, bench):
        return f"overhead: solver_off_pct.{bench} <= 2.0"

    def test_budgets_are_inclusive_on_min_time_and_max_qps(self):
        # min(on) 101 vs min(off) 100: 1%; max qps 100 vs 98 and 95: 2%, 5%.
        self.assertEqual(overhead(), set())
        self.assertEqual(overhead(on=(102.0, 140.0)), set())

    def test_solver_over_budget_fails_each_benchmark(self):
        self.assertEqual(
            overhead(on=(102.0001, 103.0)),
            {self.solver_rule(b) for b in check_bench.SOLVER_BENCHES})

    def test_engine_over_budget_fails(self):
        self.assertEqual(overhead(runtime_off=(97.9999,)), {self.OFF})
        self.assertEqual(overhead(metrics=(94.9999,)), {self.METRICS})

    def test_missing_benchmark_fails(self):
        bench = check_bench.SOLVER_BENCHES[1]
        self.assertEqual(overhead(drop=bench), {self.solver_rule(bench)})
        self.assertEqual(
            failures(check_bench.overhead_report({}, {}, {}), "overhead"),
            {self.solver_rule(b) for b in check_bench.SOLVER_BENCHES}
            | {self.OFF, self.METRICS})

    def test_zero_baseline_fails(self):
        self.assertEqual(overhead(off=(0.0,)),
                         {self.solver_rule(b)
                          for b in check_bench.SOLVER_BENCHES})
        self.assertEqual(overhead(base=(0.0,)), {self.OFF, self.METRICS})

    def test_filter_names_each_benchmark(self):
        self.assertEqual(check_bench.FILTER,
                         "BM_DenseLu/256$|BM_SparseLu/2048$"
                         "|BM_WordSearchTransient/32$")


if __name__ == "__main__":
    unittest.main()
