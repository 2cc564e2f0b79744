#!/usr/bin/env python3
"""CI guard: the KLU-style refactor path must stay fast.

Reads the machine-readable report emitted by

    bench_solver_scaling --solver-json=BENCH_solver.json

and fails when, at the LARGEST kernel size:

  * the steady-state per-iteration path (stamp-slot replay + numeric-only
    refactor) is not at least MIN_PATH_SPEEDUP x faster than the from-scratch
    path (triplet CSC build + full symbolic+numeric factor) -- this is the
    cost a Newton iteration actually pays, and the headline the reuse
    machinery must earn; and
  * the refactor kernel alone is not at least MIN_FACTOR_SPEEDUP x faster
    than the full factor kernel -- a floor that catches regressions hidden
    by assembly wins.

When the report carries end-to-end transient sections it also checks the
refactor hit rate (>= MIN_HIT_RATE): a cold cache means the pattern keying
broke and every "refactor" silently full-factors.

The dense_replay section (the dense LU's structural replay on the word
harness's own Jacobians) is printed for the record and gated on nothing.

Usage: check_solver_speedup.py BENCH_solver.json
"""

import json
import sys

MIN_PATH_SPEEDUP = 2.0
MIN_FACTOR_SPEEDUP = 1.5
MIN_HIT_RATE = 0.9


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        report = json.load(f)

    kernels = report.get("kernels", [])
    if not kernels:
        print("FAIL: no kernel rows in report")
        return 1
    largest = max(kernels, key=lambda r: r["n"])
    scratch = largest["triplet_build_us"] + largest["full_factor_us"]
    steady = largest["replay_fill_us"] + largest["refactor_us"]
    path_speedup = scratch / steady if steady > 0 else 0.0
    factor_speedup = (
        largest["full_factor_us"] / largest["refactor_us"]
        if largest["refactor_us"] > 0
        else 0.0
    )
    print(
        f"n={largest['n']}: scratch path {scratch:.1f}us, "
        f"steady path {steady:.1f}us -> {path_speedup:.2f}x "
        f"(factor kernel alone {factor_speedup:.2f}x)"
    )
    ok = True
    if path_speedup < MIN_PATH_SPEEDUP:
        print(
            f"FAIL: steady-state path speedup {path_speedup:.2f}x "
            f"< {MIN_PATH_SPEEDUP}x at n={largest['n']}"
        )
        ok = False
    if factor_speedup < MIN_FACTOR_SPEEDUP:
        print(
            f"FAIL: refactor kernel speedup {factor_speedup:.2f}x "
            f"< {MIN_FACTOR_SPEEDUP}x at n={largest['n']}"
        )
        ok = False

    # Acceptance target: >= 2x on the per-iteration Newton solver path at
    # the paper-scale (256-bit) match-line slice.
    for np_row in report.get("newton_path", []):
        speedup = np_row.get("speedup", 0.0)
        print(
            f"newton_path n_bits={np_row['n_bits']} "
            f"(n={np_row['system_size']}): scratch {np_row['scratch_us']:.1f}us, "
            f"steady {np_row['steady_us']:.1f}us -> {speedup:.2f}x"
        )
        if np_row["n_bits"] >= 256 and speedup < MIN_PATH_SPEEDUP:
            print(
                f"FAIL: newton path speedup {speedup:.2f}x < {MIN_PATH_SPEEDUP}x "
                f"at n_bits={np_row['n_bits']}"
            )
            ok = False

    for ab in report.get("transient", []):
        hit = ab.get("refactor_hit_rate", 0.0)
        print(
            f"transient n_bits={ab['n_bits']}: hit_rate={hit:.3f} "
            f"reuse_on={ab['reuse_on_s']:.3f}s reuse_off={ab['reuse_off_s']:.3f}s"
        )
        if hit < MIN_HIT_RATE:
            print(
                f"FAIL: refactor hit rate {hit:.3f} < {MIN_HIT_RATE} "
                f"at n_bits={ab['n_bits']}"
            )
            ok = False

    for dr in report.get("dense_replay", []):
        replay = dr["replay_us"]
        print(
            f"dense_replay {dr['design']} n_bits={dr['n_bits']} (n={dr['n']}): "
            f"fresh factor {dr['fresh_factor_us']:.2f}us, "
            f"replay {replay:.2f}us "
            f"({dr['fresh_factor_us'] / replay if replay > 0 else 0.0:.2f}x), "
            f"solve {dr['solve_us']:.2f}us, "
            f"records/transient {dr['records_per_transient']} "
            f"(replays {dr['replays_per_transient']} of "
            f"{dr['factors_per_transient']} factors)"
        )

    print("OK" if ok else "solver perf guard failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
