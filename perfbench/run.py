"""The repository's benchmark: closed-loop passes, each in a fresh worker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

This runner starts one worker process at a time (`worker.py`) and
waits for it, so no two passes overlap.  Each worker imports the package
from `src/` of this checkout, sets up, runs one pass and checks it.

--trace 0 first times SETUP_SAMPLES set-ups alone, then starts passes
while the next one is expected to end within --seconds of the start (at
least MIN_PASSES), and reports the end-to-end metrics named in
BENCHMARK.json: medians over the passes (set-up time over passes and
set-ups alone) and tuples certified per second at the workload's fixed
tuple count.  Pass and set-up times are calibrated: each is a wall time
scaled by the machine's speed meanwhile, as the worker's speed probe
measured it against a fixed reference (see worker.py), because this host's
speed drifts by more than the bounds.  The uncalibrated wall times and the
speeds are kept in the result file too.  The slowest pass and the sample
count are printed and kept in the result file; with a handful of passes
per run the slowest one is too noisy to carry a bound, and the failed
share is carried by the attempted and failed counts because it is 0 when
all is well.
--trace 1 runs one untraced and TRACED_PASSES traced passes and reports
the per-layer metrics.  It is correct only if all passes give the same
verdicts and the traced passes the same counts; the tracing overhead is
the traced minus the untraced calibrated pass time.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Each
run also writes a result file, and a traced run its spans, to
perfbench/results/.  Only the dense-forms workload uses --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKER = BENCH / "worker.py"
PACKAGE_INIT = ROOT / "src" / "homotopy_cumulants" / "__init__.py"

MIN_PASSES = 3
SETUP_SAMPLES = 7
TRACED_PASSES = 2
# a run ends within 180 s: no pass starts after this, none outlives it
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0

# What BENCHMARK.json's one-line `why` cannot hold.  `tuples` is the number
# of input tuples a pass certifies, counted by the traced run at the seed
# commit: grid tuples swept by maps_equal_on_truncation plus cumulant
# tuples checked by the suites (or the benchmark).
WORKLOADS = {
    "verify-all-n4": {
        "seeded": False,
        "tuples": 33909,
        "chosen": "The user-facing `verify all --n-max 4 --degree 2`: the "
                  "scaled-down form of the ROADMAP's --n-max 4 figure, and "
                  "the only workload through cli and suites.",
        "loads": "all seven modules; hom_complex composite maps and "
                 "interval_model arithmetic most, in the g4 cells",
        "bypasses": "nothing",
    },
    "cumulants-n5": {
        "seeded": False,
        "tuples": 37784,
        "chosen": "Direct against recursive K_5 on 8^5 grid tuples: the "
                  "cumulant recursion and the cup product without any "
                  "MultiMap, so a hom_complex change must not move it.",
        "loads": "cumulants and interval_model.cup / Cochain",
        "bypasses": "hom_complex, cube_complex, formal_ainfty, cli",
    },
    "dense-forms": {
        "seeded": True,
        "tuples": 400,
        "chosen": "The PolyForm path of `cumulant --inputs`: seeded off-grid "
                  "mixed forms, so memos rarely hit, Koszul expansions "
                  "split into 2^n summands and Fractions carry denominators.",
        "loads": "hom_complex d-insertions and cup_pair expansions, "
                 "interval_model polynomial arithmetic, cumulants",
        "bypasses": "grid sweeps, cube_complex, formal_ainfty, suites, cli",
    },
}

# Which end-to-end metric, on which workload, each per-layer metric moves.
ALL = "verify-all-n4, cumulants-n5, dense-forms"
RUN, RATE = "calibrated_run_s", "calibrated_tuples_per_s"
MOVES = {
    **{f"interval_model.{name}.calls": f"{RUN} on {ALL}" for name in
       ("wedge", "integrate", "d_form", "delta")},
    "interval_model.cup.calls": f"{RUN} on {ALL}; most on cumulants-n5",
    "interval_model.iterated_integral.calls":
        f"{RUN} on {ALL}; most on verify-all-n4 and dense-forms",
    "interval_model.iterated_integral.us_per_call":
        f"{RUN} on {ALL}; most on verify-all-n4 and dense-forms",
    "interval_model.self_s": f"{RUN} on {ALL}",
    **{name: f"{RUN} on cumulants-n5 (a small share on verify-all-n4)" for name in
       ("cumulants.cumulant.calls", "cumulants.cumulant_recursive.calls",
        "cumulants.recursive.hit_ratio", "cumulants.context.apply.calls",
        "cumulants.context.multiply.calls", "cumulants.self_s")},
    **{name: f"{RUN} and {RATE} on verify-all-n4; not cumulants-n5" for name in
       ("hom_complex.multimap.evals", "hom_complex.multimap.built",
        "hom_complex.sweep.calls", "hom_complex.sweep.tuples",
        "hom_complex.sweep.s", "hom_complex.self_s")},
    "hom_complex.multimap.misses":
        f"{RUN}, {RATE} and peak_rss_mb on verify-all-n4; not cumulants-n5",
    "hom_complex.memo_hit_ratio": f"{RUN} and {RATE} on verify-all-n4 "
                                  "(base: multimap.evals; lower on dense-forms)",
    **{name: f"{RUN} on verify-all-n4" for name in
       ("cube_complex.verify_cell.calls", "cube_complex.cell_to_map.calls",
        "cube_complex.verify_cell.s", "cube_complex.self_s",
        "formal_ainfty.formal_boundary.calls", "formal_ainfty.interpret_sum.calls",
        "formal_ainfty.self_s")},
    **{name: f"setup_s and {RUN} on verify-all-n4" for name in
       ("suites.entries", "suites.self_s", "cli.self_s", "cli.report_bytes")},
    "tuples": f"{RATE} on the same workload (its fixed numerator)",
    "trace.run_s": f"nothing: {RUN} of a traced pass, for the overhead",
    "trace.overhead_s": f"nothing: traced minus untraced {RUN}",
}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def read_loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_worker(workload: str, seed: int, trace: bool, tmp: Path,
               deadline: float, *options: str) -> dict:
    """One pass in a fresh process; {'error': ...} if it does not finish cleanly."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)), "--tmp", str(tmp),
               *options]
    started = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "wall_s": time.monotonic() - started}
    wall_s = time.monotonic() - started
    if done.returncode != 0:
        last_lines = " | ".join(done.stderr.strip().splitlines()[-3:])
        return {"error": f"exit {done.returncode}: {last_lines}", "wall_s": wall_s}
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"no result line: {done.stdout[-500:]}", "wall_s": wall_s}
    result["wall_s"] = wall_s
    return result


def tally(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) checks; a pass that broke counts as one failed check."""
    attempted = sum(p.get("checked", 1) for p in passes)
    failed = sum(p.get("failed", 1) for p in passes)
    return attempted, failed


def end_to_end(workload: str, setups: list[dict],
               passes: list[dict]) -> tuple[dict, dict]:
    """Metric values, and the distributions behind them for the result file."""
    good = [p for p in passes if "error" not in p]
    if not good:
        return {}, {}
    run_s = [p["calibrated_run_s"] for p in good]
    wall_s = [p["run_s"] for p in good]
    setup_s = [p["setup_s"] for p in setups + good if "error" not in p]
    median_run = statistics.median(run_s)
    metrics = {
        "calibrated_run_s": median_run,
        "calibrated_tuples_per_s": WORKLOADS[workload]["tuples"] / median_run,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
    }
    detail = {"samples": len(run_s), "calibrated_run_s_max": max(run_s),
              "calibrated_run_s": run_s, "wall_run_s": wall_s,
              "wall_run_s_median": statistics.median(wall_s),
              "speed": [p["speed"] for p in good],
              "setup_s": setup_s,
              "wall_setup_s": [p["wall_setup_s"] for p in setups + good
                               if "error" not in p],
              "peak_rss_mb": [p["peak_rss_mb"] for p in good]}
    return metrics, detail


def traced(passes: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run and its self-test outcome."""
    plain, runs = passes[0], passes[1:]
    if any("error" in p for p in passes):
        return {}, {"ok": False, "reason": "a pass did not finish"}
    same_verdicts = all(p["verdicts"] == plain["verdicts"] for p in runs)
    same_counts = all(p["counts"] == runs[0]["counts"] for p in runs)
    metrics = dict(runs[0]["counts"])
    for name in runs[0]["timings"]:
        metrics[name] = statistics.mean(p["timings"][name] for p in runs)
    metrics["trace.run_s"] = statistics.mean(p["calibrated_run_s"] for p in runs)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - plain["calibrated_run_s"]
    return metrics, {"ok": same_verdicts and same_counts,
                     "same_verdicts": same_verdicts, "same_counts": same_counts,
                     "untraced_calibrated_run_s": plain["calibrated_run_s"],
                     "traced_calibrated_run_s": [p["calibrated_run_s"] for p in runs],
                     "untraced_wall_run_s": plain["run_s"],
                     "traced_wall_run_s": [p["run_s"] for p in runs]}


def run_workload(benchmark: dict, environment: dict, workload: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    """Run one workload and write its result file; returns the result record."""
    spec = WORKLOADS[workload]
    seed_used = seed if spec["seeded"] else None
    stamp = f"{workload}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}"
    started = time.monotonic()
    record = {
        "workload": workload, "seed": seed_used, "seconds": seconds,
        "trace": trace, "environment": environment,
        "loadavg_start": read_loadavg(),
        "why": next(w["why"] for w in benchmark["workloads"] if w["name"] == workload),
        **spec,
    }
    deadline = started + RUN_LIMIT_S
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        if trace:
            passes = [run_worker(workload, seed, False, tmp, deadline)]
            spans = ["--spans", str(RESULTS / f"spans-{stamp}.jsonl")]
            for k in range(TRACED_PASSES):
                passes.append(run_worker(workload, seed, True, tmp, deadline,
                                         *(spans if k == 0 else [])))
            errors = []
            metrics, selftest = traced(passes)
            record["self_test"] = selftest
            wanted = benchmark["per_layer"]
        else:
            setups = []
            for _ in range(SETUP_SAMPLES):
                setups.append(run_worker(workload, seed, False, tmp, deadline,
                                         "--setup-only"))
                if "error" in setups[-1]:
                    break
            passes = []
            while len(passes) < MIN_PASSES or (
                    time.monotonic() - started + passes[-1]["wall_s"] <= seconds):
                if time.monotonic() - started > LAST_START_S:
                    break
                passes.append(run_worker(workload, seed, False, tmp, deadline))
                if "error" in passes[-1]:
                    break
            metrics, record["distribution"] = end_to_end(workload, setups, passes)
            errors = [p["error"] for p in setups if "error" in p]
            selftest = {"ok": True}
            wanted = benchmark["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = tally(passes)
    errors += [p["error"] for p in passes if "error" in p]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    record.update({
        "loadavg_end": read_loadavg(),
        "passes": [{k: v for k, v in p.items() if k != "verdicts"} for p in passes],
        "errors": errors,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "correct": failed == 0 and not errors and not missing and selftest["ok"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    })
    if trace:
        record["moves"] = {m["name"]: MOVES[m["name"]] for m in wanted}
    with open(RESULTS / f"{stamp}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return record


def print_summary(record: dict) -> None:
    seed = "seed-free" if record["seed"] is None else f"seed {record['seed']}"
    print(f"{record['workload']} ({seed}, {'traced' if record['trace'] else 'untraced'}"
          f", {len(record['passes'])} passes)")
    for error in record["errors"]:
        print(f"  pass error: {error}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    if record.get("distribution"):
        dist = record["distribution"]
        print(f"  {'calibrated_run_s slowest pass':<46} "
              f"{dist['calibrated_run_s_max']:>14.6g} s")
        print(f"  {'calibrated_run_s samples':<46} {dist['samples']:>14d} count")
        print(f"  {'wall run_s (median, uncalibrated)':<46} "
              f"{dist['wall_run_s_median']:>14.6g} s")
        print(f"  {'speed relative to reference (median)':<46} "
              f"{statistics.median(dist['speed']):>14.6g}")
    if record["trace"]:
        test = record["self_test"]
        print(f"  self-test: same verdicts {test.get('same_verdicts')}, "
              f"same counts {test.get('same_counts')}")
        counted = record["metrics"].get("tuples", {}).get("value")
        if counted is not None and counted != record["tuples"]:
            print(f"  note: traced tuple count {counted} differs from the "
                  f"workload's fixed count {record['tuples']}")
    print(f"  {'failed_share':<46} {record['failed_share']:>14.6g} "
          f"({record['failed']}/{record['attempted']} checks)")


def main() -> int:
    benchmark = load_benchmark()
    benchmark_names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=benchmark_names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not PACKAGE_INIT.is_file():
        print(f"error: no package sources at {PACKAGE_INIT.relative_to(ROOT)}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if set(benchmark_names) != set(WORKLOADS):
        print("error: BENCHMARK.json and run.py name different workloads",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    environment = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }
    print("environment: " + ", ".join(f"{k} {v}" for k, v in environment.items()))
    names = benchmark_names if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(benchmark, environment, name, args.seed,
                              args.seconds, bool(args.trace))
        records.append(record)
        print_summary(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
