"""One benchmark pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --tmp DIR
                                [--spans PATH] [--setup-only]

The process starts with empty `MultiMap` and `CumulantContext` memos, as
every `verify` invocation does.  It times the set-up (from the start of
`import homotopy_cumulants` until the pass's inputs, contexts and maps are
ready) and the pass, checks the pass's verdicts, and prints one JSON object
as the last line of its standard output.  With --trace 1 the tracer is
installed before the set-up, so the maps built there are traced too, and
the object also holds the per-layer figures of the pass alone.

The host's speed drifts by up to 2x within seconds, because the CPUs are
shared.  So a `SpeedProbe` thread times a small fixed loop every few
milliseconds of the set-up and of the pass, in its own CPU time, and both
wall times are scaled to the speed at which the loop takes
REFERENCE_PROBE_S: `setup_s` and `calibrated_run_s` estimate the times
they would have taken had the machine run at that speed throughout.  The
uncalibrated wall times are reported too.

The loop touches almost no memory, so the program's own cache footprint
barely moves it.  The library's passes allocate and touch far more memory,
so they slow more than the loop when the host is busy: over 30 runs on a
2-vCPU x86-64 VM, log wall time fell with log probe speed at slopes of
1.4-1.6.  The scale is therefore the speed to CALIBRATION_EXPONENT, between
that fit and the 1 a pure change of clock rate would give.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE_DIR = ROOT / "src" / "homotopy_cumulants"
ORACLE_DIR = BENCH / "oracle"

DENSE_ARITIES = (3, 4)
DENSE_TUPLES_PER_ARITY = 200
DENSE_DEGREE = 3
DENSE_NUMERATOR = 5
DENSE_DENOMINATOR = 6

# Set-ups last under 0.1 s, so they are sampled more densely than passes.
SETUP_PROBE_PERIOD_S = 0.005
PASS_PROBE_PERIOD_S = 0.02
PROBE_ITERATIONS = 4000
# CPU seconds of one probe loop at the reference speed (about the median on
# a 2-vCPU x86-64 VM under CPython 3.11); it only sets the scale of the
# calibrated times.
REFERENCE_PROBE_S = 360e-6
CALIBRATION_EXPONENT = 1.25


def probe_loop() -> int:
    x = 1
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return x


class SpeedProbe(threading.Thread):
    """Samples the machine's speed while the main thread sets up or runs a pass.

    Every `period` seconds it runs `probe_loop` and keeps the loop's CPU time
    in this thread, which leaves out time spent waiting for the GIL or the
    CPU.  Samples are taken evenly in wall time, so the mean of
    REFERENCE_PROBE_S / sample is the pass's mean speed relative to the
    reference.
    """

    def __init__(self, period: float):
        super().__init__(name="speed-probe", daemon=True)
        self.period = period
        self.samples: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(self.period):
            started = time.thread_time()
            probe_loop()
            self.samples.append(time.thread_time() - started)

    def stop(self) -> float:
        """Ends sampling; returns the mean speed relative to the reference.

        Multiplying a wall time by speed ** CALIBRATION_EXPONENT calibrates it.
        """
        self.done.set()
        self.join()
        if not self.samples:
            started = time.thread_time()
            probe_loop()
            self.samples.append(time.thread_time() - started)
        return statistics.fmean(REFERENCE_PROBE_S / max(s, 1e-9)
                                for s in self.samples)


def import_package():
    """Import the package from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    package = importlib.import_module("homotopy_cumulants")
    if Path(package.__file__).resolve().parent != PACKAGE_DIR:
        raise SystemExit(f"imported {package.__file__}, expected {PACKAGE_DIR}")
    return package


def entry_verdicts(entries: list[dict]) -> dict:
    """Report entries as {(check, parameters): (status, witness)}."""
    return {(e["check"], json.dumps(e["parameters"], sort_keys=True)):
            (e["status"], e["witness"]) for e in entries}


def compare_to_oracle(workload: str, entries: list[dict]) -> tuple[int, int]:
    """(checked, failed) of report entries against the recorded verdicts.

    Only the verdict tuple (check, parameters, status, witness) counts, so
    report fields added later do not read as failures.  An expected entry
    that is missing or differs fails; an unexpected entry fails only if it
    does not pass.
    """
    with open(ORACLE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        expected = entry_verdicts(json.load(handle)["entries"])
    actual = entry_verdicts(entries)
    extra = [v for k, v in actual.items() if k not in expected]
    failed = (sum(actual.get(k) != v for k, v in expected.items())
              + sum(status != "pass" for status, _ in extra))
    return len(expected) + len(extra), failed


def report_bytes(report: dict) -> int:
    """Size of the JSON report with every duration_ms written as 0."""
    for entry in report["entries"]:
        entry["duration_ms"] = 0
    return len((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())


class VerifyAllN4:
    """`verify all --n-max 4 --degree 2` through the command-line entry point."""

    argv = ["verify", "all", "--n-max", "4", "--degree", "2"]

    def __init__(self, package, seed: int, tmp: Path):
        self.cli = importlib.import_module("homotopy_cumulants.cli")
        self.out = tmp / "report.json"

    def run(self) -> dict:
        exit_code = self.cli.main(self.argv + ["--out", str(self.out)])
        with open(self.out, encoding="utf-8") as handle:
            report = json.load(handle)
        checked, failed = compare_to_oracle("verify-all-n4", report["entries"])
        failed += exit_code != 0
        return {"checked": checked, "failed": failed,
                "verdicts": sorted(entry_verdicts(report["entries"]).items())
                + [("exit_code", exit_code)],
                "report_bytes": report_bytes(report)}


class CumulantsN5:
    """`run_suite("cumulants", 5, 3)`: direct against recursive K_n, n <= 5."""

    def __init__(self, package, seed: int, tmp: Path):
        self.suites = importlib.import_module("homotopy_cumulants.suites")

    def run(self) -> dict:
        entries = [e.to_json_dict() for e in self.suites.run_suite("cumulants", 5, 3)]
        checked, failed = compare_to_oracle("cumulants-n5", entries)
        return {"checked": checked, "failed": failed,
                "verdicts": sorted(entry_verdicts(entries).items())}


class DenseForms:
    """Seeded off-grid mixed forms through three identities per tuple."""

    def __init__(self, package, seed: int, tmp: Path):
        from fractions import Fraction

        hc = self.hc = package
        rng = random.Random(seed)

        def polynomial():
            while True:
                coefficients = [
                    Fraction(rng.randint(-DENSE_NUMERATOR, DENSE_NUMERATOR),
                             rng.randint(1, DENSE_DENOMINATOR))
                    for _ in range(rng.randint(0, DENSE_DEGREE) + 1)]
                if any(coefficients):
                    return hc.Polynomial(coefficients)

        self.inputs = {
            n: [tuple(hc.PolyForm(polynomial(), polynomial()) for _ in range(n))
                for _ in range(DENSE_TUPLES_PER_ARITY)]
            for n in DENSE_ARITIES}
        self.context = hc.integration_context()
        self.maps = {
            n: (hc.hom_boundary(hc.homotopy_witness(n)),
                hc.cumulant_multimap(n),
                hc.ainfty_relation_defect(n, 0)[1])
            for n in DENSE_ARITIES}

    def run(self) -> dict:
        hc, ctx = self.hc, self.context
        verdicts = []
        for n in DENSE_ARITIES:
            boundary_h, cumulant_k, defect = self.maps[n]
            for xs in self.inputs[n]:
                try:
                    holds = (boundary_h(*xs) == cumulant_k(*xs),
                             defect(*xs).is_zero(),
                             hc.cumulant(ctx, xs) == hc.cumulant_recursive(ctx, xs))
                except Exception:
                    holds = (False,)
                verdicts.append(all(holds))
        return {"checked": len(verdicts), "failed": verdicts.count(False),
                "verdicts": verdicts}


WORKLOADS = {
    "verify-all-n4": VerifyAllN4,
    "cumulants-n5": CumulantsN5,
    "dense-forms": DenseForms,
}


def per_layer(tracer) -> tuple[dict, dict]:
    """The traced pass's deterministic counts and its timings, by metric name."""
    c, inclusive, self_time = tracer.counts, tracer.inclusive, tracer.self_time

    def ratio(part, whole):
        return part / whole if whole else 0.0

    counts = {f"interval_model.{name}.calls": c[f"interval_model.{name}.calls"]
              for name in ("wedge", "cup", "iterated_integral", "integrate",
                           "d_form", "delta")}
    recursive_calls = c["cumulants.cumulant_recursive.calls"]
    evals = c["hom_complex.multimap.evals"]
    misses = c["hom_complex.multimap.misses"]
    counts.update({
        "cumulants.cumulant.calls": c["cumulants.cumulant.calls"],
        "cumulants.cumulant_recursive.calls": recursive_calls,
        "cumulants.recursive.hit_ratio":
            ratio(c["cumulants.cumulant_recursive.hits"], recursive_calls),
        "cumulants.context.apply.calls": c["cumulants.context.apply.calls"],
        "cumulants.context.multiply.calls": c["cumulants.context.multiply.calls"],
        "hom_complex.multimap.evals": evals,
        "hom_complex.multimap.misses": misses,
        "hom_complex.multimap.built": c["hom_complex.multimap.built"],
        "hom_complex.memo_hit_ratio": ratio(evals - misses, evals),
        "hom_complex.sweep.calls": c["hom_complex.maps_equal_on_truncation.calls"],
        "hom_complex.sweep.tuples": c["hom_complex.sweep.tuples"],
        "cube_complex.verify_cell.calls": c["cube_complex.verify_cell.calls"],
        "cube_complex.cell_to_map.calls": c["cube_complex.cell_to_map.calls"],
        "formal_ainfty.formal_boundary.calls": c["formal_ainfty.formal_boundary.calls"],
        "formal_ainfty.interpret_sum.calls": c["formal_ainfty.interpret_sum.calls"],
        "suites.entries": c["suites.entries"],
        "tuples": c["hom_complex.sweep.tuples"]
                  + c["cumulants.cumulant.checked_tuples"],
        "trace.spans": len(tracer.spans),
    })
    from tracer import LAYERS

    timings = {f"{layer}.self_s": self_time[layer] for layer in LAYERS}
    timings.update({
        "interval_model.iterated_integral.us_per_call": 1e6 * ratio(
            inclusive["interval_model.iterated_integral"],
            c["interval_model.iterated_integral.calls"]),
        "hom_complex.sweep.s": inclusive["hom_complex.maps_equal_on_truncation"],
        "cube_complex.verify_cell.s": inclusive["cube_complex.verify_cell"],
    })
    return counts, timings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up and exit without a pass")
    args = parser.parse_args()

    for _ in range(10):  # so that the first sample is not of a cold loop
        probe_loop()
    probe = SpeedProbe(SETUP_PROBE_PERIOD_S)
    probe.start()
    started = time.perf_counter()
    try:
        package = import_package()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(package)
        workload = WORKLOADS[args.workload](package, args.seed, args.tmp)
    finally:
        wall_setup_s = time.perf_counter() - started
        setup_speed = probe.stop()
    setup = {"setup_s": wall_setup_s * setup_speed ** CALIBRATION_EXPONENT,
             "wall_setup_s": wall_setup_s,
             "setup_speed": setup_speed}
    if args.setup_only:
        print(json.dumps(setup))
        return

    if tracer is not None:
        tracer.reset()
    probe = SpeedProbe(PASS_PROBE_PERIOD_S)
    probe.start()
    started = time.perf_counter()
    try:
        outcome = workload.run()
    finally:
        run_s = time.perf_counter() - started
        speed = probe.stop()

    result = {
        **setup,
        "run_s": run_s,
        "speed": speed,
        "probe_samples": len(probe.samples),
        "calibrated_run_s": run_s * speed ** CALIBRATION_EXPONENT,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checked": outcome["checked"],
        "failed": outcome["failed"],
        "verdicts": outcome["verdicts"],
    }
    if tracer is not None:
        counts, timings = per_layer(tracer)
        counts["cli.report_bytes"] = outcome.get("report_bytes", 0)
        result["counts"], result["timings"] = counts, timings
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
