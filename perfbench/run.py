"""Benchmark of the relu_lyapunov training loops, end to end and per module.

    python3 perfbench/run.py --workload preset_shallow --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One process
runs one workload closed loop, one caller at a time, for ``--seconds`` of
measuring, checks the outputs, prints every metric with its unit, writes a
record to ``perfbench/results/`` and prints as its last line a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-module metrics of a
separate traced run.  See perfbench/NOTES.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOADS = ("preset_shallow", "preset_deep", "single_trial")
PRESET_STEPS = 100_000
PRESET_CHECKPOINTS = 16  # len(decade_steps(100_000)): 1, 2, 5, ..., 50_000, 100_000


def import_program() -> float:
    """Import relu_lyapunov from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "relu_lyapunov" / "__init__.py").is_file():
        raise ImportError(f"no relu_lyapunov package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import relu_lyapunov

    elapsed = time.perf_counter() - start
    if Path(relu_lyapunov.__file__).resolve().parent != src / "relu_lyapunov":
        raise ImportError(f"relu_lyapunov resolved to {relu_lyapunov.__file__}, not {src}")
    return elapsed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it keys numpy SeedSequence streams)")
    return args


def attempt(run, job) -> float:
    """Run one job, counting it; a failure is recorded, never raised."""
    run.attempted += 1
    start = time.perf_counter()
    try:
        job.fn()
    except Exception as exc:  # the benchmark must keep measuring and report it
        run.failures.append((job.name, f"{type(exc).__name__}: {exc}"))
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start


def measure(run, jobs, seconds: float) -> None:
    """Closed loop: always run the job furthest below its share of time."""
    spent = {job.name: 0.0 for job in jobs}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        job = min(jobs, key=lambda j: spent[j.name] / j.share)
        spent[job.name] += attempt(run, job)


def e2e_metrics(gauge, harness, import_s: float, extra: dict) -> dict:
    """name -> (value, unit, note) for the untraced run."""

    def med(name, scale):
        samples = gauge.samples.get(name, [])
        raw = harness.median([s.raw for s in samples]) * scale
        extra[name] = {
            "samples": len(samples),
            "raw_median": raw,
        }
        return harness.median(gauge.normalized(name)) * scale, f"n={len(samples)}, raw median {raw:.6g}"

    step_us, step_note = med("step", 1e6)
    tail_s, pct = harness.tail(gauge.normalized("step"))
    extra["step"]["tail_percentile"] = pct
    gd_step_us, gd_note = med("gd", 1e6)
    checkpoint_ms, checkpoint_note = med("checkpoint", 1e3)
    setup_s, setup_note = med("setup", 1.0)
    preset_s = setup_s + PRESET_STEPS * step_us * 1e-6 + PRESET_CHECKPOINTS * checkpoint_ms * 1e-3
    return {
        "step_us": (step_us, "us", step_note),
        "step_us_tail": (tail_s * 1e6, "us", f"p{pct} of n={extra['step']['samples']}"),
        "gd_step_us": (gd_step_us, "us", gd_note),
        "checkpoint_ms": (checkpoint_ms, "ms", checkpoint_note),
        "preset_s": (preset_s, "s", "projected: setup_s + 1e5 step_us + 16 checkpoint_ms"),
        "setup_s": (setup_s, "s", f"{setup_note}; import {import_s:.4f} s raw, once"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB", "ru_maxrss"),
    }


def layer_metrics(run, gauge, harness, workloads, extra: dict) -> dict:
    """name -> (value, unit, note) for the traced run; *_self are residuals."""

    def med(name, scale):
        extra[name] = {"samples": len(gauge.samples.get(name, []))}
        return harness.median(gauge.normalized(name)) * scale

    block = med("risk.keyed_block", 1e6)
    minibatch = med("gradient.minibatch", 1e6)
    generalized = med("gradient.generalized", 1e6)
    value = med("lyapunov.value", 1e6)
    step, untraced, cross = med("step", 1e6), med("step.untraced", 1e6), med("cross", 1e6)
    ensemble_step, sgd_step = (step, cross) if run.spec.main == "ensemble" else (cross, step)
    ensemble_self = ensemble_step - block
    flops, nbytes = workloads.ensemble_cost(run.spec.widths, run.spec.trials, workloads.BATCH)
    residual = "residual of separately timed calls"
    return {
        "risk.keyed_stream_us": (med("risk.keyed_stream", 1e6), "us", ""),
        "risk.keyed_block_us": (block, "us", f"{run.spec.trials * workloads.BATCH} draws"),
        "risk.mc_eval_ms": (med("risk.mc_eval", 1e3), "ms", ""),
        "network.forward_b100_us": (med("network.forward_b100", 1e6), "us", ""),
        "activation.gate_us": (med("activation.gate", 1e6), "us", ""),
        "gradient.minibatch_us": (minibatch, "us", ""),
        "gradient.generalized_us": (generalized, "us", ""),
        "lyapunov.value_us": (value, "us", ""),
        "arch.check_params_us": (med("arch.check_params", 1e6), "us", ""),
        "arch.layer_views_us": (med("arch.layer_views", 1e6), "us", ""),
        "optimize.ensemble_self_us": (ensemble_self, "us", residual),
        "optimize.eval_self_ms": (med("checkpoint", 1e3) - med("risk.eval_block", 1e3), "ms", residual),
        "optimize.sgd_run_self_us": (sgd_step - med("risk.keyed_batch", 1e6) - minibatch - value, "us", residual),
        "optimize.gd_self_us": (med("gd", 1e6) - generalized - value, "us", residual),
        "optimize.gaussian_init_ms": (med("optimize.gaussian_init", 1e3), "ms", ""),
        "optimize.thresholds_ms": (med("optimize.thresholds", 1e3), "ms", ""),
        "optimize.ensemble_flops_per_step": (flops, "count", "computed"),
        "optimize.ensemble_bytes_per_step": (nbytes, "B", "computed"),
        "optimize.ensemble_gflops": (flops / (ensemble_self * 1e-6) / 1e9, "GFLOP/s", "computed FLOPs / ensemble self time"),
        "host.probe_stacked_us": (gauge.probe_median("stacked"), "us", "raw"),
        "host.probe_loop_us": (gauge.probe_median("loop"), "us", "raw"),
        "trace.overhead_frac": (step / untraced - 1.0, "frac", f"traced {step:.6g} us vs untraced {untraced:.6g} us"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import harness
    import workloads

    host = harness.host_record()
    gauge = harness.Gauge(tracing=bool(args.trace))
    run = workloads.Run(args.workload, args.seed, gauge)
    jobs = run.layer_jobs() if args.trace else run.e2e_jobs()

    # warm-up pass: lazy set-up and first-call costs stay out of the samples
    for job in jobs:
        attempt(run, job)
    gauge.samples.clear()
    gauge.spans.clear()
    if run.spec.main == "ensemble":
        run.check_ensemble_matches_sgd_run()
    measure(run, jobs, args.seconds)
    gauge.finish()
    run.check_repeats()
    run.check_oracle()
    host["loadavg_end"] = list(os.getloadavg())

    extra: dict = {}
    try:
        if args.trace:
            metrics = layer_metrics(run, gauge, harness, workloads, extra)
        else:
            metrics = e2e_metrics(gauge, harness, import_s, extra)
    except ValueError as exc:
        print(f"perfbench: cannot compute metrics: {exc}", file=sys.stderr)
        return 1

    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print(
        f"host: {host['cpu_model']}, nproc {host['nproc']}, python {host['python']}, numpy {host['numpy']}, "
        f"{host['blas_name']} {host['blas_version']} threads {host['blas_threads']}, "
        f"load {host['loadavg'][0]:.2f} -> {host['loadavg_end'][0]:.2f}, "
        f"probes stacked {gauge.probe_median('stacked'):.1f} us, loop {gauge.probe_median('loop'):.1f} us"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit:8s} {note}")
    print(f"  {'fail_frac':34s} {failed / run.attempted:16.6f} {'':8s} {failed} of {run.attempted} failed")
    for name, detail in run.failures:
        print(f"  FAILED {name}: {detail}")

    values = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "import_s": import_s,
        "metrics": values,
        "samples": extra,
        "attempted": run.attempted,
        "failed": failed,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in run.checks],
        "failures": [{"name": n, "detail": d} for n, d in run.failures],
        "probes_us": [[t, p["stacked"], p["loop"]] for t, p in zip(gauge.probe_times, gauge.probes)],
        "series": {name: [[x.at, x.raw] for x in bucket] for name, bucket in gauge.samples.items() if len(bucket) <= 2000},
        "spans": {"fields": ["name", "start_s", "end_s", "parent", "segment"], "rows": gauge.spans},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": values}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
