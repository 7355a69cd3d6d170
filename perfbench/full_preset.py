"""Time one real full preset run, to check the benchmark's projected preset_s.

    python3 perfbench/full_preset.py --workload preset_shallow --seed 0

Runs the workload's set-up and then `sgd_ensemble` for the full 10^5 steps
with 100 trials and checkpoints on the decade grid, exactly as the paper's
preset, and prints the wall time raw and normalized by the probes taken just
before and after it.  It takes 1.5 to 3 minutes on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import sys

from run import PRESET_STEPS, import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("preset_shallow", "preset_deep"), default="preset_shallow")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"full_preset: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from relu_lyapunov import SgdConfig, sgd_ensemble

    import harness
    import workloads as w

    gauge = harness.Gauge()
    run = w.Run(args.workload, args.seed, gauge)
    cfg = SgdConfig(batch_size=w.BATCH, steps=PRESET_STEPS, seed=args.seed, eval_samples=w.EVAL_SAMPLES)

    def full():
        setup = run.setup()
        return sgd_ensemble(run.arch, setup.theta0s, w.GAMMA, w.A, w.B, w.XI, cfg)

    result = gauge.time("full", full)
    gauge.finish()
    print(f"{args.workload} seed {args.seed}: {len(result.eval_steps)} checkpoints, final mean risk {result.mean_risk[-1]:.6g}")
    sample = gauge.samples["full"][0]
    print(f"wall_s raw {sample.raw:.3f}  normalized {sample.normalized:.3f}  (probes before {sample.before}, after {sample.after})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
