"""Command line front end.

Subcommands: ``sgd`` (multi-trial experiment, CSV of mean risk per
checkpoint), ``gd`` and ``gf`` (single deterministic runs on a grid measure,
CSV trajectory), ``verify`` (runs the claims of `claims.CLAIMS`), and
``nonconvexity`` (prints an explicit midpoint-inequality violation).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .arch import Architecture
from .claims import CLAIMS
from .convexity import midpoint_gap, nonconvexity_witness
from .lyapunov import LyapunovContext
from .optimize import (
    DivergenceError,
    SgdConfig,
    _write_csv,
    descent_certificate,
    gaussian_init,
    gd_run,
    gd_threshold,
    gf_euler_run,
    sgd_ensemble,
    sgd_threshold,
)
from .risk import DiscreteMeasure, TargetSpec, _check_box, risk_exact


class UsageError(Exception):
    pass


# the named sgd experiments; every other setting is the sgd command's default
PRESETS = {"shallow": (1, 7, 1), "deep": (1, 3, 7, 1)}


def _parse_xi(text: str, out_width: int) -> np.ndarray:
    try:
        values = np.asarray([float(p) for p in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise UsageError(f"malformed --xi value {text!r}") from exc
    if values.shape == (1,) and out_width > 1:
        values = np.full(out_width, values[0])
    if values.shape != (out_width,):
        raise UsageError(f"--xi needs {out_width} components, got {len(values)}")
    return values


@dataclass
class Resolved:
    arch: Architecture
    xi: np.ndarray
    a: float
    b: float
    tag: str  # the preset's name, else the widths joined by "x", for the default output name

    @property
    def init_scale(self) -> float:
        # std 1/sqrt(first hidden width)
        return self.arch.widths[1] ** -0.5


def _resolve(args) -> Resolved:
    if args.arch:
        arch = Architecture.from_string(args.arch)
    elif args.preset:
        arch = Architecture(PRESETS[args.preset])
    else:
        raise UsageError("either --preset or --arch is required")
    try:
        a, b = _check_box(args.a, args.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    tag = args.preset or "x".join(str(w) for w in arch.widths)
    return Resolved(arch=arch, xi=_parse_xi(args.xi, arch.widths[-1]), a=a, b=b, tag=tag)


def _require_positive(*flags: tuple[str, int]) -> None:
    for flag, value in flags:
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")


def cmd_sgd(args) -> int:
    res = _resolve(args)
    trials, gamma, seed = args.trials, args.gamma, args.seed
    out = args.out or f"sgd_{res.tag}.csv"
    _require_positive(("--steps", args.steps), ("--trials", trials), ("--eval-samples", args.eval_samples))

    theta0s = gaussian_init(res.arch, seed, res.init_scale, trials)
    norms = np.sqrt(np.sum(theta0s * theta0s, axis=1))
    thresholds = np.asarray(
        [sgd_threshold(res.arch, n, res.xi, res.a, res.b) for n in norms]
    )
    print(f"configured gamma: {gamma:.17g}")
    print(
        f"sgd descent threshold across {trials} trials: "
        f"min {thresholds.min():.6g}, max {thresholds.max():.6g}"
        + ("" if gamma <= thresholds.min() else "  (gamma exceeds it; descent not guaranteed)")
    )

    cfg = SgdConfig(batch_size=args.batch, steps=args.steps, seed=seed, eval_samples=args.eval_samples)
    result = sgd_ensemble(res.arch, theta0s, gamma, res.a, res.b, res.xi, cfg)
    mean = result.mean_risk
    se = result.std_error if trials > 1 else np.zeros_like(mean)
    _write_csv(
        out,
        "step,mean_mse,std_error",
        [(int(s), mean[i], se[i]) for i, s in enumerate(result.eval_steps)],
    )
    print(f"wrote {out} ({len(result.eval_steps)} checkpoints, {trials} trials)")
    print(f"final mean risk at step {int(result.eval_steps[-1])}: {mean[-1]:.6g}")
    return 0


def _deterministic_setup(args):
    _require_positive(("--steps", args.steps))
    res = _resolve(args)
    measure = DiscreteMeasure.uniform_grid(res.a, res.b, args.points)
    target = TargetSpec.constant(res.xi)
    theta0 = gaussian_init(res.arch, args.seed, res.init_scale, 1)[0]
    threshold = gd_threshold(res.arch, theta0, res.xi, measure.mass, measure.input_scale)
    return res, measure, target, theta0, threshold, args.steps


def _default_step(step: float, flag: str) -> float:
    if step == 0.0:
        raise UsageError(
            f"the descent threshold of this network is 0.0 (below the smallest float), "
            f"so the default step would be 0; pass {flag}"
        )
    return step


def cmd_gd(args) -> int:
    res, measure, target, theta0, threshold, steps = _deterministic_setup(args)
    gamma = args.gamma if args.gamma is not None else _default_step(0.9 * threshold, "--gamma")
    out = args.out or f"gd_{res.tag}.csv"
    print(f"configured gamma: {gamma:.17g}")
    print(f"gd descent threshold: {threshold:.17g}" + ("" if gamma < threshold else "  (gamma at or above it; descent not guaranteed)"))
    trajectory = gd_run(res.arch, theta0, measure, target, gamma, steps)
    trajectory.to_csv(out)
    report = descent_certificate(trajectory, LyapunovContext(res.arch, target.f0))
    print(f"descent certificate: {report.summary()}")
    print(f"wrote {out}; final risk {trajectory.risk[-1]:.6g}")
    return 0


def cmd_gf(args) -> int:
    res, measure, target, theta0, threshold, steps = _deterministic_setup(args)
    dt = args.dt if args.dt is not None else _default_step(0.5 * threshold, "--dt")
    out = args.out or f"gf_{res.tag}.csv"
    print(f"euler dt: {dt:.17g} (descent threshold {threshold:.17g})")
    trajectory = gf_euler_run(res.arch, theta0, measure, target, dt, steps)
    trajectory.to_csv(out)
    drift = np.max(np.abs(trajectory.v - (trajectory.v[0] - trajectory.descent_integral)))
    print(f"max |V(t) - (V(0) - 4L int risk)| along the run: {drift:.6g}")
    print(f"wrote {out}; final risk {trajectory.risk[-1]:.6g}")
    return 0


def cmd_nonconvexity(args) -> int:
    res = _resolve(args)
    if res.arch.depth < 2:
        print(
            "depth-1 networks: the risk is a convex least-squares objective, "
            "so no midpoint violation exists",
            file=sys.stderr,
        )
        return 2
    measure = DiscreteMeasure.uniform_grid(res.a, res.b, args.points)
    target = TargetSpec.constant(res.xi)
    theta, vartheta = nonconvexity_witness(res.arch, res.xi, measure)
    mid = 0.5 * (theta + vartheta)
    gap = midpoint_gap(res.arch, theta, vartheta, measure, target)
    with np.printoptions(linewidth=100, precision=6, suppress=True):
        print(f"theta    = {theta}")
        print(f"vartheta = {vartheta}")
    print(f"risk(theta)    = {risk_exact(res.arch, theta, measure, target):.17g}")
    print(f"risk(vartheta) = {risk_exact(res.arch, vartheta, measure, target):.17g}")
    print(f"risk(midpoint) = {risk_exact(res.arch, mid, measure, target):.17g}")
    print(f"midpoint gap   = {gap:.17g} (positive violates convexity; mass/16 = {measure.mass / 16:.17g})")
    return 0


def cmd_verify(args) -> int:
    all_ok = True
    for name, check in CLAIMS.items():
        if args.suite in ("all", name.split(".")[0]):
            ok, detail = check(args.seed)
            all_ok &= bool(ok)
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def _add_common(sub, *, points=False):
    sub.add_argument("--preset", choices=sorted(PRESETS), help="named experiment configuration")
    sub.add_argument("--arch", help="comma-separated widths, e.g. 1,7,1")
    sub.add_argument("--xi", default="1.0", help="constant target value(s), comma-separated (default 1.0)")
    sub.add_argument("--a", type=float, default=0.0, help="input box lower end (default 0)")
    sub.add_argument("--b", type=float, default=1.0, help="input box upper end (default 1)")
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--out", help="output CSV path")
    if points:
        sub.add_argument("--points", type=int, default=101, help="grid points of the measure (default 101)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relu-lyapunov",
        description="Train and verify deep ReLU networks with constant targets.",
    )
    subparsers = parser.add_subparsers(dest="command")

    sub = subparsers.add_parser("sgd", help="multi-trial SGD experiment, CSV of mean risk")
    _add_common(sub)
    sub.add_argument("--gamma", type=float, default=1.0 / 2000.0, help="step size (default 1/2000)")
    sub.add_argument("--batch", type=int, default=100, help="minibatch size (default 100)")
    sub.add_argument("--steps", type=int, default=100_000, help="SGD steps (default 100000)")
    sub.add_argument("--trials", type=int, default=100, help="independent trials (default 100)")
    sub.add_argument("--eval-samples", type=int, default=10_000, help="Monte Carlo sample size per checkpoint")
    sub.set_defaults(func=cmd_sgd)

    sub = subparsers.add_parser("gd", help="full-measure gradient descent on a grid")
    _add_common(sub, points=True)
    sub.add_argument("--gamma", type=float, help="step size (default 0.9x the descent threshold)")
    sub.add_argument("--steps", type=int, default=10_000, help="steps (default 10000)")
    sub.set_defaults(func=cmd_gd)

    sub = subparsers.add_parser("gf", help="Euler gradient flow on a grid")
    _add_common(sub, points=True)
    sub.add_argument("--dt", type=float, help="Euler step (default 0.5x the descent threshold)")
    sub.add_argument("--steps", type=int, default=10_000, help="steps (default 10000)")
    sub.set_defaults(func=cmd_gf)

    sub = subparsers.add_parser("verify", help="run self-checks; exit 0 iff all pass")
    sub.add_argument("--suite", choices=["all"] + sorted({name.split(".")[0] for name in CLAIMS}), default="all")
    sub.add_argument("--seed", type=int, default=0, help="seed for the randomized checks (default 0)")
    sub.set_defaults(func=cmd_verify)

    sub = subparsers.add_parser("nonconvexity", help="print an explicit midpoint violation")
    _add_common(sub, points=True)
    sub.set_defaults(func=cmd_nonconvexity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"diverged: {exc} (last finite step {exc.step})", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
