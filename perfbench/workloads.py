"""The benchmark's workloads, the jobs each one times, and its output checks.

All three workloads train towards the constant target 1 on U[0, 1] inputs with
batch 100 and step 1/2000, like the paper's presets:

- preset_shallow: `sgd_ensemble` on 1,7,1 with 100 trials.  The trial-stacked
  kernel does almost all the work and its fan-in-1 1->7 affine dominates it.
- preset_deep: the same on 1,3,7,1, with a real 3->7 matmul and a second
  hidden gate and backward layer, so a change that only helps fan-in-1
  layers shows a smaller or negative effect here.
- single_trial: one trial on 1,7,1 through `sgd_run`, whose per-step Python
  cost (keyed stream, parameter checks, `_exact_grad_core`, Lyapunov
  logging) dominates; the end-to-end run never touches the ensemble kernel.

Every workload also times `gd_run` on its architecture over the 101-point
grid at 0.9 x `gd_threshold`.  Training is timed in fixed-length segments;
each continues from the previous segment's parameters under a fresh keyed
seed (workload seed, purpose, segment index).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    LyapunovContext,
    SgdConfig,
    TargetSpec,
    UniformSampler,
    descent_certificate,
    empirical_risk,
    gaussian_init,
    gd_run,
    gd_threshold,
    generalized_gradient,
    gradient_pathsum_oracle,
    lyapunov_value,
    minibatch_gradient,
    population_risk_mc,
    relu,
    relu_left_derivative,
    sgd_ensemble,
    sgd_run,
    sgd_threshold,
)
from relu_lyapunov.arch import check_params, layer_views

from harness import Gauge

GAMMA = 1.0 / 2000.0
BATCH = 100
EVAL_SAMPLES = 10_000
GRID_POINTS = 101
XI = 1.0
A, B = 0.0, 1.0

# steps per timed segment: ~50-100 ms each on a 2-core Xeon, long enough to
# amortize per-call overhead and host hiccups, short enough for >100 samples
ENSEMBLE_SEGMENT = 50
SGD_SEGMENT = 500
GD_SEGMENT = 400

# ensemble trial 0 against sgd_run; the kernels agree to ~2e-16 today, the
# slack allows reordered sums over one segment
MATCH_RTOL = 1e-10
MATCH_ATOL = 1e-12

# stream purposes inside the workload seed
STEP, CHECKPOINT, CHECK, CROSS = 1, 2, 3, 4


@dataclass(frozen=True)
class Spec:
    widths: tuple[int, ...]
    trials: int
    main: str  # "ensemble" or "sgd_run": the loop `step_us` times


SPECS = {
    "preset_shallow": Spec((1, 7, 1), 100, "ensemble"),
    "preset_deep": Spec((1, 3, 7, 1), 100, "ensemble"),
    "single_trial": Spec((1, 7, 1), 1, "sgd_run"),
}


@dataclass(frozen=True)
class Job:
    name: str
    fn: Callable[[], None]
    share: float  # target fraction of the measuring time


@dataclass
class Setup:
    theta0s: np.ndarray
    sgd_thresholds: list[float]
    gd_threshold: float
    measure: DiscreteMeasure
    target: TargetSpec


def ensemble_cost(widths: tuple[int, ...], trials: int, batch: int) -> tuple[int, int]:
    """Computed FLOPs and compulsory bytes of one trial-stacked SGD step.

    FLOPs count the algorithm, not the kernel's instructions: 2mnk per
    matrix product, one per elementwise operation (draw scaling, bias add,
    gate, residual and step scaling, update).  Bytes count float64 traffic
    that any kernel must move: draws, hidden pre-activations and activations,
    outputs and deltas written once and read once, and every parameter read
    and written.
    """
    depth = len(widths) - 1
    flops = 2 * batch * widths[0] + 2 * batch * widths[-1]
    elems = 2 * batch * widths[0] + 2 * batch * widths[-1]
    params = 0
    for k in range(1, depth + 1):
        fan_in, fan_out = widths[k - 1], widths[k]
        params += fan_out * (fan_in + 1)
        flops += 2 * batch * fan_in * fan_out + batch * fan_out  # affine
        flops += 2 * batch * fan_in * fan_out + batch * fan_out  # weight and bias gradients
        flops += fan_out * (fan_in + 1)  # update
        elems += 2 * batch * fan_out  # delta
        if k < depth:
            flops += batch * fan_out  # relu
            elems += 4 * batch * fan_out  # pre-activation and activation
        if k > 1:
            flops += 2 * batch * fan_in * fan_out + batch * fan_in  # back-propagation and gate
    elems += 2 * params
    return flops * trials, 8 * elems * trials


class Run:
    """State of one benchmark run: parameters being trained, checks, failures."""

    def __init__(self, workload: str, seed: int, gauge: Gauge):
        self.spec = SPECS[workload]
        self.seed = int(seed)
        self.gauge = gauge
        self.arch = Architecture(self.spec.widths)
        self.scale = self.spec.widths[1] ** -0.5
        self.ctx = LyapunovContext(self.arch, XI)
        self.sampler = UniformSampler(A, B, 1, self.seed)
        self.checks: list[tuple[str, bool, str]] = []
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.counters: dict[int, int] = {}
        # probe kind for calls that carry the trial axis (see harness.Probe);
        # checkpoints pass 10^4-sample arrays and always use "stacked"
        self.stacked = "stacked" if self.spec.trials > 1 else "loop"

        start = self.setup()
        self.start = start
        self.gd_gamma = 0.9 * start.gd_threshold
        self.theta_ens = start.theta0s.copy()
        self.theta_sgd = start.theta0s[0].copy()
        self.theta_gd = start.theta0s[0].copy()
        self.first: dict[str, tuple] = {}

    # --- the program's calls -------------------------------------------------

    def setup(self) -> Setup:
        """gaussian_init, per-trial thresholds, measure and target."""
        theta0s = gaussian_init(self.arch, self.seed, self.scale, self.spec.trials)
        norms = np.sqrt(np.sum(theta0s * theta0s, axis=1))
        sgd_thr = [sgd_threshold(self.arch, float(n), XI, A, B) for n in norms]
        measure = DiscreteMeasure.uniform_grid(A, B, GRID_POINTS)
        target = TargetSpec.constant(XI)
        gd_thr = gd_threshold(self.arch, theta0s[0], target.f0, measure.mass, measure.input_scale)
        return Setup(theta0s, sgd_thr, gd_thr, measure, target)

    def _cfg(self, purpose: int, steps: int, eval_steps: tuple[int, ...] = ()) -> SgdConfig:
        index = self.counters.get(purpose, 0)
        self.counters[purpose] = index + 1
        return SgdConfig(
            batch_size=BATCH,
            steps=steps,
            seed=(self.seed, purpose, index),
            eval_samples=EVAL_SAMPLES,
            eval_steps=eval_steps,
            snapshot_steps=(steps,),
        )

    def _ensemble(self, theta0s, cfg):
        return sgd_ensemble(self.arch, theta0s, GAMMA, A, B, XI, cfg)

    def _sgd(self, theta0, cfg):
        return sgd_run(self.arch, theta0, GAMMA, self.sampler, XI, cfg)

    def _gd(self, theta0, steps):
        return gd_run(self.arch, theta0, self.start.measure, self.start.target, self.gd_gamma, steps, snapshot_steps=(steps,))

    # --- timed jobs ----------------------------------------------------------

    def step_ensemble(self, name: str = "step", traced: bool = True) -> None:
        start, cfg = self.theta_ens, self._cfg(STEP, ENSEMBLE_SEGMENT)
        res = self.gauge.time(name, lambda: self._ensemble(start, cfg), per=ENSEMBLE_SEGMENT, kind=self.stacked, traced=traced)
        _require_finite(res.theta_final, "ensemble segment")
        self.first.setdefault("ensemble", (start, cfg, res.theta_final))
        self.theta_ens = res.theta_final

    def step_sgd(self, name: str = "step", traced: bool = True) -> None:
        start, cfg = self.theta_sgd, self._cfg(STEP, SGD_SEGMENT)
        traj = self.gauge.time(name, lambda: self._sgd(start, cfg), per=SGD_SEGMENT, traced=traced)
        final = traj.snapshots[SGD_SEGMENT]
        _require_finite(final, "sgd_run segment")
        self.first.setdefault("sgd_run", (start, cfg, final, traj.v, traj.risk))
        self.theta_sgd = final

    def step_gd(self) -> None:
        start = self.theta_gd
        traj = self.gauge.time("gd", lambda: self._gd(start, GD_SEGMENT), per=GD_SEGMENT)
        final = traj.snapshots[GD_SEGMENT]
        _require_finite(final, "gd_run segment")
        report = descent_certificate(traj, self.ctx)
        self.check("gd_descent_certificate", report.passed, report.summary())
        self.first.setdefault("gd_run", (start, final, traj.v))
        self.theta_gd = final

    def checkpoint(self) -> None:
        if self.spec.main == "ensemble":
            thetas, cfg = self.theta_ens, self._cfg(CHECKPOINT, 0, (0,))
            risk = self.gauge.time("checkpoint", lambda: self._ensemble(thetas, cfg), kind="stacked").risk
        else:
            theta, cfg = self.theta_sgd, self._cfg(CHECKPOINT, 0, (0,))
            risk = self.gauge.time("checkpoint", lambda: self._sgd(theta, cfg), kind="stacked").mc_risk
        _require_finite(risk, "checkpoint risk")

    def time_setup(self) -> None:
        self.gauge.time("setup", self.setup)

    def e2e_jobs(self) -> list[Job]:
        main = self.step_ensemble if self.spec.main == "ensemble" else self.step_sgd
        if self.spec.main == "ensemble":
            shares = (0.62, 0.10, 0.20, 0.08)
        else:
            shares = (0.55, 0.25, 0.10, 0.10)
        return [
            Job("step", main, shares[0]),
            Job("gd", self.step_gd, shares[1]),
            Job("checkpoint", self.checkpoint, shares[2]),
            Job("setup", self.time_setup, shares[3]),
        ]

    def layer_jobs(self) -> list[Job]:
        """Jobs of the traced run: every e2e job plus public calls per module."""
        arch, trials, seed = self.arch, self.spec.trials, self.seed
        theta = self.start.theta0s[0]
        batch = UniformSampler(A, B, 1, (seed, CHECK, 1)).sample(BATCH)
        measure, target = self.start.measure, self.start.target
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, CHECK, 2))))
        gates = [rng.standard_normal((trials, BATCH, w)) for w in self.spec.widths[1:-1]]
        counter = itertools.count()

        def timed(name: str, fn: Callable[[], object], reps: int, kind: str = "loop") -> Job:
            def job() -> None:
                def many():
                    for _ in range(reps):
                        fn()

                self.gauge.time(name, many, per=reps, kind=kind, parent=name.split(".")[0])

            return Job(name, job, 0.36 / 14)

        def gate() -> None:
            for z in gates:
                relu(z)
                relu_left_derivative(z)

        def stream() -> UniformSampler:
            return UniformSampler(A, B, 1, (seed, STEP, next(counter)))

        def eval_stream() -> UniformSampler:
            return UniformSampler(A, B, 1, (seed, 0))

        main = self.step_ensemble if self.spec.main == "ensemble" else self.step_sgd
        cross = self.cross_step_sgd if self.spec.main == "ensemble" else self.cross_step_ensemble
        return [
            Job("step", main, 0.14),
            Job("step.untraced", lambda: main("step.untraced", traced=False), 0.14),
            Job("cross", cross, 0.12),
            Job("gd", self.step_gd, 0.08),
            Job("checkpoint", self.checkpoint, 0.12),
            Job("setup", self.time_setup, 0.04),
            timed("risk.keyed_stream", stream, 50),
            timed("risk.keyed_block", lambda: stream().sample(trials * BATCH), 20, self.stacked),
            timed("risk.keyed_batch", lambda: stream().sample(BATCH), 20),
            timed("risk.eval_block", lambda: eval_stream().sample(trials * EVAL_SAMPLES), 1, "stacked"),
            timed("risk.mc_eval", lambda: population_risk_mc(arch, theta, eval_stream(), XI, EVAL_SAMPLES), 2, "stacked"),
            timed("network.forward_b100", lambda: empirical_risk(arch, theta, batch, XI), 50),
            timed("activation.gate", gate, 5, self.stacked),
            timed("gradient.minibatch", lambda: minibatch_gradient(arch, theta, batch, XI), 50),
            timed("gradient.generalized", lambda: generalized_gradient(arch, theta, measure, target), 20),
            timed("lyapunov.value", lambda: lyapunov_value(self.ctx, theta), 200),
            timed("arch.check_params", lambda: check_params(arch, theta), 500),
            timed("arch.layer_views", lambda: layer_views(arch, theta), 200),
            timed("optimize.gaussian_init", lambda: gaussian_init(arch, seed, self.scale, trials), 1),
            timed("optimize.thresholds", self._thresholds, 1),
        ]

    def _thresholds(self) -> None:
        theta0s, measure = self.start.theta0s, self.start.measure
        for n in np.sqrt(np.sum(theta0s * theta0s, axis=1)):
            sgd_threshold(self.arch, float(n), XI, A, B)
        gd_threshold(self.arch, theta0s[0], XI, measure.mass, measure.input_scale)

    def cross_step_sgd(self) -> None:
        """sgd_run on trial 0 of a preset workload, for its self time."""
        start, cfg = self.start.theta0s[0], self._cfg(CROSS, SGD_SEGMENT)
        self.gauge.time("cross", lambda: self._sgd(start, cfg), per=SGD_SEGMENT)

    def cross_step_ensemble(self) -> None:
        """The ensemble kernel at one trial, for its self time on single_trial."""
        start, cfg = self.start.theta0s, self._cfg(CROSS, ENSEMBLE_SEGMENT)
        self.gauge.time("cross", lambda: self._ensemble(start, cfg), per=ENSEMBLE_SEGMENT, kind=self.stacked)

    # --- output checks -------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failures.append((name, detail))

    def check_ensemble_matches_sgd_run(self) -> None:
        """Trial 0 of an ensemble segment against sgd_run from the same row and seed."""
        theta0s = self.start.theta0s
        cfg = self._cfg(CHECK, ENSEMBLE_SEGMENT, (ENSEMBLE_SEGMENT,))
        ens = self._ensemble(theta0s, cfg)
        traj = self._sgd(theta0s[0], cfg)
        theta_ok = np.allclose(ens.theta_final[0], traj.snapshots[ENSEMBLE_SEGMENT], rtol=MATCH_RTOL, atol=MATCH_ATOL)
        gap = float(np.max(np.abs(ens.theta_final[0] - traj.snapshots[ENSEMBLE_SEGMENT])))
        self.check("ensemble_trial0_theta_matches_sgd_run", theta_ok, f"max |dtheta| = {gap:.3g}")
        risk_ok = np.allclose(ens.risk[0], traj.mc_risk, rtol=MATCH_RTOL, atol=MATCH_ATOL)
        self.check("ensemble_trial0_mc_risk_matches_sgd_run", risk_ok, f"{ens.risk[0, -1]!r} vs {traj.mc_risk[-1]!r}")

    def check_repeats(self) -> None:
        """A repeated segment must be bit-identical."""
        if "ensemble" in self.first:
            start, cfg, final = self.first["ensemble"]
            again = self._ensemble(start, cfg).theta_final
            self.check("ensemble_segment_repeats_bitwise", np.array_equal(again, final))
        if "sgd_run" in self.first:
            start, cfg, final, v, risk = self.first["sgd_run"]
            again = self._sgd(start, cfg)
            same = (
                np.array_equal(again.snapshots[SGD_SEGMENT], final)
                and np.array_equal(again.v, v)
                and np.array_equal(again.risk, risk)
            )
            self.check("sgd_run_segment_repeats_bitwise", same)
        if "gd_run" in self.first:
            start, final, v = self.first["gd_run"]
            again = self._gd(start, GD_SEGMENT)
            same = np.array_equal(again.snapshots[GD_SEGMENT], final) and np.array_equal(again.v, v)
            self.check("gd_run_segment_repeats_bitwise", same)

    def check_oracle(self) -> None:
        """generalized_gradient against the path-sum oracle at the final parameters."""
        theta = self.theta_ens[0] if self.spec.main == "ensemble" else self.theta_sgd
        fast = generalized_gradient(self.arch, theta, self.start.measure, self.start.target)
        slow = gradient_pathsum_oracle(self.arch, theta, self.start.measure, self.start.target)
        gap = float(np.abs(fast - slow).max())
        tol = 1e-12 * max(1.0, float(np.linalg.norm(slow)))
        self.check("generalized_gradient_matches_oracle", gap <= tol, f"max gap {gap:.3g} vs tol {tol:.3g}")


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"{what} produced non-finite values")
