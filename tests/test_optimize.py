import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    DivergenceError,
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
    gf_euler_run,
    lyapunov_value,
    minibatch_gradient,
    risk_exact,
    sgd_ensemble,
    sgd_run,
    sgd_threshold,
)
from relu_lyapunov import optimize
from relu_lyapunov.gradient import _backward, _left_gate
from relu_lyapunov.lyapunov import _augmented_coeff
from relu_lyapunov.network import _augmented_blocks, _augmented_order, _forward, _relu_unit
from relu_lyapunov.optimize import _eval_block, _measure_run, decade_steps, geometric_checkpoints


def shallow_problem():
    arch = Architecture((1, 7, 1))
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 101)
    target = TargetSpec.constant(1.0)
    theta0 = gaussian_init(arch, seed=0, scale=7.0**-0.5, trials=1)[0]
    return arch, measure, target, theta0


def test_schedule_constant_and_callable():
    """Every loop takes a finite step size >= 0 or a function of the step."""
    arch, measure, target, theta0 = shallow_problem()
    sampler = UniformSampler(0.0, 1.0, 1, seed=4)
    cfg = SgdConfig(batch_size=10, steps=9, seed=4, eval_samples=50)
    logged = [
        lambda rate: gd_run(arch, theta0, measure, target, rate, 9).gamma,
        lambda rate: sgd_run(arch, theta0, rate, sampler, 1.0, cfg).gamma,
    ]
    for run in logged:
        np.testing.assert_array_equal(run(2.5e-4), np.full(10, 2.5e-4))
        np.testing.assert_array_equal(run(lambda n: 1e-3 / (n + 1)), 1e-3 / np.arange(1, 11))

    def ensemble(rate):
        return sgd_ensemble(arch, theta0[None], rate, 0.0, 1.0, 1.0, cfg).theta_final

    np.testing.assert_array_equal(ensemble(lambda n: 2.5e-4), ensemble(2.5e-4))
    for run in logged + [ensemble]:
        with pytest.raises(ValueError, match="finite and >= 0"):
            run(-1.0)
        with pytest.raises(ValueError, match="at step 0"):
            run(lambda n: -0.1)


def test_decade_steps_grid():
    assert decade_steps(100) == (1, 2, 5, 10, 20, 50, 100)
    assert decade_steps(7) == (1, 2, 5, 7)
    assert decade_steps(1) == (1,)
    grid = decade_steps(100_000)
    assert grid[0] == 1 and grid[-1] == 100_000
    assert 20_000 in grid and 50_000 in grid


def test_geometric_checkpoints():
    marks = geometric_checkpoints(1000, count=4)
    assert marks[0] == 0 and marks[-1] == 1000
    assert all(marks[i] < marks[i + 1] for i in range(len(marks) - 1))


def test_gd_threshold_reference_value():
    # affine 1-1 network, zero init, zero target, unit mass: 1/(1*1*4*1*1)
    arch = Architecture((1, 1))
    assert gd_threshold(arch, np.zeros(2), np.zeros(1), 1.0) == 0.25
    assert gd_threshold(arch, np.zeros(2), np.zeros(1), 0.0) == math.inf
    with pytest.raises(ValueError):
        gd_threshold(arch, np.zeros(2), np.zeros(1), -1.0)


def test_thresholds_below_smallest_float_are_zero():
    # deep nets: the power in the denominator overflows a float, or the one in
    # the numerator underflows; either way the bound is below the smallest float
    deep = Architecture((1,) + (16,) * 30 + (1,))
    assert sgd_threshold(deep, 1.0, np.array([1.0]), 0.0, 1.0) == 0.0
    assert sgd_threshold(Architecture((1,) + (16,) * 10 + (1,)), 1e300, np.array([1.0]), 0.0, 1.0) == 0.0
    deeper = Architecture((1,) + (4,) * 200 + (1,))
    assert gd_threshold(deeper, np.zeros(deeper.param_count), np.ones(1), 1.0) == 0.0


def test_gd_run_descends_and_logs_consistently():
    arch, measure, target, theta0 = shallow_problem()
    gamma = 0.9 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    steps = 200
    traj = gd_run(arch, theta0, measure, target, gamma, steps,
                  snapshot_steps=tuple(range(0, steps + 1, 50)))
    assert traj.steps[0] == 0 and traj.steps[-1] == steps
    assert len(traj.steps) == steps + 1
    ctx = LyapunovContext(arch, target.f0)
    assert np.all(np.diff(traj.v) <= 1e-13 * (1.0 + np.abs(traj.v[:-1])))
    assert traj.risk[-1] < traj.risk[0]
    for step, snap in traj.snapshots.items():
        i = int(np.searchsorted(traj.steps, step))
        assert abs(traj.v[i] - lyapunov_value(ctx, snap)) < 1e-12 * (1 + abs(traj.v[i]))
        assert abs(traj.risk[i] - risk_exact(arch, snap, measure, target)) < 1e-12
        g = generalized_gradient(arch, snap, measure, target)
        assert abs(traj.grad_norm[i] - float(np.linalg.norm(g))) < 1e-10
        assert abs(traj.param_norm[i] - float(np.linalg.norm(snap))) < 1e-12
        assert traj.gamma[i] == gamma


def test_gd_log_stride():
    arch, measure, target, theta0 = shallow_problem()
    gamma = 0.5 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    traj = gd_run(arch, theta0, measure, target, gamma, 100, log_stride=10)
    np.testing.assert_array_equal(traj.steps, np.arange(0, 101, 10))
    dense = gd_run(arch, theta0, measure, target, gamma, 100)
    np.testing.assert_array_equal(traj.v, dense.v[::10])


def test_descent_certificate_passes_on_admissible_run():
    arch, measure, target, theta0 = shallow_problem()
    gamma = 0.9 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    traj = gd_run(arch, theta0, measure, target, gamma, 300)
    report = descent_certificate(traj, LyapunovContext(arch, target.f0))
    assert report.passed
    assert report.increase_count == 0
    assert report.stepwise_ok and report.norm_ok
    assert 0.0 < report.delta < 1.0
    assert report.sup_param_norm <= report.norm_bound
    assert "stepwise=ok" in report.summary()


def test_descent_certificate_needs_dense_rows():
    arch, measure, target, theta0 = shallow_problem()
    gamma = 0.5 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    traj = gd_run(arch, theta0, measure, target, gamma, 100, log_stride=10)
    with pytest.raises(ValueError):
        descent_certificate(traj, LyapunovContext(arch, target.f0))


def _check_divergence(arch, run):
    """``run(theta0, steps)`` diverges from a blown-up start: the error carries
    the last step with a finite risk and its flat parameters, exactly the final
    snapshot of a rerun that stops there; a non-finite risk at step 0 is a
    ValueError instead, raised once: a context exit does not flush its
    block again."""
    _, _, _, theta0 = shallow_problem()
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # gf: dt above the descent threshold
        with pytest.raises(DivergenceError) as err:
            run(theta0 * 50.0, 1000)
        step, theta = err.value.step, err.value.theta
        assert 0 <= step < 1000 and f"non-finite at step {step + 1}" in str(err.value)
        assert theta.shape == (arch.param_count,) and np.isfinite(theta).all()
        np.testing.assert_array_equal(theta, run(theta0 * 50.0, step).snapshots[step])
        with pytest.raises(ValueError, match="risk is not finite at the initial parameters") as err:
            run(theta0 * 1e200, 5)
        assert err.value.__context__ is None


def test_gd_divergence_raises():
    arch, measure, target, _ = shallow_problem()
    _check_divergence(arch, lambda theta, steps: gd_run(arch, theta, measure, target, 10.0, steps))


def test_gf_divergence_raises():
    arch, measure, target, _ = shallow_problem()
    _check_divergence(arch, lambda theta, steps: gf_euler_run(arch, theta, measure, target, 10.0, steps))


def test_sgd_run_divergence_raises():
    arch = Architecture((1, 7, 1))
    sampler = UniformSampler(0.0, 1.0, 1)

    def run(theta, steps):
        cfg = SgdConfig(batch_size=20, steps=steps, seed=8, eval_steps=())
        return sgd_run(arch, theta, 50.0, sampler, 1.0, cfg)

    _check_divergence(arch, run)


def test_divergence_mid_logging_block():
    """A rate that turns large at step 300 blows up in the middle of the
    second 256-row logging block: the error still carries the last finite step
    and its flat parameters, the final snapshot of a rerun that stops there."""
    arch, measure, target, theta0 = shallow_problem()
    sampler = UniformSampler(0.0, 1.0, 1)

    def rate(n):
        return 1e-3 if n < 300 else 50.0

    def gd(steps, stride):
        return gd_run(arch, theta0, measure, target, rate, steps, log_stride=stride, snapshot_steps=(steps,))

    def sgd(steps, stride):
        cfg = SgdConfig(batch_size=20, steps=steps, seed=8, eval_steps=(), log_stride=stride, snapshot_steps=(steps,))
        return sgd_run(arch, theta0, rate, sampler, 1.0, cfg)

    for run in (gd, sgd):
        for stride in (1, 3):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
                run(1000, stride)
            step, theta = err.value.step, err.value.theta
            assert 300 <= step < 511 and step % 256 not in (0, 255)
            assert f"non-finite at step {step + 1}" in str(err.value)
            assert theta.shape == (arch.param_count,) and np.isfinite(theta).all()
            np.testing.assert_array_equal(theta, run(step, stride).snapshots[step])


def test_divergence_at_the_first_step_of_a_block():
    """A rate of 1e300 at step 255 (511) leaves step 256 (512), the first step
    of the second (third) 256-step logging block, with the first non-finite
    risk: the error carries the step before it, kept from the previous block,
    equal to the final snapshot of a rerun that stops there."""
    arch, measure, target, theta0 = shallow_problem()
    sampler = UniformSampler(0.0, 1.0, 1)
    for last in (255, 511):

        def rate(n):
            return 1e-3 if n < last else 1e300

        def gd(steps, stride):
            return gd_run(arch, theta0, measure, target, rate, steps, log_stride=stride, snapshot_steps=(steps,))

        def sgd(steps, stride):
            cfg = SgdConfig(batch_size=20, steps=steps, seed=8, eval_steps=(), log_stride=stride,
                            snapshot_steps=(steps,))
            return sgd_run(arch, theta0, rate, sampler, 1.0, cfg)

        for run in (gd, sgd):
            for stride in (1, 3):
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
                    run(1000, stride)
                assert err.value.step == last and f"risk became non-finite at step {last + 1}" in str(err.value)
                np.testing.assert_array_equal(err.value.theta, run(last, stride).snapshots[last])


def test_divergence_wins_over_a_later_callable_error():
    """A rate of 1e300 at step 5 leaves the risk non-finite at step 6; a
    schedule (or batch size) callable that raises at step 20, in the same
    256-step logging block, does not hide it: gd, gf's Euler loop (a callable
    step through its `_measure_run`, as `gf_euler_run` takes a float) and
    sgd_run raise DivergenceError(5, theta_5), the final snapshot of a rerun
    that stops at step 5."""
    arch, measure, target, theta0 = shallow_problem()
    sampler = UniformSampler(0.0, 1.0, 1)

    def blowup(n):
        return 1e300 if n == 5 else 1e-3

    def rate(n):
        return -1.0 if n >= 20 else blowup(n)

    def sgd(schedule, steps, batch=20):
        cfg = SgdConfig(batch_size=batch, steps=steps, seed=8, eval_steps=(), snapshot_steps=(steps,))
        return sgd_run(arch, theta0, schedule, sampler, 1.0, cfg)

    def gf(schedule, steps):
        return _measure_run(arch, theta0, measure, target, schedule, steps, 1, (steps,), dt=1e-4)

    runs = [
        lambda steps: gd_run(arch, theta0, measure, target, rate, steps, snapshot_steps=(steps,)),
        lambda steps: gf(rate, steps),
        lambda steps: sgd(rate, steps),
        lambda steps: sgd(blowup, steps, lambda n: 0 if n >= 20 else 20),
    ]
    for run in runs:
        with pytest.raises(DivergenceError, match="risk became non-finite at step 6") as err:
            run(100)
        assert err.value.step == 5
        np.testing.assert_array_equal(err.value.theta, run(5).snapshots[5])


def test_runs_equal_shorter_runs_across_blocks():
    """Where a block of steps ends does not move a row: 600-step gd, gf and sgd
    runs, whose blocks end at steps 255 and 511, equal 300-step runs bit for
    bit on their shared rows, at log_stride 1, 3 and 300 (most blocks then log
    no row); so does a gd run on 10^4 points, whose blocks hold 26 steps under
    the observer's byte budget."""
    arch, measure, target, theta0 = shallow_problem()
    gamma = 0.9 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    fine = DiscreteMeasure.uniform_grid(0.0, 1.0, 10_000)

    def sgd(steps, stride):
        cfg = SgdConfig(batch_size=20, steps=steps, seed=3, log_stride=stride, eval_steps=())
        return sgd_run(arch, theta0, 1e-2, UniformSampler(0.0, 1.0, 1), 1.0, cfg)

    def gf(steps, stride):
        return gf_euler_run(arch, theta0, measure, target, 0.5 * gamma, steps, stride)

    runs = [
        (600, (1, 3, 300), lambda steps, stride: gd_run(arch, theta0, measure, target, gamma, steps, stride)),
        (600, (1, 3, 300), gf),
        (600, (1, 3, 300), sgd),
        (60, (1, 3), lambda steps, stride: gd_run(arch, theta0, fine, target, 1e-3, steps, stride)),
    ]
    for steps, strides, run in runs:
        for stride in strides:
            long, short = run(steps, stride), run(steps // 2, stride)
            rows = [np.isin(t.steps, np.intersect1d(long.steps, short.steps)) for t in (long, short)]
            assert rows[1][:-1].all() and rows[0].sum() == rows[1].sum() >= 2
            for field in ("steps", "v", "risk", "grad_norm", "param_norm", "gamma", "descent_integral"):
                if getattr(short, field) is None:
                    assert getattr(long, field) is None
                else:
                    np.testing.assert_array_equal(getattr(long, field)[rows[0]], getattr(short, field)[rows[1]])


def test_observer_block_fits_its_byte_budget():
    """The observer's residual rows stay within ~2 MB: a gd run on 10^4 points
    keeps 26 steps of them, not 256 (20 MB)."""
    arch, _, target, theta0 = shallow_problem()
    fine = DiscreteMeasure.uniform_grid(0.0, 1.0, 10_000)
    gd_run(arch, theta0, fine, target, 1e-3, 3)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        gd_run(arch, theta0, fine, target, 1e-3, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_divergence_reports_once_through_the_error():
    """A diverging run lets no numpy overflow warning out before its
    DivergenceError: with warnings as errors, sgd_run, gd_run and a 3-trial
    sgd_ensemble still stop at the step they stop at with warnings ignored."""
    arch, measure, target, _ = shallow_problem()
    theta0s = gaussian_init(arch, seed=0, scale=7.0**-0.5, trials=3)
    cfg = SgdConfig(batch_size=100, steps=2000, seed=0, eval_steps=())
    runs = [
        lambda: sgd_run(arch, theta0s[0], 2.0, UniformSampler(0.0, 1.0, 1), 1.0, cfg),
        lambda: gd_run(arch, theta0s[0], measure, target, 50.0, 5000),
        lambda: sgd_ensemble(arch, theta0s, 2.0, 0.0, 1.0, 1.0, cfg),
    ]
    for run in runs:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(DivergenceError) as quiet:
                run()
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as loud:
                run()
        assert loud.value.step == quiet.value.step


def test_measure_runs_check_the_target_width():
    """A target of width 2 on a scalar-output net: gd_run and gf_euler_run raise
    the width error risk_exact raises, not numpy's broadcast error from inside
    the step loop."""
    arch, _, _, theta0 = shallow_problem()
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 11)
    target = TargetSpec.from_function(lambda x: np.array([x[0], 1.0]), [0.0])
    with pytest.raises(ValueError, match="output width 1") as want:
        risk_exact(arch, theta0, measure, target)
    for run in (gd_run, gf_euler_run):
        with pytest.raises(ValueError) as got:
            run(arch, theta0, measure, target, 1e-3, 5)
        assert str(got.value) == str(want.value)


def test_gf_euler_warns_above_threshold():
    arch, measure, target, theta0 = shallow_problem()
    thr = gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    with pytest.warns(UserWarning):
        gf_euler_run(arch, theta0, measure, target, 2.0 * thr, 10)


def test_gf_euler_integral_identity():
    """V(theta_t) + 4 L int_0^t risk ds = V(theta_0) up to O(dt) drift."""
    arch, measure, target, theta0 = shallow_problem()
    thr = gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    ctx = LyapunovContext(arch, target.f0)
    v0 = lyapunov_value(ctx, theta0)
    drifts = []
    for dt in (0.5 * thr, 0.25 * thr):
        traj = gf_euler_run(arch, theta0, measure, target, dt, 400)
        np.testing.assert_allclose(traj.time, traj.steps * dt, rtol=1e-15)
        drift = np.abs(traj.v - (v0 - traj.descent_integral)).max()
        drifts.append(drift)
    assert drifts[1] < 0.75 * drifts[0]


def test_sgd_run_reproducible_and_logged():
    arch = Architecture((1, 7, 1))
    theta0 = gaussian_init(arch, seed=1, scale=7.0**-0.5, trials=1)[0]
    sampler = UniformSampler(0.0, 1.0, 1, seed=123)
    cfg = SgdConfig(batch_size=20, steps=50, seed=123, eval_samples=500)
    t1 = sgd_run(arch, theta0, 1e-4, sampler, 1.0, cfg)
    t2 = sgd_run(arch, theta0, 1e-4, sampler, 1.0, cfg)
    np.testing.assert_array_equal(t1.v, t2.v)
    np.testing.assert_array_equal(t1.mc_risk, t2.mc_risk)
    np.testing.assert_array_equal(t1.mc_steps, decade_steps(50))
    assert len(t1.steps) == 51  # rows 0..steps; the last one closes the run
    assert set(t1.snapshots) == set(geometric_checkpoints(50))


@pytest.mark.parametrize(
    "change, match",
    [
        pytest.param({"log_stride": 0}, "log_stride", id="log_stride_0"),
        pytest.param({"steps": -1}, "steps", id="steps_negative"),
        pytest.param({"steps": -1, "eval_steps": (0,)}, "steps", id="steps_negative_with_eval_grid"),
        pytest.param({"eval_samples": 0}, "eval_samples", id="eval_samples_0"),
        pytest.param({"eval_samples": -1, "eval_steps": (0, 3)}, "eval_samples", id="eval_samples_negative"),
    ],
)
def test_sgd_run_rejects_bad_config(change, match):
    # bad config is a ValueError before any step, not an arithmetic or index
    # error mid-run; an eval grid with no samples would give an empty mc_risk
    arch = Architecture((1, 2, 1))
    sampler = UniformSampler(0.0, 1.0, 1, seed=0)
    cfg = replace(SgdConfig(batch_size=5, steps=5, seed=0, eval_samples=10), **change)
    with pytest.raises(ValueError, match=match):
        sgd_run(arch, np.zeros(arch.param_count), 1e-4, sampler, 0.5, cfg)


def test_sgd_run_explicit_eval_grid():
    arch = Architecture((1, 2, 1))
    theta0 = gaussian_init(arch, seed=2, scale=1.0, trials=1)[0]
    sampler = UniformSampler(0.0, 1.0, 1, seed=9)
    cfg = SgdConfig(batch_size=10, steps=30, seed=9, eval_samples=200, eval_steps=(0, 15, 30))
    traj = sgd_run(arch, theta0, 1e-4, sampler, 0.5, cfg)
    np.testing.assert_array_equal(traj.mc_steps, [0, 15, 30])
    assert np.all(np.isfinite(traj.mc_risk))


def test_trajectory_csv_format(tmp_path):
    arch, measure, target, theta0 = shallow_problem()
    gamma = 0.5 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    traj = gd_run(arch, theta0, measure, target, gamma, 5)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,v,risk,grad_norm,param_norm,gamma"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == traj.v[0]


def test_gaussian_init_streams():
    arch = Architecture((1, 7, 1))
    block = gaussian_init(arch, seed=5, scale=0.5, trials=4)
    assert block.shape == (4, 22)
    again = gaussian_init(arch, seed=5, scale=0.5, trials=4)
    np.testing.assert_array_equal(block, again)
    # trial t's vector does not depend on how many trials are drawn
    np.testing.assert_array_equal(block[:2], gaussian_init(arch, seed=5, scale=0.5, trials=2))
    assert np.abs(block[0] - block[1]).max() > 0.0


# (1,7,1): fan-in-1 broadcast affine and fan-out-1 back-propagation;
# (1,3,7,1): a general 3->7 matmul; (2,5,1): a multi-input first layer whose
# points are a transposed view of the sample block
@pytest.mark.parametrize("widths", [(1, 7, 1), (1, 3, 7, 1), (2, 5, 1)], ids=lambda w: "-".join(map(str, w)))
def test_ensemble_single_trial_matches_sgd_run(widths):
    """sgd_run is a one-trial block of the ensemble's loop, and trial 0 of a
    3-trial block runs the same per-trial products: bit for bit equal.  The
    400 eval samples are one part of each trial row at 1 and at 3 trials, so
    the risks sum in the same order too."""
    arch = Architecture(widths)
    theta0 = gaussian_init(arch, seed=3, scale=widths[1] ** -0.5, trials=3)
    cfg = SgdConfig(batch_size=25, steps=200, seed=77, eval_samples=400)
    sampler = UniformSampler(0.0, 1.0, widths[0], seed=77)
    traj = sgd_run(arch, theta0[0], 2e-4, sampler, 1.0, cfg)
    res = sgd_ensemble(arch, theta0, 2e-4, 0.0, 1.0, 1.0, cfg)
    np.testing.assert_array_equal(res.eval_steps, traj.mc_steps)
    np.testing.assert_array_equal(res.risk[0], traj.mc_risk)
    assert res.theta_final.shape == (3, arch.param_count)
    np.testing.assert_array_equal(res.theta_final[0], traj.snapshots[200])


def test_ensemble_statistics_shapes():
    arch = Architecture((1, 2, 1))
    theta0s = gaussian_init(arch, seed=6, scale=0.5, trials=3)
    cfg = SgdConfig(batch_size=5, steps=20, seed=2, eval_samples=100)
    res = sgd_ensemble(arch, theta0s, 1e-4, 0.0, 1.0, 0.5, cfg)
    assert res.risk.shape == (3, len(res.eval_steps))
    assert res.mean_risk.shape == (len(res.eval_steps),)
    assert res.std_error.shape == (len(res.eval_steps),)
    assert np.all(res.std_error >= 0.0)


def test_ensemble_rejects_xi_of_the_wrong_width():
    # a two-entry xi on a scalar-output net used to return the risk summed
    # over both targets at steps=0, and fail inside the step otherwise
    arch = Architecture((1, 3, 1))
    theta0s = gaussian_init(arch, seed=0, scale=0.5, trials=2)
    for steps, eval_steps in ((0, (0,)), (5, None)):
        cfg = SgdConfig(steps=steps, eval_steps=eval_steps)
        with pytest.raises(ValueError, match=r"xi has shape \(2,\), expected \(1,\) for output width 1"):
            sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, [1.0, 2.0], cfg)
        with pytest.raises(ValueError, match=r"has shape \(2,\), expected \(1,\)"):
            sgd_run(arch, theta0s[0], 1e-3, UniformSampler(0.0, 1.0, 1), [1.0, 2.0], cfg)


def test_ensemble_validates_inputs():
    arch = Architecture((1, 2, 1))
    cfg = SgdConfig(batch_size=5, steps=10, seed=0)
    with pytest.raises(ValueError):
        sgd_ensemble(arch, np.zeros((2, 3)), 1e-4, 0.0, 1.0, 0.5, cfg)
    # `b <= a` is false for a NaN bound; an infinite one makes every draw inf or nan
    for a, b in [(1.0, 1.0), (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0)]:
        with pytest.raises(ValueError, match="finite a < b"):
            sgd_ensemble(arch, np.zeros((2, 7)), 1e-4, a, b, 0.5, cfg)
    with pytest.raises(ValueError):
        sgd_ensemble(arch, np.zeros((0, 7)), 1e-4, 0.0, 1.0, 0.5, cfg)
    # an eval grid with no samples would report uninitialized memory
    for samples in (0, -1):
        with pytest.raises(ValueError, match="eval_samples"):
            sgd_ensemble(arch, np.zeros((2, 7)), 1e-4, 0.0, 1.0, 0.5, replace(cfg, eval_samples=samples))
    no_eval = replace(cfg, eval_samples=0, eval_steps=())
    assert sgd_ensemble(arch, np.zeros((2, 7)), 1e-4, 0.0, 1.0, 0.5, no_eval).risk.shape == (2, 0)


def test_loops_reject_non_finite_initial_parameters():
    arch, measure, target, theta0 = shallow_problem()
    bad = theta0.copy()
    bad[arch.weight_index(1, 3, 1) - 1] = -np.inf
    sampler = UniformSampler(0.0, 1.0, 1, seed=4)
    cfg = SgdConfig(batch_size=10, steps=5, seed=4, eval_samples=50)
    runs = [
        lambda: gd_run(arch, bad, measure, target, 1e-3, 5),
        lambda: gf_euler_run(arch, bad, measure, target, 1e-3, 5),
        lambda: sgd_run(arch, bad, 1e-4, sampler, 1.0, cfg),
        lambda: sgd_ensemble(arch, np.stack([theta0, bad]), 1e-4, 0.0, 1.0, 1.0, cfg),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="finite"):
            run()


def test_ensemble_divergence_check_covers_hidden_layers():
    # a huge output weight overflows the layer-1 gradient while the output
    # bias, the only block the step check used to read, stays finite; the
    # error names the diverged trials and keeps the last finite state
    arch = Architecture((1, 7, 1))
    theta0s = gaussian_init(arch, seed=9, scale=7.0**-0.5, trials=4)
    theta0s[[1, 3], arch.weight_slice(2)] = 1e160
    theta0s[:, arch.bias_slice(1)] = 1.0
    cfg = SgdConfig(batch_size=10, steps=2, seed=3, eval_steps=())
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        sgd_ensemble(arch, theta0s, 1.0, 0.0, 1.0, 1.0, cfg)
    assert err.value.step == 0
    assert "trials [1, 3] " in str(err.value)
    np.testing.assert_array_equal(err.value.theta, theta0s)


def test_eval_grid_one_rule_for_both_loops():
    # eval steps outside 0..steps are dropped and repeats kept once, by sgd_run
    # and the ensemble alike; the ensemble used to report np.empty for them
    arch = Architecture((1, 7, 1))
    theta0 = gaussian_init(arch, seed=1, scale=7.0**-0.5, trials=2)
    cfg = SgdConfig(batch_size=10, steps=3, seed=5, eval_samples=50, eval_steps=(2, 0, 50, 2, -1))
    res = sgd_ensemble(arch, theta0, 1e-3, 0.0, 1.0, 1.0, cfg)
    traj = sgd_run(arch, theta0[0], 1e-3, UniformSampler(0.0, 1.0, 1, seed=5), 1.0, cfg)
    np.testing.assert_array_equal(res.eval_steps, [0, 2])
    np.testing.assert_array_equal(traj.mc_steps, [0, 2])
    assert res.risk.shape == (2, 2)
    np.testing.assert_allclose(res.risk[0], traj.mc_risk, rtol=1e-12)
    for run in (
        lambda c: sgd_ensemble(arch, theta0, 1e-3, 0.0, 1.0, 1.0, c),
        lambda c: sgd_run(arch, theta0[0], 1e-3, UniformSampler(0.0, 1.0, 1, seed=5), 1.0, c),
    ):
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            run(replace(cfg, steps=-2))


def _reference_ensemble(arch, theta0s, gamma, xi, cfg):
    """sgd_ensemble's recursion on U[0, 1) with a fresh array for every result,
    through the kernel without a workspace (its plain layer-by-layer loop)."""
    trials, depth, l0 = len(theta0s), arch.depth, arch.widths[0]
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))

    def stream(*key):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed,) + key)))

    def layers(theta):
        shapes = [(trials, arch.widths[k], arch.widths[k - 1]) for k in range(1, depth + 1)]
        return [
            (theta[:, arch.weight_slice(k)].reshape(shapes[k - 1]), theta[:, arch.bias_slice(k)])
            for k in range(1, depth + 1)
        ]

    eval_points = stream(0).random((trials, cfg.eval_samples, l0)).swapaxes(-1, -2)
    theta, risks = theta0s.copy(), []
    for n in range(cfg.steps + 1):
        if n in cfg.eval_steps:
            pres, _ = _forward(layers(theta), eval_points, _relu_unit)
            risks.append(np.mean(np.sum((pres[-1] - xi[:, None]) ** 2, axis=1), axis=1))
        if n == cfg.steps:
            break
        m = cfg.batch_size
        x = stream(1, n).random((trials, m, l0)).swapaxes(-1, -2)
        pres, acts = _forward(layers(theta), x, _relu_unit)
        delta = (pres[-1] - xi[:, None]) * (2.0 * gamma / m)
        grads = _backward(layers(theta), x, pres, acts, delta, _left_gate)
        theta = theta - np.concatenate([part for gw, gb in grads for part in (gw.reshape(trials, -1), gb)], axis=1)
    return np.stack(risks, axis=1), theta


# the presets 1,7,1 and 1,3,7,1 (the 1 -> h -> 1 and the factored sweep), two
# inputs, depth 4, and an output of width 2 (the workspace's plain loop)
@pytest.mark.parametrize(
    "widths", [(1, 7, 1), (1, 3, 7, 1), (2, 5, 1), (1, 4, 3, 4, 1), (2, 3, 2)], ids=lambda w: "-".join(map(str, w))
)
def test_ensemble_workspace_matches_reference_loop(widths):
    """The workspace path equals the plain-allocation loop within 1e-15 of each
    array's largest magnitude: its bias terms are products with a ones row, so
    they sum in another order than the reference's ``sum(axis=-1)``."""
    arch = Architecture(widths)
    theta0s = gaussian_init(arch, seed=4, scale=widths[1] ** -0.5, trials=6)
    xi = np.linspace(0.5, 1.0, widths[-1])
    cfg = SgdConfig(batch_size=30, steps=100, seed=12, eval_samples=300, eval_steps=(0, 50, 100))
    res = sgd_ensemble(arch, theta0s, 2e-3, 0.0, 1.0, xi, cfg)
    risk, theta = _reference_ensemble(arch, theta0s, 2e-3, xi, cfg)
    assert np.abs(res.theta_final - theta).max() <= 1e-15 * np.abs(theta).max()
    assert np.abs(res.risk - risk).max() <= 1e-15 * np.abs(risk).max()


def _reference_mc_risk(arch, thetas, xi, cfg):
    """The Monte Carlo risks of (trials, d) flat parameters on the (seed, 0)
    sample through the allocating `_forward`, one trial row at a time and
    summed over the parts of `_eval_block` in the same order as the workspace
    path, so that only the kernel differs; and the mean squared outputs, the
    scale of that kernel's rounding."""
    trials, depth = len(thetas), arch.depth
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 0))))
    points = rng.random((trials, cfg.eval_samples, arch.widths[0])).swapaxes(-1, -2)
    layers = [
        (thetas[:, arch.weight_slice(k)].reshape(trials, arch.widths[k], arch.widths[k - 1]), thetas[:, arch.bias_slice(k)])
        for k in range(1, depth + 1)
    ]
    width, total, scale = _eval_block(trials, cfg.eval_samples)[1], np.zeros(trials), np.zeros(trials)
    for t in range(trials):
        for s0 in range(0, cfg.eval_samples, width):
            out = _forward([(w[t], b[t]) for w, b in layers], points[t, :, s0 : s0 + width], _relu_unit)[0][-1]
            total[t] += np.sum(np.sum((out - xi[:, None]) ** 2, axis=0))
            scale[t] += np.sum(np.sum(out**2, axis=0))
    return total / cfg.eval_samples, scale / cfg.eval_samples


# (trials, samples) -> (trial rows per block, samples per part): a ragged last
# part of one sample at 100 trials and at one, of five at 7 trials (a budget of
# 7 x 357 = 2,499 elements, under one 10,001-sample row), and blocks of 6, 6,
# 6 and 2 trial rows at 20 trials and 400 samples
EVAL_LAYOUTS = {(100, 10_001): (1, 10_000), (7, 10_001): (1, 2_499), (20, 400): (6, 400), (1, 2_501): (1, 2_500)}


@pytest.mark.parametrize("widths", [(1, 7, 1), (1, 3, 7, 1)], ids=lambda w: "-".join(map(str, w)))
@pytest.mark.parametrize("trials, samples", list(EVAL_LAYOUTS))
def test_ensemble_ragged_eval_chunk_matches_allocating_forward(widths, trials, samples):
    """A checkpoint takes whole trial rows of its sample per block, or one
    trial at a time in parts when a row exceeds the element budget; a ragged
    last block or part runs on a workspace of its own, and both workspaces are
    reused at every checkpoint.  The workspace adds each bias as a product
    with a ones row, which moves an output N by ~1e-16 |N|: within 1e-15 of
    the larger of the risks' max and the mean squared output, since where N is
    near the target a risk's own relative error grows as |N| / |N - xi|."""
    assert _eval_block(trials, samples) == EVAL_LAYOUTS[trials, samples]
    arch = Architecture(widths)
    theta0s = gaussian_init(arch, seed=7, scale=widths[1] ** -0.5, trials=trials)
    cfg = SgdConfig(batch_size=20, steps=4, seed=21, eval_samples=samples, eval_steps=(0, 2, 4))
    res = sgd_ensemble(arch, theta0s, 2e-3, 0.0, 1.0, 1.0, cfg)
    thetas = [sgd_ensemble(arch, theta0s, 2e-3, 0.0, 1.0, 1.0, replace(cfg, steps=n, eval_steps=())).theta_final
              for n in cfg.eval_steps]
    risk, scale = map(np.stack, zip(*(_reference_mc_risk(arch, theta, np.ones(1), cfg) for theta in thetas)))
    assert np.abs(res.risk - risk.T).max() <= 1e-15 * max(np.abs(risk).max(), scale.max())
    if trials == 1:
        traj = sgd_run(arch, theta0s[0], 2e-3, UniformSampler(0.0, 1.0, 1), 1.0, cfg)
        np.testing.assert_array_equal(traj.mc_risk, res.risk[0])


def _in_process(monkeypatch) -> None:
    """Run every ensemble call of this test in this process, as tests that count its buffers need."""
    monkeypatch.setattr(optimize, "_SPLIT_WORK", math.inf)


def test_checkpoint_draws_its_sample_a_block_at_a_time(monkeypatch):
    """A 200-trial checkpoint on 10^4 samples holds two trial rows of the
    sample at a time, never the whole (trials, samples) draw: its traced peak,
    which counts the workspaces it builds on an empty spare list, stays below
    0.4 of that draw's 16 MB."""
    _in_process(monkeypatch)
    monkeypatch.setattr(optimize, "_spare", {})
    arch = Architecture((1, 7, 1))
    theta0s = gaussian_init(arch, seed=1, scale=7.0**-0.5, trials=200)
    cfg = SgdConfig(steps=0, eval_steps=(0,), eval_samples=10_000)
    sgd_ensemble(arch, theta0s[:2], 1e-3, 0.0, 1.0, 1.0, cfg)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * 200 * 10_000 * 8


def _count_workspaces(monkeypatch) -> list[tuple[int, int, bool]]:
    """Empty the spare list for this test, run it in-process and log each `_Workspace` built: (trials, m, backward)."""
    built = []

    class Counted(optimize._Workspace):
        def __init__(self, blocks, m, backward=True):
            built.append((blocks[0].shape[0], m, backward))
            super().__init__(blocks, m, backward)

    _in_process(monkeypatch)
    monkeypatch.setattr(optimize, "_spare", {})
    monkeypatch.setattr(optimize, "_Workspace", Counted)
    return built


def test_checkpoints_build_at_most_two_workspaces(monkeypatch):
    """Checkpoints run on at most two workspaces, leased once per call and
    reused at every checkpoint: the full block of trial rows and a ragged last
    one (20 trials at 400 samples: blocks of 6 and 2), both forward-only."""
    built = _count_workspaces(monkeypatch)
    arch = Architecture((1, 7, 1))
    theta0s = gaussian_init(arch, seed=1, scale=7.0**-0.5, trials=20)
    sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, SgdConfig(batch_size=100, steps=20, seed=3, eval_samples=400))
    assert sorted(built) == [(2, 400, False), (6, 400, False), (20, 100, True)]
    ws = optimize._Workspace(_augmented_blocks(arch.widths, np.empty((2, arch.param_count))), 400, backward=False)
    assert not any(hasattr(ws, name) for name in ("gates", "grad", "scaled", "back"))


def test_workspace_buffers_start_on_cache_lines(monkeypatch):
    """Every buffer of a step or eval workspace starts on a 64-byte line,
    whatever the allocator returned (numpy aligns to 16 bytes), and so does
    every other array the spares hold: the observer's blocks and the
    parameters of an eval block."""
    for widths in ((1, 7, 1), (1, 3, 7, 1), (2, 3, 2)):
        arch = Architecture(widths)
        for trials, m, backward in ((100, 100, True), (1, 10_000, False), (3, 7, True)):
            blocks = _augmented_blocks(arch.widths, np.empty((trials, arch.param_count)))
            ws = optimize._Workspace(blocks, m, backward)
            buffers = [ws.draw] + ws.inputs + ws.pres
            if backward:
                buffers += ws.gates + [ws.grad] + [getattr(ws, name) for name in ("scaled", "back") if hasattr(ws, name)]
            assert all(a.ctypes.data % 64 == 0 for a in buffers)
            assert ws.buffers == buffers and ws.nbytes == sum(a.nbytes for a in buffers)
            assert all((a[..., -1, :] == 1.0).all() for a in ws.inputs)
    _in_process(monkeypatch)
    monkeypatch.setattr(optimize, "_spare", {})
    arch, measure, target, theta0 = shallow_problem()
    cfg = SgdConfig(batch_size=30, steps=300, seed=3, eval_samples=400)
    sgd_run(arch, theta0, 1e-3, UniformSampler(0.0, 1.0, 1), 1.0, cfg)
    sgd_ensemble(arch, gaussian_init(arch, seed=1, scale=7.0**-0.5, trials=20), 1e-3, 0.0, 1.0, 1.0, cfg)
    gd_run(arch, theta0, measure, target, 1e-3, 300)
    leased = []
    for buffers, _ in optimize._spare.values():
        for part in buffers if isinstance(buffers, tuple) else (buffers,):
            leased += part.buffers if isinstance(part, optimize._Workspace) else [part]
    assert len(optimize._spare) == 8 and all(a.ctypes.data % 64 == 0 for a in leased)


def _run_outputs(result) -> bytes:
    """Every array of an `EnsembleResult` or a `Trajectory`, as bytes."""
    if isinstance(result, optimize.EnsembleResult):
        return result.eval_steps.tobytes() + result.risk.tobytes() + result.theta_final.tobytes()
    fields = ("steps", "v", "risk", "grad_norm", "param_norm", "gamma", "mc_steps", "mc_risk")
    arrays = [getattr(result, f) for f in fields] + [result.snapshots[n] for n in sorted(result.snapshots)]
    return b"".join(a.tobytes() for a in arrays if a is not None)


def _spare_bytes() -> int:
    return sum(nbytes for _, nbytes in optimize._spare.values())


def test_repeated_calls_build_no_workspace(monkeypatch):
    """Calls repeated in turn lease the workspaces and observer blocks of the
    first round, eight buffer sets in all: the second round builds none, and
    each output equals the first round's bit for bit.  A gd run on other
    points of the same count equals a cold one.  A mix of one-trial runs that
    needs nine sets (two step and two eval workspaces, five recorder sets)
    keeps every one of them over later rounds, where a cap of eight sets
    dropped and rebuilt some in every round."""
    built = _count_workspaces(monkeypatch)
    arch, measure, target, theta0 = shallow_problem()
    theta0s = gaussian_init(arch, seed=1, scale=7.0**-0.5, trials=20)
    cfg = SgdConfig(batch_size=30, steps=300, seed=3, eval_samples=400, eval_steps=(0, 7, 300))
    runs = [
        lambda: sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, cfg),  # step and two eval workspaces
        lambda: sgd_run(arch, theta0, 1e-3, UniformSampler(0.0, 1.0, 1), 1.0, cfg),  # two, and a recorder set
        lambda: gd_run(arch, theta0, measure, target, 1e-3, 300, log_stride=7),  # one, and a recorder set
    ]
    first = [_run_outputs(run()) for run in runs]
    count = len(built)
    assert [_run_outputs(run()) for run in runs] == first
    assert len(built) == count and len(optimize._spare) == 8 and _spare_bytes() <= optimize._SPARE_BYTES
    # a leased workspace takes the points of the measure at hand
    other = DiscreteMeasure.uniform_grid(-1.0, 2.0, 101)
    warm = _run_outputs(gd_run(arch, theta0, other, target, 1e-3, 300))
    optimize._spare.clear()
    assert _run_outputs(gd_run(arch, theta0, other, target, 1e-3, 300)) == warm

    sampler, one = UniformSampler(0.0, 1.0, 1), SgdConfig(batch_size=100, seed=5)
    cfgs = [replace(one, steps=s) for s in (500, 2, 1)]  # recorder sets of 256, 3 and 2 rows
    # 0-step checkpoints: a recorder set of 1 row, eval workspaces of 2,500 samples and of 1 for the last part
    cfgs += [replace(one, steps=0, eval_samples=n, eval_steps=(0,)) for n in (10_000, 10_001)]
    one_trial = [lambda cfg=cfg: sgd_run(arch, theta0, 1e-3, sampler, 1.0, cfg) for cfg in cfgs]
    one_trial.append(lambda: gd_run(arch, theta0, measure, target, 1e-3, 400))  # 256 rows at m = 101
    optimize._spare.clear()
    count = len(built)
    first = [_run_outputs(run()) for run in one_trial]
    spares = {key: buffers for key, (buffers, _) in optimize._spare.items()}
    assert len(built) == count + 4 and len(spares) == 9 and _spare_bytes() <= optimize._SPARE_BYTES
    for _ in range(2):
        assert [_run_outputs(run()) for run in one_trial] == first
        assert optimize._spare.keys() == spares.keys()
        assert all(optimize._spare[key][0] is buffers for key, buffers in spares.items())
    assert len(built) == count + 4


def test_concurrent_calls_share_no_buffers():
    """Four threads running same-shape ensembles at once, with a short switch
    interval, each lease their own workspaces: every result equals the same
    call run alone, bit for bit."""
    arch = Architecture((1, 3, 7, 1))
    theta0s = gaussian_init(arch, seed=2, scale=3.0**-0.5, trials=10)
    cfgs = [SgdConfig(batch_size=50, steps=40, seed=s, eval_samples=500, eval_steps=(0, 40)) for s in range(8)]

    def run(cfg):
        return _run_outputs(sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, cfg))

    alone = [run(cfg) for cfg in cfgs]
    together: dict[int, bytes] = {}
    barrier = threading.Barrier(4)

    def worker(w):
        barrier.wait(timeout=30)
        for i in range(w, len(cfgs), 4):
            together[i] = run(cfgs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [together.get(i) for i in range(len(cfgs))] == alone


def test_threads_giving_back_at_the_byte_bound_keep_the_spares_whole(monkeypatch):
    """Four threads lease and give back sets of seven shared keys at a 1 us
    switch interval, under a byte bound of three sets, so nearly every give
    evicts: no lease sees another's writes in its set, no give raises (as an
    unlocked sum over the spares or eviction of the same oldest key does),
    and the spares end within the bound."""
    monkeypatch.setattr(optimize, "_spare", {})
    monkeypatch.setattr(optimize, "_SPARE_BYTES", 3 * 800)
    errors, barrier = [], threading.Barrier(4)

    def worker(w):
        try:
            barrier.wait(timeout=30)
            for i in range(3000):
                with optimize._Lease() as lease:
                    buffers = lease.take(((w + i) % 7,), lambda: np.empty(100))
                    buffers.fill(w)
                    assert (buffers == w).all()
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and _spare_bytes() <= optimize._SPARE_BYTES


def test_a_run_that_raises_gives_its_leases_back(monkeypatch):
    """A divergence, a raising step-size callable and a batch size of 0 end
    their runs early; each run gives back every workspace it leased, so the
    next call of the same shapes builds none and equals a cold call bit for
    bit."""
    built = _count_workspaces(monkeypatch)
    arch, measure, target, theta0 = shallow_problem()
    theta0s = gaussian_init(arch, seed=1, scale=7.0**-0.5, trials=20)
    sampler = UniformSampler(0.0, 1.0, 1)
    cfg = SgdConfig(batch_size=20, steps=400, seed=8, eval_samples=400, eval_steps=(0, 100, 400))

    def ensemble(scale, rate, batch=20):
        return sgd_ensemble(arch, theta0s * scale, rate, 0.0, 1.0, 1.0, replace(cfg, batch_size=batch))

    def sgd(scale, rate, batch=20):
        return sgd_run(arch, theta0 * scale, rate, sampler, 1.0, replace(cfg, batch_size=batch))

    cases = [  # (the call, the same call made to raise, the error)
        (lambda: ensemble(1.0, 1e-3), lambda: ensemble(30.0, 50.0), DivergenceError),
        (lambda: sgd(1.0, 1e-3), lambda: sgd(30.0, 50.0), DivergenceError),
        (lambda: gd_run(arch, theta0, measure, target, 1e-3, 400),
         lambda: gd_run(arch, theta0, measure, target, lambda n: -1.0 if n == 300 else 1e-3, 400), ValueError),
        (lambda: ensemble(1.0, 1e-3), lambda: ensemble(1.0, 1e-3, lambda n: 0 if n == 150 else 20), ValueError),
        (lambda: sgd(1.0, 1e-3), lambda: sgd(1.0, 1e-3, lambda n: 0 if n == 150 else 20), ValueError),
    ]
    for run, fail, error in cases:
        optimize._spare.clear()
        cold = _run_outputs(run())
        optimize._spare.clear()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
            fail()
        count = len(built)
        assert _run_outputs(run()) == cold
        assert len(built) == count


def test_a_changing_batch_size_reuses_workspaces(monkeypatch):
    """At a change of batch size the step workspace goes back to the spare
    list: a batch alternating 100/101 builds two step workspaces in all, and a
    growing one (100 + n) leaves spares within `_SPARE_BYTES` after the call."""
    built = _count_workspaces(monkeypatch)
    arch, _, _, theta0 = shallow_problem()
    sampler = UniformSampler(0.0, 1.0, 1)
    cfg = SgdConfig(batch_size=lambda n: 100 + n % 2, steps=60, seed=4, eval_steps=())
    sgd_run(arch, theta0, 1e-3, sampler, 1.0, cfg)
    assert sorted(built) == [(1, 100, True), (1, 101, True)]
    sgd_run(arch, theta0, 1e-3, sampler, 1.0, replace(cfg, batch_size=lambda n: 100 + n))
    assert [m for _, m, _ in built] == list(range(100, 161))  # one per size, 100 and 101 leased again
    assert _spare_bytes() <= optimize._SPARE_BYTES


def test_spare_list_stays_within_its_byte_bound(monkeypatch):
    """The spare list keeps at most `_SPARE_BYTES`: a gd run over 10^5 points
    on 1,3,7,1 (~22 MB of step workspace) frees that workspace when it ends
    and keeps the small sets of the run before it, and runs whose sets add up
    past the bound leave only the most recent that fit."""
    built = _count_workspaces(monkeypatch)
    arch = Architecture((1, 3, 7, 1))
    theta0 = gaussian_init(arch, seed=0, scale=3.0**-0.5, trials=1)[0]
    target = TargetSpec.constant(1.0)

    def run(points):
        gd_run(arch, theta0, DiscreteMeasure.uniform_grid(0.0, 1.0, points), target, 1e-3, 3)
        return {m: nbytes for key, (ws, nbytes) in optimize._spare.items() if isinstance(ws, optimize._Workspace)
                for m in [key[-1]]}

    assert list(run(101)) == [101]
    kept = run(100_000)
    assert list(kept) == [101] and built[-1] == (1, 100_000, True)
    assert run(100_000) == kept and built[-1] == (1, 100_000, True) and len(built) == 3
    sizes = [run(points) for points in (15_000, 15_001, 15_002)]
    assert sizes[0][15_000] > optimize._SPARE_BYTES / 3  # three of these do not fit
    assert 15_002 in sizes[-1] and 15_000 not in sizes[-1]
    assert _spare_bytes() <= optimize._SPARE_BYTES


def test_augmented_order_built_once_per_widths():
    """The augmented order and V's coefficients in it are cached per widths as
    read-only arrays: the observer and the step loop of a run share one order,
    and later runs reuse both."""
    arch, measure, target, theta0 = shallow_problem()
    _augmented_order.cache_clear()
    _augmented_coeff.cache_clear()
    gd_run(arch, theta0, measure, target, 1e-3, 3)
    assert _augmented_order.cache_info().misses == 1
    with pytest.warns(UserWarning, match="exceeds the descent threshold"):
        gf_euler_run(arch, theta0, measure, target, 1e-3, 3)
    sgd_run(arch, theta0, 1e-3, UniformSampler(0.0, 1.0, 1), 1.0, SgdConfig(batch_size=5, steps=3, eval_samples=10))
    sgd_ensemble(arch, theta0[None], 1e-3, 0.0, 1.0, 1.0, SgdConfig(batch_size=5, steps=3, eval_samples=10))
    assert _augmented_order.cache_info().misses == 1
    assert _augmented_coeff.cache_info().misses == 1 and _augmented_coeff.cache_info().hits == 2
    order, coeff = _augmented_order(arch.widths), _augmented_coeff(arch.widths)
    assert not order.flags.writeable and not coeff.flags.writeable
    np.testing.assert_array_equal(np.sort(order), np.arange(arch.param_count))
    np.testing.assert_array_equal(coeff, LyapunovContext(arch, target.f0)._coeff[order])


def test_ensemble_calls_share_no_state():
    """Back-to-back calls, and a call after a divergence, give byte-identical
    results; the error's theta is an owned copy of the last finite block."""
    arch = Architecture((1, 3, 7, 1))
    theta0s = gaussian_init(arch, seed=2, scale=3.0**-0.5, trials=5)
    cfg = SgdConfig(batch_size=20, steps=30, seed=8, eval_samples=200, eval_steps=(0, 30))

    def run():
        res = sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, cfg)
        return res.eval_steps.tobytes() + res.risk.tobytes() + res.theta_final.tobytes()

    first = run()
    assert run() == first
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        sgd_ensemble(arch, theta0s * 30.0, 50.0, 0.0, 1.0, 1.0, replace(cfg, steps=500))
    assert err.value.step > 0
    assert err.value.theta.flags.owndata and err.value.theta.base is None
    before = sgd_ensemble(arch, theta0s * 30.0, 50.0, 0.0, 1.0, 1.0, replace(cfg, steps=err.value.step, eval_steps=()))
    np.testing.assert_array_equal(err.value.theta, before.theta_final)
    assert run() == first


def test_descent_certificate_counts_increases_beyond_rounding():
    # once gd has converged V moves by a few ulps; such a move is no increase,
    # one above the slack 1e-13 (1 + |V_n| + |V_{n+1}|) still is
    arch, measure, target, theta0 = shallow_problem()
    gamma = 0.9 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    traj = gd_run(arch, theta0, measure, target, gamma, 20)
    ctx = LyapunovContext(arch, target.f0)
    traj.risk[-2] = 0.0
    traj.v[-1] = traj.v[-2] + 4.4e-16
    report = descent_certificate(traj, ctx)
    assert report.increase_count == 0 and report.passed
    assert report.max_increase == pytest.approx(4.4e-16, rel=0.1)
    traj.v[-1] = traj.v[-2] + 1e-9
    assert descent_certificate(traj, ctx).increase_count == 1


def test_descent_certificate_at_zero_step_on_overflowing_net():
    # 200 hidden layers: the threshold's growth factor overflows, so gd_threshold
    # is 0.0; a zero step has delta 0, not 0 * inf = nan
    arch = Architecture((1,) + (4,) * 200 + (1,))
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 11)
    target = TargetSpec.constant(1.0)
    theta0 = gaussian_init(arch, seed=0, scale=0.5, trials=1)[0]
    assert gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale) == 0.0
    with np.errstate(over="ignore"):
        report = descent_certificate(gd_run(arch, theta0, measure, target, 0.0, 2), LyapunovContext(arch, target.f0))
    assert report.delta == 0.0 and report.stepwise_ok
    assert "nan" not in report.summary()


def test_descent_certificate_void_when_delta_at_least_one():
    # at delta >= 1 the stepwise bound -4 gamma L (1 - delta) risk is >= 0 and
    # lets V rise, so it certifies nothing; it used to read "stepwise=ok"
    arch, measure, target, theta0 = shallow_problem()
    traj = gd_run(arch, theta0, measure, target, 0.05, 50)
    report = descent_certificate(traj, LyapunovContext(arch, target.f0))
    assert report.delta >= 1.0
    assert not report.stepwise_ok and not report.passed
    assert "stepwise=VOID: delta >= 1" in report.summary()


# each Trajectory field against a plain loop over the public functions: the
# loops run the augmented [W_k b_k] products and sum V, the norms and the
# risks in another order, so they agree to rounding, not bit for bit
REFERENCE_RTOL = 1e-14


def _reference_trajectory(arch, theta0, f0, gamma, steps, grad_and_risk, snapshot_steps, dt=None, evaluate=None,
                          eval_steps=(), stride=1):
    """theta_{n+1} = theta_n - gamma G_n with every logged quantity recomputed by
    a public function; rows at every ``stride``-th step and the last."""
    ctx = LyapunovContext(arch, f0)
    theta, rows, snaps, mc, integral = theta0.copy(), [], {}, [], 0.0
    for n in range(steps + 1):
        grad, risk = grad_and_risk(n, theta)
        rows.append((n, lyapunov_value(ctx, theta), risk, np.linalg.norm(grad), np.linalg.norm(theta), gamma, integral))
        if n in eval_steps:
            mc.append(evaluate(theta))
        if n in snapshot_steps:
            snaps[n] = theta.copy()
        if dt is not None:
            integral += 4.0 * arch.depth * risk * dt
        theta = theta - gamma * grad
    rows = np.array(rows).T
    return rows[:, (rows[0] % stride == 0) | (rows[0] == steps)], snaps, np.array(mc)


def _assert_matches_reference(traj, reference, dt=None):
    rows, snaps, mc = reference

    def close(got, want):
        assert np.abs(got - want).max() <= REFERENCE_RTOL * np.abs(want).max()

    np.testing.assert_array_equal(traj.steps, rows[0])
    np.testing.assert_array_equal(traj.gamma, rows[5])
    for got, want in zip((traj.v, traj.risk, traj.grad_norm, traj.param_norm), rows[1:5]):
        close(got, want)
    assert traj.snapshots.keys() == snaps.keys()
    for n, snap in snaps.items():
        assert traj.snapshots[n].shape == snap.shape
        close(traj.snapshots[n], snap)
    if dt is None:
        assert traj.time is None and traj.descent_integral is None
    else:
        np.testing.assert_array_equal(traj.time, rows[0] * dt)
        close(traj.descent_integral, rows[6])
    if len(mc):
        close(traj.mc_risk, mc)


# the presets 1,7,1 and 1,3,7,1, two inputs and two outputs; gd and gf also
# fit a non-constant target.  Steps are logged in blocks of 256: runs of 255,
# 256 and 257 steps take 256, 257 and 258 steps (0..steps), so the last block
# is full, one step and two steps; log_stride 3 logs 87 rows, the last one off
# the stride.  A batch size that changes at step 100 starts a new block there.
@pytest.mark.parametrize("widths", [(1, 7, 1), (1, 3, 7, 1), (2, 5, 1), (1, 4, 2)], ids=lambda w: "-".join(map(str, w)))
def test_single_runs_match_reference_loop(widths):
    for steps, stride in ((255, 1), (256, 1), (257, 1), (257, 3)):
        _check_single_runs(widths, steps, stride)


def _check_single_runs(widths, steps, stride):
    arch = Architecture(widths)
    theta0 = gaussian_init(arch, seed=5, scale=widths[1] ** -0.5, trials=1)[0]
    xi = np.linspace(0.5, 1.0, widths[-1])
    rng = np.random.default_rng(2)
    measure = DiscreteMeasure(rng.random((40, widths[0])), rng.random(40) / 20.0, 0.0, 1.0)
    targets = [
        TargetSpec.constant(xi),
        TargetSpec.from_function(lambda p: xi + np.sin(3.0 * p.sum()) * np.arange(1, widths[-1] + 1), xi),
    ]
    snaps = (0, 17, steps)
    for target in targets:
        gamma = 0.9 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)

        def full(n, theta):
            return generalized_gradient(arch, theta, measure, target), risk_exact(arch, theta, measure, target)

        traj = gd_run(arch, theta0, measure, target, gamma, steps, stride, snaps)
        _assert_matches_reference(traj, _reference_trajectory(arch, theta0, target.f0, gamma, steps, full, snaps, stride=stride))
        traj = gf_euler_run(arch, theta0, measure, target, 0.5 * gamma, steps, stride, snaps)
        reference = _reference_trajectory(arch, theta0, target.f0, 0.5 * gamma, steps, full, snaps, dt=0.5 * gamma, stride=stride)
        _assert_matches_reference(traj, reference, dt=0.5 * gamma)

    sampler = UniformSampler(0.0, 1.0, widths[0])
    cfg = SgdConfig(batch_size=15, steps=steps, seed=(4, 1), log_stride=stride, eval_samples=3_000,
                    eval_steps=(0, 33, steps), snapshot_steps=snaps)
    eval_points = UniformSampler(0.0, 1.0, widths[0], (4, 1, 0)).sample(cfg.eval_samples)

    def minibatch(n, theta):
        batch = UniformSampler(0.0, 1.0, widths[0], (4, 1, 1, n)).sample(cfg.batch_at(n))
        return minibatch_gradient(arch, theta, batch, xi), empirical_risk(arch, theta, batch, xi)

    traj = sgd_run(arch, theta0, 2e-3, sampler, xi, cfg)
    reference = _reference_trajectory(
        arch, theta0, xi, 2e-3, steps, minibatch, snaps,
        evaluate=lambda theta: empirical_risk(arch, theta, eval_points, xi), eval_steps=cfg.eval_steps, stride=stride,
    )
    _assert_matches_reference(traj, reference)
    np.testing.assert_array_equal(traj.mc_steps, cfg.eval_steps)
    cfg = replace(cfg, batch_size=lambda n: 15 if n < 100 else 40, eval_steps=())
    traj = sgd_run(arch, theta0, 2e-3, sampler, xi, cfg)
    reference = _reference_trajectory(arch, theta0, xi, 2e-3, steps, minibatch, snaps, stride=stride)
    _assert_matches_reference(traj, reference)
