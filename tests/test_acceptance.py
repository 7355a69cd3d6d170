"""End-to-end acceptance checks.

Each test here is one verifiable claim about the package, checked at fixed
seeds and explicit tolerances.  The slow training runs sit at the end so the
cheap algebraic checks fail fast.
"""

import numpy as np
import pytest

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    LyapunovContext,
    SgdConfig,
    TargetSpec,
    UniformSampler,
    empirical_risk,
    forward_exact,
    gaussian_init,
    gd_run,
    gd_threshold,
    generalized_gradient,
    gf_euler_run,
    norm_bound,
    population_risk_mc,
    sgd_ensemble,
    sgd_run,
    sgd_threshold,
    smooth_gradient,
)
from relu_lyapunov.claims import CLAIMS
from relu_lyapunov.cli import main


def test_parameter_counts():
    assert Architecture((1, 7, 1)).param_count == 22
    assert Architecture((1, 3, 7, 1)).param_count == 42


@pytest.mark.parametrize("name", list(CLAIMS))
def test_claim(name):
    """Every claim of the registry that `relu-lyapunov verify` runs holds at
    seed 0: the smoothed unit's bounds, the gradient against the path-sum
    oracle and finite differences, the growth bound, the pairing identity, the
    sandwich of V, the nonconvexity gap, the convex restrictions and the
    step-size thresholds (in `relu_lyapunov.claims`, each check's docstring
    gives its tolerances and its regimes its draws)."""
    ok, detail = CLAIMS[name](0)
    assert ok, detail


def test_smooth_gradient_monotone_limit():
    """The smoothed gradient's distance to the exact generalized gradient
    decays monotonically in the sharpness along 2^4..2^20 at 20 parameter
    points whose hidden preactivations stay off the kinks (its agreement with
    finite differences of the smoothed risk is `gradient.smooth_gradient_fd`)."""
    rng = np.random.default_rng(3)
    for trial in range(20):
        arch = Architecture((1, 3, 1)) if trial % 2 else Architecture((1, 2, 1))
        while True:
            theta = rng.normal(0.0, 0.8, arch.param_count)
            m = int(rng.integers(1, 6))
            measure = DiscreteMeasure(
                rng.uniform(0.0, 1.0, (m, 1)), rng.uniform(0.2, 1.0, m), 0.0, 1.0
            )
            margin = min(
                np.abs(forward_exact(arch, theta, x).preactivations[0]).min()
                for x in measure.points
            )
            if margin >= 0.05:
                break
        target = TargetSpec.constant(rng.normal(size=1))
        g = generalized_gradient(arch, theta, measure, target)
        devs = [
            float(np.linalg.norm(smooth_gradient(arch, theta, measure, target, float(2.0**e)) - g))
            for e in range(4, 21)
        ]
        for a, b in zip(devs, devs[1:]):
            assert b <= a + 1e-15 or a <= 1e-14, (trial, devs)
        assert devs[-1] <= 1e-12


def test_minibatch_risk_unbiasedness():
    """For 5 fixed parameter vectors the average of 10^4 batch risks (batch
    size 100) agrees with an independent 10^6-sample Monte Carlo estimate of
    the population risk within 4 combined standard errors."""
    arch = Architecture((1, 7, 1))
    xi = 1.0
    n_batches, batch_size = 10_000, 100
    for k in range(5):
        theta = gaussian_init(arch, seed=k, scale=7.0**-0.5, trials=1)[0]
        batch_sampler = UniformSampler(0.0, 1.0, 1, seed=(900, k))
        means = np.empty(n_batches)
        for j in range(n_batches):
            means[j] = empirical_risk(arch, theta, batch_sampler.sample(batch_size), xi)
        emp_mean = float(means.mean())
        emp_se = float(means.std(ddof=1) / np.sqrt(n_batches))
        pop_sampler = UniformSampler(0.0, 1.0, 1, seed=(901, k))
        pop_mean, pop_se = population_risk_mc(arch, theta, pop_sampler, xi, 1_000_000)
        combined = float(np.hypot(emp_se, pop_se))
        assert abs(emp_mean - pop_mean) <= 4.0 * combined, (k, emp_mean, pop_mean, combined)


def test_gd_descent_boundedness_convergence():
    """Deterministic descent on the 101-point uniform grid with a constant
    unit target and a step at 0.9x the admissible threshold: the energy V
    never increases over 10^5 steps, the parameter norm stays under its
    a-priori bound, and the final risk is below 1e-6."""
    arch = Architecture((1, 7, 1))
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 101)
    target = TargetSpec.constant(1.0)
    theta0 = gaussian_init(arch, seed=0, scale=7.0**-0.5, trials=1)[0]
    gamma = 0.9 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    traj = gd_run(arch, theta0, measure, target, gamma, 100_000)
    assert np.all(np.diff(traj.v) <= 0.0)
    bound = norm_bound(LyapunovContext(arch, target.f0), theta0)
    assert traj.param_norm.max() <= bound * (1.0 + 1e-12)
    assert traj.risk[-1] < 1e-6


def test_gradient_flow_rate_bound():
    """Euler integration of the gradient flow at dt = 0.5x the threshold:
    t * risk(t) stays below 0.5 ||theta0||^2 + L ||xi||^2 + C dt at every
    logged step, with the discretization constant C estimated by comparing
    the run against one at half the step."""
    arch = Architecture((1, 7, 1))
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 101)
    target = TargetSpec.constant(1.0)
    theta0 = gaussian_init(arch, seed=0, scale=7.0**-0.5, trials=1)[0]
    dt = 0.5 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    steps = 100_000
    budget = 0.5 * float(theta0 @ theta0) + arch.depth * float(target.f0 @ target.f0)

    coarse = gf_euler_run(arch, theta0, measure, target, dt, steps)
    fine = gf_euler_run(arch, theta0, measure, target, 0.5 * dt, 2 * steps)
    m_coarse = float((coarse.time * coarse.risk).max())
    m_fine = float((fine.time * fine.risk).max())
    c_est = max((m_coarse - m_fine) / (0.5 * dt), 0.0)
    assert np.all(coarse.time * coarse.risk <= budget + c_est * dt + 1e-9)


def test_sgd_per_trial_descent():
    """With the per-trial admissible step size, every one of 20 independent
    SGD runs keeps V non-increasing through all 10^4 steps (up to additive
    float jitter 1e-13 * (1 + |V|))."""
    arch = Architecture((1, 7, 1))
    xi = np.array([1.0])
    theta0s = gaussian_init(arch, seed=0, scale=7.0**-0.5, trials=20)
    for t in range(20):
        gamma = sgd_threshold(arch, float(np.linalg.norm(theta0s[t])), xi, 0.0, 1.0)
        cfg = SgdConfig(batch_size=100, steps=10_000, seed=t, eval_samples=0, eval_steps=())
        sampler = UniformSampler(0.0, 1.0, 1, seed=t)
        traj = sgd_run(arch, theta0s[t], gamma, sampler, xi, cfg)
        slack = 1e-13 * (1.0 + np.abs(traj.v[:-1]))
        assert np.all(np.diff(traj.v) <= slack), t


def test_mean_risk_tenfold_decay_presets():
    """Both bundled experiment configurations, run at 100 trials for 10^5
    steps, drive the trial-averaged Monte Carlo risk at the final step at
    least 10x below its value at step 100, and below 1e-2."""
    for widths, init_scale in [((1, 7, 1), 7.0**-0.5), ((1, 3, 7, 1), 3.0**-0.5)]:
        arch = Architecture(widths)
        theta0s = gaussian_init(arch, seed=0, scale=init_scale, trials=100)
        cfg = SgdConfig(batch_size=100, steps=100_000, seed=0, eval_samples=10_000)
        res = sgd_ensemble(arch, theta0s, 1.0 / 2000.0, 0.0, 1.0, 1.0, cfg)
        mean = res.mean_risk
        at = {int(s): mean[i] for i, s in enumerate(res.eval_steps)}
        assert at[100_000] < 1e-2, widths
        assert at[100_000] <= at[100] / 10.0, (widths, at[100], at[100_000])


def test_cli_csv_determinism(tmp_path):
    """Repeating the SGD experiment command with identical flags yields a
    byte-identical CSV."""
    args = [
        "sgd", "--preset", "shallow", "--trials", "5", "--steps", "2000",
        "--batch", "50", "--eval-samples", "2000", "--seed", "7",
    ]
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
