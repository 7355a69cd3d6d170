import math
import warnings

import numpy as np
import pytest

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    LyapunovContext,
    TargetSpec,
    descent_certificate,
    gaussian_init,
    gd_run,
    gd_threshold,
    lyapunov_value,
    norm_bound,
    sgd_threshold,
)
from relu_lyapunov.arch import layer_views


def manual_value(arch, theta, f0):
    layers = layer_views(arch, theta)
    total = sum(float(np.sum(w * w)) + k * float(b @ b) for k, (w, b) in enumerate(layers, start=1))
    return total - 2.0 * arch.depth * float(np.dot(f0, layers[-1][1]))


def test_value_matches_manual_sum():
    rng = np.random.default_rng(0)
    for widths in [(1, 1), (1, 2, 1), (2, 3, 2), (1, 3, 7, 1)]:
        arch = Architecture(widths)
        f0 = rng.normal(size=arch.widths[-1])
        ctx = LyapunovContext(arch, f0)
        for _ in range(10):
            theta = rng.normal(size=arch.param_count)
            assert abs(lyapunov_value(ctx, theta) - manual_value(arch, theta, f0)) < 1e-12


def test_zero_parameters_zero_value():
    arch = Architecture((1, 3, 7, 1))
    ctx = LyapunovContext(arch, np.array([2.0]))
    assert lyapunov_value(ctx, np.zeros(arch.param_count)) == 0.0


def test_output_bias_at_target_value():
    # only the output bias set, equal to the target: L|xi|^2 - 2L|xi|^2
    arch = Architecture((1, 7, 1))
    xi = 1.5
    theta = np.zeros(arch.param_count)
    theta[arch.bias_index(2, 1) - 1] = xi
    ctx = LyapunovContext(arch, np.array([xi]))
    assert abs(lyapunov_value(ctx, theta) - (-2.0 * xi * xi)) < 1e-15


def test_norm_bound_dominates():
    rng = np.random.default_rng(3)
    arch = Architecture((1, 2, 1))
    ctx = LyapunovContext(arch, np.array([1.0]))
    for _ in range(200):
        theta = rng.normal(size=arch.param_count)
        assert float(np.linalg.norm(theta)) <= norm_bound(ctx, theta) + 1e-12


def test_context_validates_f0():
    arch = Architecture((1, 2, 1))
    with pytest.raises(ValueError):
        LyapunovContext(arch, np.zeros(2))


# gd_threshold and sgd_threshold (as float.hex) at row 0 of each preset's
# gaussian_init(seed=0), at its init scale l_1^(-1/2), on the 101-point grid
# of [0, 1] towards xi = 1: at L >= 2 the norm bound
# (||f0|| + sqrt(V + L ||f0||^2))^2 enters gd_threshold (sgd_threshold takes
# ||theta0|| itself), so a change to that bound has to edit the gd pins
THRESHOLD_PINS = {
    (1, 7, 1): ("0x1.3db44d97e7b26p-10", "0x1.52af389617353p-36"),
    (1, 3, 7, 1): ("0x1.9ff2b6a879405p-19", "0x1.b7c9c430615e3p-68"),
}


@pytest.mark.parametrize("widths", THRESHOLD_PINS)
def test_thresholds_pinned_on_the_presets(widths):
    """The pins, and a gd run at 0.9 x gd_threshold, whose certificate has
    delta 0.9 and the norm bound of theta0: both derive from one base."""
    arch = Architecture(widths)
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 101)
    target = TargetSpec.constant(1.0)
    theta0 = gaussian_init(arch, seed=0, scale=widths[1] ** -0.5, trials=1)[0]
    gd = gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    sgd = sgd_threshold(arch, float(np.linalg.norm(theta0)), target.xi, 0.0, 1.0)
    assert (gd.hex(), sgd.hex()) == THRESHOLD_PINS[widths]
    ctx = LyapunovContext(arch, target.f0)
    report = descent_certificate(gd_run(arch, theta0, measure, target, 0.9 * gd, 20), ctx)
    assert report.passed
    assert report.delta == pytest.approx(0.9, rel=1e-14, abs=0.0)
    assert report.norm_bound == pytest.approx(norm_bound(ctx, theta0), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("seed", [40, 41, 42])
@pytest.mark.parametrize("widths", [(1, 7, 1), (1, 3, 7, 1), (1, 5, 5, 5, 1)])
def test_gd_descent_certified_at_the_norm_bound(widths, seed):
    """400 gd steps at 0.99 x gd_threshold on the 101-point grid towards xi = 1
    pass the certificate: the descent argument holds with the norm bound
    (||f0|| + sqrt(V_0 + L ||f0||^2))^2 behind the step, at L = 2, 3 and 4."""
    arch = Architecture(widths)
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 101)
    target = TargetSpec.constant(1.0)
    theta0 = gaussian_init(arch, seed=seed, scale=widths[1] ** -0.5, trials=1)[0]
    gamma = 0.99 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    report = descent_certificate(gd_run(arch, theta0, measure, target, gamma, 400), LyapunovContext(arch, target.f0))
    assert report.increase_count == 0 and report.stepwise_ok and report.norm_ok
    assert report.delta == pytest.approx(0.99, rel=1e-14, abs=0.0)


def test_thresholds_reject_bad_input_naming_it():
    """A NaN mass or box scale, a non-finite theta0, a negative or NaN norm or
    a target of the wrong width is a ValueError naming the argument; these
    returned nan, 0.0, the value at norm 0, or a finite step.  A NaN box bound
    or target is rejected in `test_validators` with the other boxes and
    targets."""
    arch = Architecture((1, 7, 1))
    theta0 = np.zeros(arch.param_count)
    cases = [
        ("mass", lambda: gd_threshold(arch, theta0, [1.0], math.nan)),
        ("input_scale", lambda: gd_threshold(arch, theta0, [1.0], 1.0, math.nan)),
        ("input_scale", lambda: gd_threshold(arch, theta0, [1.0], 1.0, 0.0)),
        ("theta0", lambda: gd_threshold(arch, np.where(np.arange(arch.param_count) == 3, math.nan, 0.0), [1.0], 1.0)),
        ("theta0", lambda: gd_threshold(arch, np.full(arch.param_count, math.inf), [1.0], 1.0)),
        ("theta0", lambda: gd_threshold(arch, np.full(arch.param_count, -math.inf), [1.0], 0.0)),
        ("theta0_norm", lambda: sgd_threshold(arch, -2.0, 1.0, 0.0, 1.0)),
        ("theta0_norm", lambda: sgd_threshold(arch, math.nan, 1.0, 0.0, 1.0)),
        (r"xi has shape \(2,\), expected \(1,\) for output width 1", lambda: sgd_threshold(arch, 1.0, [1.0, 1.0], 0.0, 1.0)),
    ]
    for name, call in cases:
        with pytest.raises(ValueError, match=name):
            call()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a finite target whose square overflows is a target all the same: the
        # bound is below the smallest float (`test_validators` checks no entry point warns)
        assert sgd_threshold(arch, 1.0, [1e200], 0.0, 1.0) == 0.0
        # a finite theta0 whose V overflows, to inf or (with f0 = b_L) to inf - inf,
        # has a norm bound that overflows too: the step is 0.0 at L >= 2
        big, top = theta0.copy(), theta0.copy()
        big[0] = top[arch.bias_slice(arch.depth)] = 1e200
        assert gd_threshold(arch, big, [1.0], 1.0) == 0.0
        assert gd_threshold(arch, top, [1e200], 1.0) == 0.0
