"""Property tests for the validators at the package boundary: every valid
input is accepted, and every non-finite, non-positive or empty-box input
raises ValueError, never another exception or a silent result; so does a
count or step index that is not an integer.  A seed that
is not a nonnegative integer or a tuple of them raises TypeError, or
ValueError naming the seed for a negative word.  Points
or target values of the wrong width raise a ValueError naming the width
in every public function that evaluates the network on them, and a
non-finite target or xi one naming it."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    LyapunovContext,
    SgdConfig,
    TargetSpec,
    UniformSampler,
    decade_steps,
    empirical_risk,
    forward_exact,
    forward_smooth,
    gaussian_init,
    gd_run,
    generalized_gradient,
    geometric_checkpoints,
    gf_euler_run,
    gradient_pathsum_oracle,
    last_layer_midpoint_check,
    midpoint_gap,
    minibatch_gradient,
    nonconvexity_witness,
    pairing,
    population_risk_mc,
    risk_exact,
    risk_smooth,
    sgd_ensemble,
    sgd_run,
    sgd_threshold,
    smooth_gradient,
)
from relu_lyapunov import optimize
from relu_lyapunov.optimize import _eval_grid, _rate_fn
from relu_lyapunov.risk import _constant_target

finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def boxes(draw):
    a, b = sorted((draw(finite), draw(finite)))
    assume(a < b and math.isfinite(b - a))
    return a, b


@st.composite
def bad_boxes(draw):
    kind = draw(st.sampled_from(["non-finite a", "non-finite b", "a >= b", "overflowing width"]))
    if kind == "non-finite a":
        return draw(non_finite), draw(finite)
    if kind == "non-finite b":
        return draw(finite), draw(non_finite)
    if kind == "a >= b":
        b = draw(finite)
        return draw(st.floats(min_value=b, allow_infinity=False)), b
    return draw(st.floats(max_value=-1e308)), draw(st.floats(min_value=1e308, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(boxes(), st.integers(1, 4), st.integers(0, 6), st.data())
def test_valid_boxes_are_accepted(box, dim, count, data):
    a, b = box
    unit = data.draw(st.lists(st.floats(0.0, 1.0), min_size=count * dim, max_size=count * dim))
    points = np.clip(a + (b - a) * np.reshape(unit, (count, dim)), a, b)
    weights = data.draw(st.lists(st.floats(0.0, 1e6), min_size=count, max_size=count))
    measure = DiscreteMeasure(points, weights, a, b)
    assert measure.mass >= 0.0
    draws = UniformSampler(a, b, dim, seed=data.draw(st.integers(0, 2**32))).sample(3)
    assert np.all((draws >= a) & (draws <= b))


@settings(max_examples=200, deadline=None)
@given(bad_boxes())
def test_bad_boxes_are_rejected(box):
    a, b = box
    with pytest.raises(ValueError, match="finite a < b"):
        DiscreteMeasure([[0.0]], [1.0], a, b)
    with pytest.raises(ValueError, match="finite a < b"):
        UniformSampler(a, b)
    with pytest.raises(ValueError, match="finite a < b"):
        sgd_threshold(Architecture((1, 7, 1)), 1.0, 1.0, a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_measure_rejects_bad_points_and_weights(index, data):
    points = np.full((4, 1), 0.5)
    weights = np.full(4, 0.25)
    kind = data.draw(st.sampled_from(["point", "weight", "negative weight", "outside"]))
    if kind == "point":
        points[index, 0] = data.draw(non_finite)
    elif kind == "weight":
        weights[index] = data.draw(non_finite)
    elif kind == "negative weight":
        weights[index] = data.draw(st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
    else:
        outside = st.one_of(st.floats(max_value=0.0, exclude_max=True), st.floats(min_value=1.0, exclude_min=True))
        points[index, 0] = data.draw(outside.filter(math.isfinite))
    with pytest.raises(ValueError):
        DiscreteMeasure(points, weights, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(-5, 0))
def test_sampler_rejects_non_positive_dim(dim):
    with pytest.raises(ValueError, match="dim"):
        UniformSampler(0.0, 1.0, dim)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats().filter(lambda v: not (math.isfinite(v) and v.is_integer())), non_finite, st.booleans()))
def test_sampler_rejects_fractional_or_non_finite_dim(dim):
    # a fractional dim used to construct and then fail in .sample with a TypeError;
    # dim=True used to draw 1-d points
    with pytest.raises(ValueError, match="dim"):
        UniformSampler(0.0, 1.0, dim)


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.integers(1, 4), st.integers(1, 4).map(float)))
def test_sampler_accepts_integral_dim(dim):
    sampler = UniformSampler(0.0, 1.0, dim)
    assert isinstance(sampler.dim, int) and sampler.sample(2).shape == (2, dim)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, 10**6), st.integers(1, 10**6).map(float)), st.booleans())
def test_batch_at_accepts_positive_integers(size, as_function):
    cfg = SgdConfig(batch_size=(lambda n: size) if as_function else size)
    assert cfg.batch_at(7) == size and isinstance(cfg.batch_at(7), int)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(max_value=0),
        st.floats(max_value=1.0, exclude_max=True),
        st.floats().filter(lambda v: not (math.isfinite(v) and v.is_integer())),
        non_finite,
        st.booleans(),
    ),
    st.booleans(),
)
def test_batch_at_rejects_non_positive_or_fractional_or_non_finite(size, as_function):
    # batch_size=True used to run batches of 1
    cfg = SgdConfig(batch_size=(lambda n: size) if as_function else size)
    with pytest.raises(ValueError, match="batch size"):
        cfg.batch_at(3)


@pytest.mark.parametrize("call", ["sgd_run", "one-trial ensemble", "callable-rate ensemble"])
def test_a_zero_int_batch_size_is_rejected_before_any_checkpoint(monkeypatch, call):
    """`sgd_run` and the in-process `sgd_ensemble` calls (one trial, or a
    callable rate) reject ``batch_size=0`` on entry with the step-0 message:
    no Monte Carlo checkpoint is planned, let alone run."""

    def unreachable(*args):
        raise AssertionError("a checkpoint was planned")

    monkeypatch.setattr(optimize, "_eval_block", unreachable)
    arch = Architecture((1, 7, 1))
    theta0s = gaussian_init(arch, seed=0, scale=7.0**-0.5, trials=1 if call != "callable-rate ensemble" else 10)
    cfg = SgdConfig(batch_size=0, steps=100, eval_steps=(0,))
    with pytest.raises(ValueError, match=r"^batch size must be a positive integer, got 0 at step 0$"):
        if call == "sgd_run":
            sgd_run(arch, theta0s[0], 5e-4, UniformSampler(0.0, 1.0), 1.0, cfg)
        else:
            sgd_ensemble(arch, theta0s, 5e-4 if call == "one-trial ensemble" else (lambda n: 5e-4), 0.0, 1.0, 1.0, cfg)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 10**6))
def test_rate_fn_accepts_finite_nonnegative_steps(value, n):
    # a zero step is allowed: the loops then leave the parameters where they are
    assert _rate_fn(value)(n) == value
    assert _rate_fn(lambda k: value)(n) == value


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(max_value=0.0, exclude_max=True), non_finite), st.integers(0, 10**6))
def test_rate_fn_rejects_negative_or_non_finite_steps(value, n):
    with pytest.raises(ValueError, match="step size"):
        _rate_fn(value)
    rate = _rate_fn(lambda k: value)
    with pytest.raises(ValueError, match="invalid step size"):
        rate(n)


seed_word = st.one_of(
    st.integers(0, 2**70),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 2**32 - 1).map(np.uint32),
)
seeds = st.one_of(seed_word, st.lists(seed_word, max_size=4).map(tuple))
ARCH = Architecture((1, 2, 1))


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_seed_rule_accepts_nonnegative_python_and_numpy_ints(seed):
    """SgdConfig, gaussian_init and UniformSampler take one seed rule, and a
    numpy int keys the same streams as the equal Python int."""
    plain = tuple(int(w) for w in seed) if isinstance(seed, tuple) else int(seed)
    assert SgdConfig(seed=seed).seed == seed
    np.testing.assert_array_equal(gaussian_init(ARCH, seed, 1.0, 2), gaussian_init(ARCH, plain, 1.0, 2))
    np.testing.assert_array_equal(UniformSampler(0.0, 1.0, 1, seed).sample(3), UniformSampler(0.0, 1.0, 1, plain).sample(3))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.floats(),
        st.booleans(),
        st.sampled_from([np.float64(1.0), np.bool_(True), "1", None, [1, 2]]),
    ),
    st.lists(seed_word, max_size=2),
)
def test_seed_rule_rejects_non_integers(word, others):
    # seed=1.5 and seed=True used to run as seed 1
    for seed in (word, tuple(others) + (word,)):
        with pytest.raises(TypeError, match="seed must be"):
            SgdConfig(seed=seed)
        with pytest.raises(TypeError, match="seed must be"):
            gaussian_init(ARCH, seed, 1.0, 2)
        with pytest.raises(TypeError, match="seed must be"):
            UniformSampler(0.0, 1.0, 1, seed)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(max_value=-1), st.integers(-(2**63), -1).map(np.int64)), st.lists(seed_word, max_size=2))
def test_seed_rule_rejects_negative_words(word, others):
    # 20 trials take the block-derived streams, whose word split never ends on a negative int
    for seed in (word, tuple(others) + (word,)):
        named = re.escape(f"seed must be a nonnegative integer or a tuple of them, got {seed!r}")
        with pytest.raises(ValueError, match=named):
            SgdConfig(seed=seed)
        with pytest.raises(ValueError, match=named):
            gaussian_init(ARCH, seed, 1.0, 20)
        with pytest.raises(ValueError, match=named):
            UniformSampler(0.0, 1.0, 1, seed)


fractional = st.floats().filter(lambda v: not (math.isfinite(v) and v.is_integer()))
non_integers = st.one_of(fractional, st.booleans(), st.sampled_from([np.bool_(True), np.float64(2.5), "3", None]))
COUNTS = ("steps", "log_stride", "eval_samples")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COUNTS + ("eval_steps", "snapshot_steps")), non_integers)
def test_sgd_config_rejects_non_integral_fields(name, value):
    # eval_steps=(2.5,) used to evaluate step 2 and (True,) step 1; a fractional
    # steps, log_stride or eval_samples failed deep inside numpy
    with pytest.raises(ValueError, match=name):
        SgdConfig(**{name: value if name in COUNTS else (0, value)})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(0, 50), st.integers(0, 50).map(float), st.integers(0, 50).map(np.int64)), max_size=6),
    st.one_of(st.integers(0, 40), st.integers(0, 40).map(float), st.integers(0, 40).map(np.uint32)),
)
def test_sgd_config_takes_integral_values_as_ints(eval_steps, steps):
    cfg = SgdConfig(steps=steps, eval_steps=tuple(eval_steps), snapshot_steps=tuple(eval_steps))
    assert type(cfg.steps) is int and all(type(n) is int for n in cfg.eval_steps + cfg.snapshot_steps)
    assert _eval_grid(cfg) == tuple(sorted({int(n) for n in eval_steps if n <= steps}))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 10)),
    st.one_of(st.integers(0, 4), st.integers(0, 4).map(float)),
)
def test_gaussian_init_accepts_finite_scale_and_nonnegative_trials(scale, trials):
    block = gaussian_init(ARCH, 0, scale, trials)
    assert block.shape == (trials, ARCH.param_count)
    if trials:
        np.testing.assert_array_equal(block, gaussian_init(ARCH, 0, scale, int(trials)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(non_finite, st.floats(max_value=-5e-324)), st.integers(0, 4))
def test_gaussian_init_rejects_non_finite_scale(scale, trials):
    # scale=nan used to return a block of NaNs, and a negative scale an empty
    # block at 0 trials or numpy's bare "scale < 0" at more
    with pytest.raises(ValueError, match="scale"):
        gaussian_init(ARCH, 0, scale, trials)
    np.testing.assert_array_equal(gaussian_init(ARCH, 0, -0.0, trials), np.zeros((trials, ARCH.param_count)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(max_value=-1), non_integers))
def test_gaussian_init_rejects_negative_or_non_integral_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        gaussian_init(ARCH, 0, 1.0, trials)


ARCH = Architecture((1, 3, 1))
THETA = np.linspace(-1.0, 1.0, ARCH.param_count)
HEAD = ARCH.offsets[1]
# every public function that evaluates the network, on a measure m and a
# target t: those that take a target, those that take xi (given t.f0), and the
# traces (given m's first point)
TARGET_CALLS = {
    "risk_exact": lambda m, t: risk_exact(ARCH, THETA, m, t),
    "risk_smooth": lambda m, t: risk_smooth(ARCH, THETA, m, t, 4.0),
    "generalized_gradient": lambda m, t: generalized_gradient(ARCH, THETA, m, t),
    "smooth_gradient": lambda m, t: smooth_gradient(ARCH, THETA, m, t, 4.0),
    "gradient_pathsum_oracle": lambda m, t: gradient_pathsum_oracle(ARCH, THETA, m, t),
    "pairing": lambda m, t: pairing(LyapunovContext(ARCH, [1.0]), THETA, m, t),
    "midpoint_gap": lambda m, t: midpoint_gap(ARCH, THETA, -THETA, m, t),
    "last_layer_midpoint_check": lambda m, t: last_layer_midpoint_check(
        ARCH, THETA[:HEAD], THETA[HEAD:], -THETA[HEAD:], m, t
    ),
    "gd_run": lambda m, t: gd_run(ARCH, THETA, m, t, 1e-3, 3),
    "gf_euler_run": lambda m, t: gf_euler_run(ARCH, THETA, m, t, 1e-3, 3),
}
XI_CALLS = {
    "empirical_risk": lambda m, t: empirical_risk(ARCH, THETA, m.points, t.f0),
    "minibatch_gradient": lambda m, t: minibatch_gradient(ARCH, THETA, m.points, t.f0),
    "population_risk_mc": lambda m, t: population_risk_mc(ARCH, THETA, UniformSampler(0.0, 1.0, m.dim), t.f0, 10),
}
TRACES = {
    "forward_exact": lambda m, t: forward_exact(ARCH, THETA, m.points[0]),
    "forward_smooth": lambda m, t: forward_smooth(ARCH, THETA, m.points[0], 4.0),
}
CALLS = {**TARGET_CALLS, **XI_CALLS, **TRACES}
TWO_OUTPUTS = {
    "constant target": TargetSpec.constant([1.0, 1.0]),
    "functional target": TargetSpec.from_function(lambda p: np.array([p[0], p[0]]), f0=[1.0]),
}
CASES = [(name, "points") for name in CALLS]
CASES += [(name, "constant target") for name in {**TARGET_CALLS, **XI_CALLS}]
CASES += [(name, "functional target") for name in TARGET_CALLS]


@pytest.mark.parametrize("name, case", CASES, ids=[f"{name}-{case}" for name, case in CASES])
def test_wrong_widths_are_rejected(name, case):
    """On a 1,3,1 network: points of width 2, or a target of width 2 (the xi-taking functions get xi = [1, 1])."""
    dim = 2 if case == "points" else 1
    measure = DiscreteMeasure(np.linspace(0.0, 1.0, 3 * dim).reshape(3, dim), np.full(3, 1.0 / 3.0), 0.0, 1.0)
    # a target function that takes points of width 1 only: the check comes before it
    target = TargetSpec.from_function(lambda p: np.array([p.item()]), f0=[1.0]) if case == "points" else TWO_OUTPUTS[case]
    with pytest.raises(ValueError, match="input width 1" if case == "points" else "output width 1"):
        CALLS[name](measure, target)


@pytest.mark.parametrize("params, dim, xi", [(THETA[:3], 1, 1.0), (THETA, 2, 1.0), (THETA, 1, [1.0, 1.0])])
def test_rejected_monte_carlo_call_draws_nothing(params, dim, xi):
    """population_risk_mc checks θ, the sampler's dim and xi before it draws."""
    sampler = UniformSampler(0.0, 1.0, dim, 7)
    with pytest.raises(ValueError):
        population_risk_mc(ARCH, params, sampler, xi, 10)
    np.testing.assert_array_equal(sampler.sample(1), UniformSampler(0.0, 1.0, dim, 7).sample(1))


# gd_run and gf_euler_run on a 1,3,1 network, at a step below both runs' descent threshold (1.6e-3)
GRID = DiscreteMeasure.uniform_grid(0.0, 1.0, 5)
MEASURE_RUNS = {
    "gd_run": lambda **counts: gd_run(ARCH, THETA, GRID, TargetSpec.constant(1.0), 1e-3, **counts),
    "gf_euler_run": lambda **counts: gf_euler_run(ARCH, THETA, GRID, TargetSpec.constant(1.0), 1e-3, **counts),
}
RUN_COUNTS = ("steps", "log_stride", "snapshot_steps")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(MEASURE_RUNS)), st.sampled_from(RUN_COUNTS), non_integers)
def test_measure_runs_reject_non_integral_counts(run, name, value):
    # steps=True and log_stride=True used to run as 1, and steps=10.0 to die
    # inside numpy with a bare TypeError
    counts = {"steps": 3, name: (0, value) if name == "snapshot_steps" else value}
    with pytest.raises(ValueError, match=name):
        MEASURE_RUNS[run](**counts)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, -math.inf, math.nan])
def test_gf_rejects_non_positive_or_non_finite_dt(dt):
    # an infinite dt warned that it exceeds the descent threshold before it
    # failed as a step size; a NaN dt failed as a step size
    with pytest.raises(ValueError, match=r"^dt must be positive and finite, got "):
        gf_euler_run(ARCH, THETA, GRID, TargetSpec.constant(1.0), dt, 3)


@pytest.mark.parametrize("name", sorted(XI_CALLS))
@pytest.mark.parametrize("xi", [math.nan, math.inf, [1.0, 1.0]], ids=["nan", "inf", "wide"])
def test_xi_taking_functions_reject_a_bad_xi_by_name(name, xi):
    """empirical_risk, minibatch_gradient and population_risk_mc check xi as
    every other constant target is checked (they returned nan or inf), and the
    Monte Carlo estimate does so before it draws."""
    sampler = UniformSampler(0.0, 1.0, 1, 7)
    state = sampler._rng.bit_generator.state
    calls = {
        "empirical_risk": lambda: empirical_risk(ARCH, THETA, GRID.points, xi),
        "minibatch_gradient": lambda: minibatch_gradient(ARCH, THETA, GRID.points, xi),
        "population_risk_mc": lambda: population_risk_mc(ARCH, THETA, sampler, xi, 10),
    }
    with pytest.raises(ValueError, match="xi"):
        calls[name]()
    assert sampler._rng.bit_generator.state == state


@pytest.mark.parametrize("name", ["gd_run", "gf_euler_run", "risk_exact", "generalized_gradient"])
def test_a_target_function_returning_nan_is_rejected_by_name(name):
    """A target function's values are checked at every point (risk_exact
    returned nan, and gd_run blamed the initial parameters)."""
    target = TargetSpec.from_function(lambda p: np.array([math.nan if p[0] > 0.5 else 1.0]), f0=[1.0])
    with pytest.raises(ValueError, match="target"):
        TARGET_CALLS[name](GRID, target)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(MEASURE_RUNS)),
    st.integers(0, 12),
    st.integers(1, 5),
    st.lists(st.integers(-2, 15), max_size=4),
    st.sampled_from([float, np.float64, np.int64]),
)
def test_measure_runs_take_integral_values_as_ints(run, steps, stride, snaps, kind):
    as_ints = MEASURE_RUNS[run](steps=steps, log_stride=stride, snapshot_steps=tuple(snaps))
    got = MEASURE_RUNS[run](steps=kind(steps), log_stride=kind(stride), snapshot_steps=tuple(map(kind, snaps)))
    for field in ("steps", "v", "risk", "grad_norm", "param_norm", "gamma"):
        np.testing.assert_array_equal(getattr(got, field), getattr(as_ints, field))
    assert got.steps.dtype == np.int64 and list(got.snapshots) == sorted({n for n in snaps if 0 <= n <= steps})
    assert all(type(n) is int for n in got.snapshots)
    for n, snap in as_ints.snapshots.items():
        np.testing.assert_array_equal(got.snapshots[n], snap)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
def test_non_finite_targets_are_rejected_at_every_entry_point(xi):
    """A non-finite constant target is a ValueError naming the target in the
    ensemble, `sgd_run`, `TargetSpec` (however it is made), `LyapunovContext`,
    `nonconvexity_witness` and `sgd_threshold`, where the ensemble raised
    DivergenceError, `sgd_run` blamed the initial parameters, the witness
    returned NaN parameters and the threshold a finite step or NaN."""
    arch = Architecture((1, 7, len(np.atleast_1d(xi))))
    theta0s = gaussian_init(arch, seed=0, scale=1.0, trials=3)
    cfg = SgdConfig(batch_size=5, steps=3, eval_samples=10)
    calls = [
        lambda: sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, xi, cfg),
        lambda: sgd_run(arch, theta0s[0], 1e-3, UniformSampler(0.0, 1.0, 1), xi, cfg),
        lambda: TargetSpec.constant(xi),
        lambda: TargetSpec(f0=[0.0], xi=xi),
        lambda: LyapunovContext(arch, xi),
        lambda: nonconvexity_witness(arch, xi, DiscreteMeasure.uniform_grid(0.0, 1.0, 3)),
        lambda: sgd_threshold(arch, 1.0, xi, 0.0, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="target"):
            call()


def test_finite_targets_whose_square_overflows_are_targets_without_warning():
    """A finite target above ~1e154 has a squared norm that overflows to inf:
    it is a target all the same, and no entry point warns (numpy's matmul
    raised `overflow encountered in matmul`, an error under -W error).  At
    width 1 the square is the Python float product, bit-identical to the
    one-element dot it replaces."""
    narrow, wide = Architecture((1, 7, 1)), Architecture((1, 7, 2))
    grid, xs = DiscreteMeasure.uniform_grid(0.0, 1.0, 3), (-1e200, -1.3e154, 1e-170, 5e-324, -0.0, 0.1, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LyapunovContext(narrow, 1e200).f0.tolist() == [1e200]
        assert LyapunovContext(wide, [1e200, 1.0]).f0.tolist() == [1e200, 1.0]
        assert sgd_threshold(narrow, 1.0, [1e200], 0.0, 1.0) == 0.0
        assert sgd_threshold(wide, 1.0, [1.0, -1e200], 0.0, 1.0) == 0.0
        nonconvexity_witness(narrow, [-1e200], grid)
        assert _constant_target(wide, [1e200, 1e200], "xi")[1] == math.inf
        squares = [_constant_target(narrow, x, "xi")[1] for x in xs]
    with np.errstate(over="ignore"):
        dots = [float(np.array([x]) @ np.array([x])) for x in xs]
    assert [float.hex(q) for q in squares] == [float.hex(q) for q in dots] and squares[0] == math.inf


# the counts of the grids, the sampler and the Monte Carlo estimate, each with the name its error gives
GRID_COUNTS = [
    ("last", decade_steps),
    ("steps", geometric_checkpoints),
    ("count", lambda n: geometric_checkpoints(100, n)),
    ("count", lambda n: DiscreteMeasure.uniform_grid(0.0, 1.0, n).points),
    ("sample size", lambda n: UniformSampler(0.0, 1.0, 1, 3).sample(n)),
    ("n_samples", lambda n: population_risk_mc(ARCH, THETA, UniformSampler(0.0, 1.0, 1, 3), 1.0, n)),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(GRID_COUNTS))), non_integers)
def test_grid_and_sample_counts_reject_non_integers(index, value):
    # decade_steps(2.5) used to return (1, 2, 2.5), and the others to raise numpy's TypeError
    name, call = GRID_COUNTS[index]
    with pytest.raises(ValueError, match=name):
        call(value)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(range(len(GRID_COUNTS))), st.integers(2, 60), st.sampled_from([float, np.float64, np.int64]))
def test_grid_and_sample_counts_take_integral_values_as_ints(index, n, kind):
    # 3.0 raised numpy's TypeError or came back in the grid as a float, though every SgdConfig count takes it
    call = GRID_COUNTS[index][1]
    got, want = call(kind(n)), call(n)
    np.testing.assert_array_equal(got, want)
    if index < 3:  # the grids of steps
        assert all(type(step) is int for step in got)
