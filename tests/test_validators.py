"""Property tests for the validators at the package boundary: every valid
input is accepted, and every non-finite, non-positive or empty-box input
raises ValueError, never another exception or a silent result; so does a
count or step index that is not an integer.  A seed that
is not a nonnegative integer or a tuple of them raises TypeError, or
ValueError for a negative word, as numpy's `SeedSequence` does.  Points
or target values of the wrong width raise a ValueError naming the width
in every public function that evaluates the network on them."""

import math

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
    empirical_risk,
    forward_exact,
    forward_smooth,
    gaussian_init,
    generalized_gradient,
    gradient_pathsum_oracle,
    last_layer_midpoint_check,
    midpoint_gap,
    minibatch_gradient,
    pairing,
    population_risk_mc,
    risk_exact,
    risk_smooth,
    smooth_gradient,
)
from relu_lyapunov.optimize import _eval_grid, _rate_fn

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
        with pytest.raises(ValueError, match="expected non-negative integer"):
            SgdConfig(seed=seed)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            gaussian_init(ARCH, seed, 1.0, 20)
        with pytest.raises(ValueError, match="expected non-negative integer"):
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
