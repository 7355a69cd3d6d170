import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relu_lyapunov import (
    Architecture,
    DiscreteMeasure,
    TargetSpec,
    UniformSampler,
    empirical_risk,
    forward_exact,
    population_risk_mc,
    risk_exact,
    risk_smooth,
)
from relu_lyapunov.risk import _KeyedStreams


def test_uniform_grid_properties():
    m = DiscreteMeasure.uniform_grid(0.0, 1.0, 101)
    assert m.points.shape == (101, 1)
    assert m.points[0, 0] == 0.0 and m.points[-1, 0] == 1.0
    assert abs(m.mass - 1.0) < 1e-15
    assert m.dim == 1
    assert m.input_scale == 1.0


def test_input_scale_covers_endpoints_and_one():
    assert DiscreteMeasure.uniform_grid(-3.0, 0.5, 5).input_scale == 3.0
    assert DiscreteMeasure.uniform_grid(0.0, 0.25, 5).input_scale == 1.0
    assert DiscreteMeasure.uniform_grid(0.0, 7.0, 5).input_scale == 7.0


def test_measure_validation():
    with pytest.raises(ValueError, match="a < b"):
        DiscreteMeasure([[0.5]], [1.0], np.nan, 1.0)
    # an infinite bound would make input_scale inf and gd_threshold 0.0
    for a, b in [(0.0, np.inf), (-np.inf, 1.0)]:
        with pytest.raises(ValueError, match="finite a < b"):
            DiscreteMeasure([[0.5]], [1.0], a, b)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((3, 1)), np.ones(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((3, 1)), -np.ones(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros(3), np.ones(3), 0.0, 1.0)


@pytest.mark.parametrize(
    "points, weights",
    [
        ([[0.5], [np.nan]], [0.5, 0.5]),
        ([[0.5], [0.25]], [0.5, np.nan]),
        ([[0.5], [np.nan]], [0.5, np.nan]),
        ([[0.5], [0.25]], [0.5, np.inf]),
        ([[0.5], [-np.inf]], [0.5, 0.5]),
    ],
)
def test_measure_rejects_non_finite(points, weights):
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(points, weights, 0.0, 1.0)


def test_target_constant():
    t = TargetSpec.constant(2.0)
    assert t.is_constant
    np.testing.assert_array_equal(t.f0, [2.0])
    np.testing.assert_array_equal(t.values(np.zeros((4, 3))), np.full((4, 1), 2.0))


def test_target_from_function():
    t = TargetSpec.from_function(lambda p: p**2, f0=[0.0])
    assert not t.is_constant
    pts = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(t.values(pts), [[1.0], [4.0], [9.0]])
    np.testing.assert_array_equal(t.f0, [0.0])


def test_risk_exact_hand_value():
    # N(x) = x on {0, 1/2, 1} with weights 1/3 each, target 0:
    # risk = (0 + 1/4 + 1) / 3
    arch = Architecture((1, 1))
    theta = np.array([1.0, 0.0])
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 3)
    target = TargetSpec.constant(0.0)
    assert abs(risk_exact(arch, theta, measure, target) - (1.25 / 3.0)) < 1e-15


def test_risk_scales_with_mass():
    rng = np.random.default_rng(0)
    arch = Architecture((1, 2, 1))
    theta = rng.normal(size=arch.param_count)
    pts = rng.uniform(0.0, 1.0, (4, 1))
    w = rng.uniform(0.1, 1.0, 4)
    target = TargetSpec.constant(0.5)
    r1 = risk_exact(arch, theta, DiscreteMeasure(pts, w, 0.0, 1.0), target)
    r3 = risk_exact(arch, theta, DiscreteMeasure(pts, 3.0 * w, 0.0, 1.0), target)
    assert abs(r3 - 3.0 * r1) < 1e-12 * max(1.0, abs(r3))


def test_risk_smooth_approaches_exact():
    rng = np.random.default_rng(1)
    arch = Architecture((1, 3, 1))
    theta = rng.normal(size=arch.param_count)
    measure = DiscreteMeasure.uniform_grid(0.0, 1.0, 7)
    target = TargetSpec.constant(1.0)
    exact = risk_exact(arch, theta, measure, target)
    smooth = risk_smooth(arch, theta, measure, target, 2.0**20)
    assert abs(smooth - exact) < 1e-4
    assert risk_exact(arch, theta, measure, target) >= 0.0


def test_empirical_risk_is_batch_mean():
    rng = np.random.default_rng(2)
    arch = Architecture((1, 2, 1))
    theta = rng.normal(size=arch.param_count)
    batch = rng.uniform(0.0, 1.0, (8, 1))
    xi = 0.7
    manual = np.mean(
        [(forward_exact(arch, theta, x).output[0] - xi) ** 2 for x in batch]
    )
    assert abs(empirical_risk(arch, theta, batch, xi) - manual) < 1e-14
    with pytest.raises(ValueError):
        empirical_risk(arch, theta, np.zeros((0, 1)), xi)


def test_sampler_determinism_and_range():
    s = UniformSampler(0.0, 1.0, 2, seed=42)
    a = s.sample(100)
    b = UniformSampler(0.0, 1.0, 2, seed=42).sample(100)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (100, 2)
    assert a.min() >= 0.0 and a.max() < 1.0
    shifted = UniformSampler(-2.0, 3.0, 1, seed=0).sample(1000)
    assert shifted.min() >= -2.0 and shifted.max() < 3.0


@pytest.mark.parametrize(
    "a, b", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 0.0), (1.0, 1.0), (1.0, 0.0)]
)
def test_sampler_rejects_bad_box(a, b):
    # `b <= a` is false for NaN, and an infinite bound makes every draw inf or nan
    with pytest.raises(ValueError, match="finite a < b"):
        UniformSampler(a, b, 1, seed=0)


def test_population_risk_mc_matches_quadrature():
    # N(x) = x, target 0, x ~ U[0,1]: expected risk 1/3
    arch = Architecture((1, 1))
    theta = np.array([1.0, 0.0])
    sampler = UniformSampler(0.0, 1.0, 1, seed=3)
    mean, se = population_risk_mc(arch, theta, sampler, 0.0, 100_000)
    assert se < 0.005
    assert abs(mean - 1.0 / 3.0) <= 3.0 * se


def test_population_risk_mc_needs_two_samples():
    arch = Architecture((1, 1))
    sampler = UniformSampler(0.0, 1.0, 1, seed=0)
    with pytest.raises(ValueError):
        population_risk_mc(arch, np.zeros(2), sampler, 0.0, 1)


words = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))


@st.composite
def key_ranges(draw):
    """A first key and a stop: one-word, two-word and 2**32-straddling keys, and
    ranges just around the 16-key and 256-key sizes of a derived block."""
    first = draw(st.one_of(st.integers(0, 600), st.integers(2**32 - 300, 2**32 + 20), st.integers(2**32, 2**64)))
    return first, first + draw(st.one_of(st.integers(1, 20), st.integers(250, 262), st.integers(500, 520)))


@settings(max_examples=100, deadline=None)
@given(st.lists(words, min_size=1, max_size=5).map(tuple), key_ranges())
def test_keyed_streams_equal_numpy_seed_sequence_streams(prefix, keys):
    """Every stream, derived in blocks or one by one, is numpy's keyed stream:
    the same PCG64 state and the same first uniform and normal draws."""
    first, stop = keys
    streams = _KeyedStreams(prefix, stop)
    for k in range(first, stop):
        got, want = streams(k), np.random.Generator(np.random.PCG64(np.random.SeedSequence(prefix + (k,))))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random() == want.random() and got.normal() == want.normal()
