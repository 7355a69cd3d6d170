"""The package's analytic claims: ``CLAIMS`` maps ``"suite.check"`` to a seeded check ``(seed) -> (ok, detail)``.

A check draws instances by regimes ``(count, shapes, options)`` of `_instance` (shape ``None``: a random net).
``relu-lyapunov verify`` runs the checks at the seed it is given, and the acceptance tests at seed 0."""

from __future__ import annotations

import numpy as np

from .activation import DEFAULT_CLAMP, ClampConfig, relu, smooth_relu
from .activation import smooth_relu_derivative, smooth_relu_derivative_bound
from .arch import Architecture, layer_views
from .convexity import last_layer_midpoint_check, midpoint_gap, nonconvexity_witness
from .gradient import generalized_gradient, gradient_growth_bound, gradient_pathsum_oracle, smooth_gradient
from .lyapunov import LyapunovContext, lyapunov_gradient, lyapunov_value, pairing, sandwich_bounds
from .network import _forward, _smooth_unit, layer_sharpness
from .optimize import SgdConfig, descent_certificate, gaussian_init, gd_run, gd_threshold, sgd_run, sgd_threshold
from .risk import DiscreteMeasure, TargetSpec, UniformSampler, risk_exact, risk_smooth

CLAIMS = {}


def _claim(name: str):
    return lambda check: CLAIMS.setdefault(name, check)


def _instance(rng, widths=None, scale=1.0, points=5, box=(-1.0, 1.0), weight=1.0, functional=False, depth=3):
    """(arch, theta ~ N(0, scale^2), 1..points points on ``box`` weighted U(0, weight), a N(0, 1) constant target,
    or with ``functional`` that constant plus tanh of the point); widths 1..3 over 1..depth layers unless given."""
    if widths is None:
        widths = tuple(int(w) for w in rng.integers(1, 4, int(rng.integers(1, depth + 1)) + 1))
    arch = Architecture(widths)
    theta = rng.normal(0.0, scale, arch.param_count)
    m = int(rng.integers(1, points + 1))
    measure = DiscreteMeasure(rng.uniform(*box, (m, widths[0])), rng.uniform(0.0, weight, m), *box)
    f0 = rng.normal(size=widths[-1])
    if not functional:
        return arch, theta, measure, TargetSpec.constant(f0)
    cycle = np.arange(len(f0)) % widths[0]  # the point's coordinates repeated to the output width
    return arch, theta, measure, TargetSpec.from_function(lambda p: f0 + np.tanh(p[cycle]), f0=f0)


def _instances(rng, regimes):
    return (_instance(rng, shapes[i % len(shapes)], **opts) for count, shapes, opts in regimes for i in range(count))


def _fd(f, theta, i, h, fourth_order=False):
    """df/dtheta_i by central differences, or by the fourth-order stencil, whose rounding error is smaller."""
    e = np.eye(len(theta))[i] * h
    d = f(theta + e) - f(theta - e)
    return (8.0 * d - (f(theta + 2.0 * e) - f(theta - 2.0 * e))) / (12.0 * h) if fourth_order else d / (2.0 * h)


CLAMPS = (DEFAULT_CLAMP, ClampConfig(0.25, 0.75), ClampConfig(1.0, 3.0), ClampConfig(0.1, 0.2))
SHARPNESSES = tuple(2.0**e for e in range(0, 21, 2)) + (2.0, 3.0, 17.3, 100.0, 512.0)


@_claim("activation.uniform_approximation")
def _uniform_approximation(seed):
    """|smooth_relu - relu| <= hi/sharpness + 1e-15 at 4,000 draws in [-10, 10] and on a grid through the window."""
    rng, worst = np.random.default_rng(seed), -np.inf
    for cfg in CLAMPS:
        for sharp in SHARPNESSES:
            xs = np.concatenate([rng.uniform(-10, 10, 4000), np.linspace(-1, 3, 40001) * max(1, cfg.hi) / min(sharp, 8)])
            worst = max(worst, float((np.abs(smooth_relu(cfg, sharp, xs) - relu(xs)) - cfg.hi / sharp).max()))
    return worst <= 1e-15, f"max excess {worst:.3g}"


@_claim("activation.derivative_bound")
def _derivative_bound(seed):
    """The bound is 1 + 1.5 hi/(hi - lo), and 0 <= derivative <= bound + 1e-12 on two grids through the window."""
    closed_form, excess, low = True, -np.inf, np.inf
    for cfg in CLAMPS:
        bound = smooth_relu_derivative_bound(cfg)
        closed_form &= bound == 1.0 + 1.5 * cfg.hi / (cfg.hi - cfg.lo)
        for sharp in SHARPNESSES:
            grid = np.linspace(-0.5, 2.0, 40001) * cfg.hi / min(sharp, 4.0)
            d = smooth_relu_derivative(cfg, sharp, np.concatenate([np.linspace(-1, 2 * cfg.hi / sharp, 20001), grid]))
            excess, low = max(excess, float(d.max()) - bound), min(low, float(d.min()))
    detail = f"max derivative - bound {excess:.3g}, min derivative {low:.3g}, closed form {closed_form}"
    return closed_form and excess <= 1e-12 and low >= 0.0, detail


@_claim("activation.derivative_fd")
def _derivative_fd(seed):
    """Central differences (h = 1e-6 at sharpness 64, 1e-7 at 2^U(0, 8)) match the derivative to 1e-6 max(|d|, 1e-3)."""
    rng, cfg, worst = np.random.default_rng(seed), DEFAULT_CLAMP, 0.0
    pts = rng.uniform(-2.0, 2.0, 4000)
    pts = pts[np.all([np.abs(pts - kink) > 5e-6 for kink in (0.0, cfg.lo / 64.0, cfg.hi / 64.0)], axis=0)]
    sharps = 2.0 ** rng.uniform(0.0, 8.0, 200)
    xs = rng.uniform(-1.0, 2.0, 200) / np.minimum(sharps, 2.0)
    draws = [(64.0, pts[:1000], 1e-6)] + [(r, np.array([x]), 1e-7) for r, x in zip(sharps, xs) if abs(x) >= 1e-6]
    for sharp, x, h in draws:
        fd = (smooth_relu(cfg, sharp, x + h) - smooth_relu(cfg, sharp, x - h)) / (2.0 * h)
        d = smooth_relu_derivative(cfg, sharp, x)
        worst = max(worst, float((np.abs(fd - d) / np.maximum(np.abs(d), 1e-3)).max()))
    return worst <= 1e-6, f"max rel err {worst:.3g}"


@_claim("activation.identity_above_window")
def _identity_above_window(seed):
    """Above hi/sharpness the unit is exactly x, with derivative exactly 1."""
    rng, ok = np.random.default_rng(seed), True
    for cfg in CLAMPS:
        draws = [(sharp, np.array([0.75])) for sharp in (2.0, 8.0, 1024.0) if cfg.hi / sharp < 0.75]
        draws += [(sharp, rng.uniform(cfg.hi / sharp, 10.0, 20)) for sharp in 2.0 ** rng.uniform(0.0, 12.0, 50)]
        for sharp, xs in draws:
            ok &= bool(np.all(smooth_relu(cfg, sharp, xs) == xs))
            ok &= bool(np.all(smooth_relu_derivative(cfg, sharp, xs) == 1.0))
    return ok, "ramp exact once hi/sharpness < x"


@_claim("gradient.pathsum_oracle_agreement")
def _pathsum_oracle_agreement(seed):
    """||G - oracle|| <= 1e-12 ||oracle||."""
    shapes = ((1, 1), (1, 2, 1), (2, 3, 2), (3, 3, 3), (1, 2, 2, 1), (2, 1, 3))
    regimes = ((220, (None,), dict(scale=0.8)), (120, shapes, dict(scale=0.8)), (40, (None,), dict(scale=1.0)),
               (120, (None,), dict(scale=0.8, functional=True)))
    worst = 0.0
    for arch, theta, measure, target in _instances(np.random.default_rng(seed), regimes):
        fast = generalized_gradient(arch, theta, measure, target)
        slow = gradient_pathsum_oracle(arch, theta, measure, target)
        worst = max(worst, float(np.linalg.norm(fast - slow)) / max(float(np.linalg.norm(slow)), 1e-30))
    return worst <= 1e-12, f"max rel dev {worst:.3g}"


def _off_the_kinks(rng, widths, sharp, h):
    """An instance on [0, 1] whose hidden preactivations stay max(0.005, 200 h r_k) window widths off its ends."""
    while True:
        arch, theta, measure, target = _instance(rng, widths, 0.6, box=(0.0, 1.0))
        pres, _ = _forward(layer_views(arch, theta), measure.points.T, _smooth_unit(sharp, DEFAULT_CLAMP))
        rates = [layer_sharpness(sharp, k) for k in range(1, len(pres))]
        ts = [(r_k * pre - DEFAULT_CLAMP.lo) / (DEFAULT_CLAMP.hi - DEFAULT_CLAMP.lo) for r_k, pre in zip(rates, pres)]
        if all(np.minimum(abs(t), abs(t - 1.0)).min() >= max(0.005, 200.0 * h * r_k) for r_k, t in zip(rates, ts)):
            return arch, theta, measure, target


@_claim("gradient.smooth_gradient_fd")
def _smooth_gradient_fd(seed):
    """The smoothed gradient matches differences of the smoothed risk: fourth-order ones (h = 3e-5) to max(1e-6 |g|,
    1e-9) at 100 draws off the kinks, and central ones (h = 1e-6) to 1e-5 max(|g|, 1e-3) at 40 draws on 1,2,1."""
    rng, h, worst = np.random.default_rng(seed), 1e-6, 0.0
    for i in range(140):
        strict = i < 100
        sharp = float(2.0 ** (rng.uniform(2.0, 7.0) if strict else rng.uniform(1.0, 11.0)))
        arch, theta, measure, target = (
            _off_the_kinks(rng, ((1, 2, 1), (1, 3, 1), (2, 2, 2))[i % 3], sharp, h) if strict
            else _instance(rng, (1, 2, 1), (0.6, 0.8)[i % 2], box=((0.0, 1.0), (-1.0, 1.0))[i % 2]))
        g = smooth_gradient(arch, theta, measure, target, sharp)
        for j in range(arch.param_count):
            fd = _fd(lambda t: risk_smooth(arch, t, measure, target, sharp), theta, j, 30 * h if strict else h, strict)
            tol = max(1e-6 * abs(g[j]), 1e-9) if strict else 1e-5 * max(abs(g[j]), 1e-3)
            worst = max(worst, abs(fd - g[j]) / tol)
    return worst <= 1.0, f"max err {worst:.3g} x tolerance"


@_claim("gradient.growth_bound")
def _growth_bound(seed):
    """||G||^2 <= growth bound * (1 + 1e-12)."""
    regimes = ((2000, (None,), dict(scale=2.0, points=3)),
               (600, ((1, 2, 1), (2, 3, 2), (1, 3, 7, 1)), dict(box=(-2.0, 2.0), weight=2.0)))
    bad = 0
    for arch, theta, measure, target in _instances(np.random.default_rng(seed), regimes):
        g = generalized_gradient(arch, theta, measure, target)
        risk = risk_exact(arch, theta, measure, target)
        bad += float(g @ g) > gradient_growth_bound(arch, theta, measure.mass, risk, measure.input_scale) * (1 + 1e-12)
    return bad == 0, f"{bad} violations in 2600 draws"


@_claim("lyapunov.pairing_identity")
def _pairing_identity(seed):
    """<grad V, G> = 4 L int <N - f, N - f(0)> to 1e-10 (1 + |lhs|), and on ``dots`` = grad V . G to 1e-12 (1 + |lhs|);
    with a constant target the right side is 4 L risk to 1e-11 (1 + |rhs|), the left to 1e-10 (1 + |lhs|)."""
    shapes = ((1, 2, 1), (2, 3, 2), (1, 3, 7, 1), (1, 1), (3, 2, 2))
    dots = (300, shapes[:3], dict(scale=0.8, functional=True))
    regimes = ((5000, shapes, dict(scale=0.8, points=4)), (5000, shapes, dict(scale=0.8, points=4, functional=True)),
               (2000, (None,), dict(scale=1.5, points=3)), dots, (100, ((1, 3, 1),), dict(points=7, box=(0, 1), weight=2)))
    rng, worst = np.random.default_rng(seed), 0.0
    for regime in regimes:
        for arch, theta, measure, target in _instances(rng, (regime,)):
            ctx = LyapunovContext(arch, target.f0)
            lhs, rhs = pairing(ctx, theta, measure, target)
            devs = [abs(lhs - rhs) / (1.0 + abs(lhs)) / 1e-10]
            if target.is_constant:
                four_l_risk = 4.0 * arch.depth * risk_exact(arch, theta, measure, target)
                devs.append(abs(rhs - four_l_risk) / (1.0 + abs(rhs)) / 1e-11)
                devs.append(abs(lhs - four_l_risk) / (1.0 + abs(lhs)) / 1e-10)
            if regime is dots:
                dot = float(lyapunov_gradient(ctx, theta) @ generalized_gradient(arch, theta, measure, target))
                devs.append(abs(lhs - dot) / (1.0 + abs(lhs)) / 1e-12)
            worst = max(worst, *devs)
    return worst <= 1.0, f"max dev {worst:.3g} x tolerance"


@_claim("lyapunov.gradient_fd")
def _lyapunov_gradient_fd(seed):
    """grad V matches central differences of V (h = 1e-6) to 1e-8 max(1, |g|) at 50 draws on 2,3,2."""
    worst = 0.0
    for arch, theta, _, target in _instances(np.random.default_rng(seed), ((50, ((2, 3, 2),), {}),)):
        ctx = LyapunovContext(arch, target.f0)
        g = lyapunov_gradient(ctx, theta)
        for i in range(arch.param_count):
            fd = _fd(lambda t: lyapunov_value(ctx, t), theta, i, 1e-6)
            worst = max(worst, abs(fd - g[i]) / max(1.0, abs(g[i])))
    return worst <= 1e-8, f"max rel err {worst:.3g}"


@_claim("lyapunov.sandwich")
def _sandwich(seed):
    """0.5 ||theta||^2 - 2 L^2 ||f0||^2 <= V <= 2 L ||theta||^2 + L ||f0||^2 to 1e-10, bounds to 1e-12 (1 + |bound|)."""
    regimes = ((2000, (None,), dict(scale=2.0, depth=4)), (1500, ((1, 1), (1, 2, 1), (1, 3, 7, 1)), dict(scale=2.0)))
    bad = 0
    for arch, theta, _, target in _instances(np.random.default_rng(seed), regimes):
        ctx, depth = LyapunovContext(arch, target.f0), arch.depth
        low, high = sandwich_bounds(ctx, theta)
        norm_sq, f0_sq = float(theta @ theta), float(target.f0 @ target.f0)
        forms = abs(low - (0.5 * norm_sq - 2.0 * depth**2 * f0_sq)) <= 1e-12 * (1.0 + abs(low))
        forms &= abs(high - (2.0 * depth * norm_sq + depth * f0_sq)) <= 1e-12 * (1.0 + abs(high))
        bad += not (forms and low - 1e-10 <= lyapunov_value(ctx, theta) <= high + 1e-10)
    return bad == 0, f"{bad} violations in 3500 draws"


@_claim("convexity.witness_gap")
def _witness_gap(seed):
    """The witness pair's midpoint gap is mass/16 to 1e-14 max(1, mass), and 1/16 to 1e-12 on the 101-point grid."""
    rng, worst = np.random.default_rng(seed), 0.0
    for widths in ((1, 2, 1), (1, 7, 1), (2, 3, 4, 2), (1, 3, 7, 1), (2, 5, 2)):
        arch, xi = Architecture(widths), rng.normal(0.0, 1.0, widths[-1])
        measures = [DiscreteMeasure(rng.uniform(0, 1, (5, widths[0])), rng.uniform(0.1, 1, 5), 0.0, 1.0)]
        for mass in (1.0, 0.25, 3.0):
            w = rng.uniform(0.1, 1.0, int(rng.integers(1, 7)))
            measures.append(DiscreteMeasure(rng.uniform(0.0, 1.0, (len(w), widths[0])), w * mass / w.sum(), 0.0, 1.0))
        for measure in measures:
            gap = midpoint_gap(arch, *nonconvexity_witness(arch, xi, measure), measure, TargetSpec.constant(xi))
            worst = max(worst, abs(gap - measure.mass / 16.0) / (1e-14 * max(1.0, measure.mass)))
    grid, arch = DiscreteMeasure.uniform_grid(0.0, 1.0, 101), Architecture((1, 7, 1))
    gap = midpoint_gap(arch, *nonconvexity_witness(arch, [1.0], grid), grid, TargetSpec.constant(1.0))
    worst = max(worst, abs(gap - grid.mass / 16.0) / 1e-14, abs(gap - 0.0625) / 1e-12)
    return worst <= 1.0, f"max |gap - mass/16| {worst:.3g} x tolerance"


@_claim("convexity.last_layer_convexity")
def _last_layer_convexity(seed):
    """With the hidden layers frozen, the midpoint inequality in the output layer holds to 1e-12."""
    shapes = ((1, 7, 1), (1, 3, 7, 1), (2, 4, 3), (1, 2, 2, 1))
    regimes = ((1000, shapes, dict(scale=0.8, points=6, box=(0.0, 1.0))),
               (300, shapes[:3], dict(points=6, box=(0.0, 1.0))), (200, (None,), dict(points=4)))
    rng, worst = np.random.default_rng(seed), -np.inf
    for count, shapes, options in regimes:
        for i in range(count):
            arch, theta, measure, target = _instance(rng, shapes[i % len(shapes)], **options)
            head = arch.offsets[arch.depth - 1]
            # theta's output block is one end point, a second draw at its scale the other
            w = rng.normal(0.0, options.get("scale", 1.0), arch.param_count - head)
            lhs, rhs = last_layer_midpoint_check(arch, theta[:head], theta[head:], w, measure, target)
            worst = max(worst, lhs - rhs)
    return worst <= 1e-12, f"max lhs-rhs = {worst:.3g}"


@_claim("convexity.depth1_convex")
def _depth1_convex(seed):
    """Depth-1 risks are convex: the midpoint gap of two N(0, 1) draws is <= 1e-12."""
    rng, bad = np.random.default_rng(seed), 0
    for arch, t1, measure, target in _instances(rng, ((200, (None,), dict(points=4, depth=1)),
                                                      (200, ((2, 3),), dict(points=4, box=(0.0, 1.0))))):
        bad += midpoint_gap(arch, t1, rng.normal(0.0, 1.0, arch.param_count), measure, target) > 1e-12
    return bad == 0, f"{bad} violations in 400 pairs"


@_claim("thresholds.gd_threshold_example")
def _gd_threshold_example(seed):
    """On 1,1 at theta = 0 and target 0: 1/4 at unit mass, infinite at mass 0."""
    value, massless = (gd_threshold(Architecture((1, 1)), np.zeros(2), np.zeros(1), mass) for mass in (1.0, 0.0))
    return value == 0.25 and massless == np.inf, f"got {value!r}, expected 0.25 (and inf at mass 0)"


@_claim("thresholds.sgd_threshold_example")
def _sgd_threshold_example(seed):
    """On 1,7,1 at theta = 0, target 1 and box [0, 1]: 176^-4 to 1e-25."""
    value = sgd_threshold(Architecture((1, 7, 1)), 0.0, 1.0, 0.0, 1.0)
    return abs(value - 176.0**-4) <= 1e-25, f"got {value:.6g}, expected 176^-4"


@_claim("thresholds.gd_descent")
def _gd_descent(seed):
    """400 gd steps at 0.99x the threshold on 1,3,1 pass the descent certificate."""
    arch, measure, target = Architecture((1, 3, 1)), DiscreteMeasure.uniform_grid(0, 1, 51), TargetSpec.constant(1.0)
    theta0 = np.random.default_rng(seed).normal(0.0, 0.5, arch.param_count)
    gamma = 0.99 * gd_threshold(arch, theta0, target.f0, measure.mass, measure.input_scale)
    report = descent_certificate(gd_run(arch, theta0, measure, target, gamma, 400), LyapunovContext(arch, target.f0))
    return report.passed, report.summary()


@_claim("thresholds.sgd_descent")
def _sgd_descent(seed):
    """SGD at the threshold on 1,7,1 passes the descent certificate, with V non-increasing up to 1e-13 (1 + |V_n|)."""
    arch, passed, summaries = Architecture((1, 7, 1)), True, []
    for init, stream, batch, steps in ((7, 7, 20, 500), (8, 31, 100, 400)):
        theta0 = gaussian_init(arch, init + seed, 7**-0.5, 1)[0]
        gamma = sgd_threshold(arch, float(np.linalg.norm(theta0)), 1.0, 0.0, 1.0)
        cfg = SgdConfig(batch_size=batch, steps=steps, seed=stream + seed, eval_samples=0, eval_steps=())
        trajectory = sgd_run(arch, theta0, gamma, UniformSampler(0.0, 1.0, 1, stream + seed), [1.0], cfg)
        report, v = descent_certificate(trajectory, LyapunovContext(arch, [1.0])), trajectory.v
        passed &= report.passed and bool(np.all(np.diff(v) <= 1e-13 * (1.0 + np.abs(v[:-1]))))
        summaries.append(report.summary())
    return passed, "; ".join(summaries)
