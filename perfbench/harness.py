"""Timing machinery of the benchmark: host gauge, samples, spans, host record.

Every timed call goes through `Gauge.time`.  The gauge runs two fixed
pure-numpy kernels (the probes) at most every `PROBE_EVERY` seconds, and a
sample's host-normalized value is

    raw * PROBE_REF_US[kind] / mean(probe just before the sample, probe just after it)

where ``kind`` names the probe whose work resembles the sample's: "stacked"
for trial-stacked array passes, "loop" for per-step Python loops over small
arrays.  The build host is shared and switches between speed regimes on a
scale of seconds: raw step times of the same code moved by up to 40 % between
and within processes, while their ratio to the matching probe moved by a few
percent.  End-to-end metrics are therefore reported in reference-host units
(µs, ms or s of a host on which the probes take PROBE_REF_US), with the raw
medians beside them in the run record.  The probes are benchmark code, so no
change to the program alters what they compute.  A change that leaves work
running after its calls return (threads, spinning BLAS workers) can still
slow them and so flatter the normalized numbers: judge such a change by the
raw medians too.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PROBE_REF_US = {"stacked": 1600.0, "loop": 1300.0}
PROBE_EVERY = 0.04


class Probe:
    """Fixed host-speed gauges shaped like the program's two kinds of work.

    Each gauge first runs one untimed pass and writes into buffers it owns,
    so its time reflects the host's speed, not the cache or allocator state
    the program left behind.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20211214)
        self._x = rng.random((100, 100, 1))
        self._w = rng.standard_normal((100, 1, 7))
        self._b = rng.standard_normal((100, 1, 7))
        self._z = np.empty((100, 100, 7))
        self._h = np.empty((100, 100, 7))
        self._mask = np.empty((100, 100, 7), dtype=bool)
        self._g = np.empty((100, 7, 1))
        self._theta = rng.standard_normal(22)
        self._w2 = rng.standard_normal((1, 7))

    def _stacked_pass(self) -> None:
        np.matmul(self._x, self._w, out=self._z)
        np.add(self._z, self._b, out=self._z)
        np.maximum(self._z, 0.0, out=self._h)
        np.greater(self._z, 0.0, out=self._mask)
        np.multiply(self._h, self._mask, out=self._h)
        np.matmul(self._h.transpose(0, 2, 1), self._x, out=self._g)

    def _loop_pass(self, i: int) -> None:
        theta, w2 = self._theta, self._w2
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, 1, i))))
        x = rng.random((100, 1))
        z1 = x @ theta[0:7].reshape(7, 1).T + theta[7:14]
        h = np.maximum(z1, 0.0)
        r = h @ w2.T + theta[21:22] - 1.0
        float(np.sum(np.full(100, 0.01) * np.sum(r * r, axis=1)))
        d = 0.02 * r
        d1 = (d @ w2) * (z1 > 0.0)
        grad = np.concatenate([(d1.T @ x).ravel(), d1.sum(axis=0), (d.T @ h).ravel(), d.sum(axis=0)])
        float(np.sqrt(grad @ grad))
        float(np.dot(theta * theta, theta))

    def stacked(self) -> float:
        """Trial-stacked fan-in-1 affine, gate and backward product on (100, 100, 7)."""
        self._stacked_pass()
        t0 = time.perf_counter()
        for _ in range(3):
            self._stacked_pass()
        return (time.perf_counter() - t0) * 1e6

    def loop(self) -> float:
        """Keyed stream and one small 1-7-1 forward and backward pass, twelve times."""
        self._loop_pass(0)
        t0 = time.perf_counter()
        for i in range(12):
            self._loop_pass(i)
        return (time.perf_counter() - t0) * 1e6

    def run(self) -> dict[str, float]:
        return {"stacked": self.stacked(), "loop": self.loop()}


@dataclass
class Sample:
    raw: float  # seconds per unit of work
    kind: str  # which probe normalizes it
    at: float  # midpoint of the timed call, seconds on the gauge's clock
    before: dict[str, float]  # probe µs just before the sample
    after: dict[str, float] = field(default_factory=dict)  # probe µs just after it

    @property
    def normalized(self) -> float:
        return self.raw * PROBE_REF_US[self.kind] / (0.5 * (self.before[self.kind] + self.after[self.kind]))


@dataclass
class Gauge:
    """Times calls, pairs each sample with the probes around it, keeps spans.

    The probes just before and after a sample track the host's regime
    changes and its short transients better than a longer window: on
    recorded single_trial runs the run-to-run spread of the step median was
    1.7 % against 2.5-3.5 % with windows of 0.1-2 s, and of the tail 6 %
    against 12-30 %.  Spans are (name, start, end, parent, segment id) with
    times in seconds from the gauge's creation; they are kept only when
    ``tracing`` is on and are written out by the caller when the run ends.
    """

    tracing: bool = False
    probe: Probe = field(default_factory=Probe)
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    probes: list[dict[str, float]] = field(default_factory=list)
    probe_times: list[float] = field(default_factory=list)
    spans: list[tuple] = field(default_factory=list)
    _pending: list[Sample] = field(default_factory=list)
    _last_probe: dict[str, float] = field(default_factory=dict)
    _last_probe_at: float = 0.0
    _origin: float = 0.0

    def __post_init__(self) -> None:
        self._origin = time.perf_counter()
        self.probe.run()  # warm the probes' own code paths
        self._take_probe()

    def _clock(self) -> float:
        return time.perf_counter() - self._origin

    def _take_probe(self) -> None:
        start = self._clock()
        value = self.probe.run()
        self._last_probe_at = self._clock()
        self.probes.append(value)
        self.probe_times.append(0.5 * (start + self._last_probe_at))
        for sample in self._pending:
            sample.after = value
        self._pending.clear()
        self._last_probe = value

    def time(
        self,
        name: str,
        fn: Callable[[], object],
        per: int = 1,
        kind: str = "loop",
        parent: str | None = None,
        traced: bool = True,
    ):
        """Run ``fn`` once and record its time divided by ``per``."""
        start = self._clock()
        out = fn()
        end = self._clock()
        bucket = self.samples.setdefault(name, [])
        sample = Sample((end - start) / per, kind, 0.5 * (start + end), self._last_probe)
        bucket.append(sample)
        self._pending.append(sample)
        if self.tracing and traced:
            self.spans.append((name, start, end, parent, len(bucket) - 1))
        if end - self._last_probe_at >= PROBE_EVERY:
            self._take_probe()
        return out

    def finish(self) -> None:
        """Close the open samples with a final probe."""
        self._take_probe()

    def normalized(self, name: str) -> list[float]:
        return [s.normalized for s in self.samples.get(name, [])]

    def raw(self, name: str) -> list[float]:
        return [s.raw for s in self.samples.get(name, [])]

    def probe_median(self, kind: str) -> float:
        return median([p[kind] for p in self.probes])


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def tail(values: list[float], beyond: int = 10) -> tuple[float, int]:
    """Highest integer percentile with at least ``beyond`` samples above it.

    Returns (value, percentile); the value is the order statistic at
    floor(p * (n - 1) / 100).
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(values)
    for p in range(99, -1, -1):
        idx = (p * (n - 1)) // 100
        if n - 1 - idx >= beyond:
            return ordered[idx], p
    raise AssertionError("unreachable: p = 0 leaves n - 1 samples beyond")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    """What the numbers were measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "env": {k: os.environ.get(k) for k in ("RELU_LYAPUNOV_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "probe_ref_us": PROBE_REF_US,
    }
