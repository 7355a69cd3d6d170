"""`sgd_ensemble` split over two processes: the upper trial rows on a helper process, the rest in the caller.

Every test here fails without the split (it checks that the helper served
the call) or when the property it names is broken.
"""

import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from relu_lyapunov import Architecture, DivergenceError, SgdConfig, gaussian_init, sgd_ensemble
from relu_lyapunov import optimize

SRC = str(Path(optimize.__file__).resolve().parents[1])

pytestmark = pytest.mark.skipif(
    os.name != "posix" or optimize._cpus() < 2, reason="a call splits only where two CPUs are allowed"
)


@pytest.fixture
def helper(monkeypatch):
    """A ready helper that every ensemble call of the test splits onto (a break-even work of 0)."""
    monkeypatch.setattr(optimize, "_SPLIT_WORK", 0)
    started = optimize._take_helper(cold=True)
    optimize._helper_lock.release()
    started.ready(wait=True)
    return started


def _in_process(call):
    """``call()`` with every ensemble call in this process."""
    split_work = optimize._SPLIT_WORK
    optimize._SPLIT_WORK = math.inf
    try:
        return call()
    finally:
        optimize._SPLIT_WORK = split_work


def _outputs(result) -> list:
    return [(a.dtype, a.shape, a.tobytes()) for a in (result.eval_steps, result.risk, result.theta_final)]


CASES = [
    (widths, trials, samples)
    for widths in ((1, 7, 1), (1, 3, 7, 1), (2, 5, 3, 2), (1, 1))
    for trials in (2, 3, 7, 20, 100)
    for samples in (10_001, 400)
]


@pytest.mark.parametrize("widths, trials, samples", CASES)
def test_split_outputs_equal_in_process_outputs(helper, widths, trials, samples):
    """Every `EnsembleResult` array, its dtype and shape, equals the in-process
    call's bit for bit: the helper's streams are advanced past the lower rows'
    draws and its checkpoints take the whole call's blocks, at batch 37 on the
    box [-0.5, 1.5], over one trial at a time in parts (10,001 samples) and
    blocks of several rows (400).  A call whose one eval block holds every
    trial (2 or 3 trials at 400 samples) has no block boundary to split at and
    runs in-process."""
    arch = Architecture(widths)
    theta0s = gaussian_init(arch, seed=trials, scale=widths[1] ** -0.5, trials=trials)
    xi = np.linspace(1.0, -0.5, widths[-1])
    cfg = SgdConfig(batch_size=37, steps=12, seed=(5, trials), eval_samples=samples, eval_steps=(0, 5, 12))

    def call():
        return sgd_ensemble(arch, theta0s, 1e-3, -0.5, 1.5, xi, cfg)

    served = helper.served
    split = call()
    assert helper.served == served + (trials > optimize._eval_block(trials, samples)[0])
    assert _outputs(split) == _outputs(_in_process(call))


@pytest.mark.parametrize("half", ["caller", "helper"])
def test_divergence_in_either_half_is_the_in_process_error(helper, half):
    """A trial diverging in either half raises the in-process call's
    `DivergenceError`: the same step, message and parameters of every trial."""
    arch = Architecture((1, 7, 1))
    theta0s = gaussian_init(arch, seed=3, scale=7.0**-0.5, trials=20)
    bad = 2 if half == "caller" else 17
    theta0s[bad] *= 30.0
    cfg = SgdConfig(batch_size=20, steps=300, seed=4, eval_samples=400, eval_steps=(0, 300))

    def call():
        with pytest.raises(DivergenceError) as error:
            sgd_ensemble(arch, theta0s, 20.0, 0.0, 1.0, 1.0, cfg)
        return error.value

    served = helper.served
    split = call()
    assert helper.served == served + 1
    alone = _in_process(call)
    assert f"[{bad}]" in str(alone)
    assert (str(split), split.step, split.theta.tobytes()) == (str(alone), alone.step, alone.theta.tobytes())


def test_a_killed_helper_gives_a_correct_result_and_is_restarted(helper):
    """A call on a killed helper runs in-process with the same result; it drops
    the helper, the next call starts another, and later calls split onto it."""
    arch = Architecture((1, 3, 7, 1))
    theta0s = gaussian_init(arch, seed=1, scale=3.0**-0.5, trials=10)
    cfg = SgdConfig(batch_size=30, steps=20, seed=2, eval_samples=500, eval_steps=(0, 20))

    def call():
        return _outputs(sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, cfg))

    alone = _in_process(call)
    helper.proc.kill()
    helper.proc.wait(timeout=10)
    assert call() == alone
    assert optimize._helper is not helper and helper.proc.returncode is not None
    assert call() == alone  # starts a helper and runs in-process
    restarted = optimize._helper
    assert restarted is not None and restarted.proc.pid != helper.proc.pid
    restarted.ready(wait=True)
    assert call() == alone
    assert restarted.served == 1


def test_two_threads_calling_at_once_get_in_process_results(helper):
    """Two threads calling at once, at a 1 us switch interval: one at a time
    takes the helper, the other runs in-process, and every result equals the
    in-process call's."""
    arch = Architecture((1, 7, 1))
    theta0s = gaussian_init(arch, seed=2, scale=7.0**-0.5, trials=12)
    cfgs = [SgdConfig(batch_size=40, steps=30, seed=s, eval_samples=300, eval_steps=(0, 30)) for s in range(8)]

    def run(cfg):
        return _outputs(sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, cfg))

    alone = [_in_process(lambda cfg=cfg: run(cfg)) for cfg in cfgs]
    together, errors, barrier = {}, [], threading.Barrier(2)

    def worker(w):
        try:
            barrier.wait(timeout=30)
            for i in range(w, len(cfgs), 2):
                together[i] = run(cfgs[i])
        except Exception as error:
            errors.append(error)

    served = helper.served
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert [together.get(i) for i in range(len(cfgs))] == alone
    assert helper.served > served and optimize._helper is helper


def test_a_callable_rate_or_batch_size_starts_no_helper(monkeypatch):
    """Callables would run in two processes, so a call with a callable rate or
    batch size runs in-process and starts no helper; the same call with a
    number and an int starts one."""
    monkeypatch.setattr(optimize, "_SPLIT_WORK", 0)
    monkeypatch.setattr(optimize, "_helper", None)
    arch = Architecture((1, 7, 1))
    theta0s = gaussian_init(arch, seed=1, scale=7.0**-0.5, trials=10)
    cfg = SgdConfig(batch_size=20, steps=10, seed=1, eval_steps=())
    sgd_ensemble(arch, theta0s, lambda n: 1e-3, 0.0, 1.0, 1.0, cfg)
    sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, SgdConfig(batch_size=lambda n: 20, steps=10, seed=1))
    assert optimize._helper is None
    try:
        sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, cfg)
        assert optimize._helper is not None
    finally:
        with optimize._helper_lock:
            optimize._drop_helper()


def test_a_bad_reply_reruns_the_call_in_process(helper, monkeypatch):
    """A reply that is not a (risk, theta) pair drops the helper, which was
    ready, so this process still splits later calls, and the call runs again
    in-process with its outputs bit for bit."""
    arch = Architecture((1, 7, 1))
    theta0s = gaussian_init(arch, seed=4, scale=7.0**-0.5, trials=10)
    cfg = SgdConfig(batch_size=30, steps=20, seed=3, eval_samples=500, eval_steps=(0, 20))

    def call():
        return _outputs(sgd_ensemble(arch, theta0s, 1e-3, 0.0, 1.0, 1.0, cfg))

    alone = _in_process(call)
    monkeypatch.setattr(helper.conn, "recv", lambda: ("risk", "theta", "extra"))
    assert call() == alone
    assert optimize._helper is None and helper.proc.returncode is not None
    assert optimize._helper_broken is False


def test_split_row_counts_steps_only_from_the_floor(monkeypatch):
    """A call's steps count as work only at trials x batch >= `_SPLIT_WORK` /
    `_SPLIT_STEPS` (2,000): both processes pay a step's fixed Python cost, so
    a 10-trial call stays in-process however many steps it takes, unless its
    checkpoints alone reach `_SPLIT_WORK`.  The benchmark's 100-trial segments
    and 0-step checkpoints split, and `_SPLIT_WORK` = 0 splits any call."""
    monkeypatch.setattr(optimize, "_cpus", lambda: 2)
    monkeypatch.setattr(optimize, "_helper_broken", False)

    def first(trials, steps, batch=100, eval_steps=(), eval_samples=10_000):
        cfg = SgdConfig(batch_size=batch, steps=steps, eval_steps=eval_steps, eval_samples=eval_samples)
        return optimize._split_row(trials, 5e-4, cfg)[0]

    assert optimize._SPLIT_WORK // optimize._SPLIT_STEPS == 2_000
    assert first(10, 50) == first(10, 100_000) == first(19, 10_000) == first(40, 10_000, batch=49) == 0
    assert first(20, 25) == 10 and first(40, 25, batch=50) == 20  # at the floor, and work 50,000
    assert first(20, 24) == 0  # at the floor, but under _SPLIT_WORK
    assert first(10, 50, eval_steps=(0, 50)) == 5  # 2 x 10 x 10^4 checkpoint work
    assert first(100, 50) == first(100, 0, eval_steps=(0,)) == 50
    monkeypatch.setattr(optimize, "_SPLIT_WORK", 0)
    assert (first(2, 12, batch=37), first(10, 50)) == (1, 5)


def _run_script(tmp_path, body: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``body`` as an unguarded script that imports the package from this checkout, in ``env`` if given."""
    script = tmp_path / "script.py"
    script.write_text(
        f"import sys\nsys.path.insert(0, {SRC!r})\n"
        "from relu_lyapunov import Architecture, SgdConfig, gaussian_init, optimize, sgd_ensemble\n"
        "print('script body ran', flush=True)\n"
        "arch = Architecture((1, 7, 1))\n"
        "theta0s = gaussian_init(arch, 0, 7.0**-0.5, 100)\n"
        "cfg = SgdConfig(batch_size=100, steps=50, seed=1, eval_steps=())\n"
        "sgd_ensemble(arch, theta0s, 5e-4, 0.0, 1.0, 1.0, cfg)\n"
        "optimize._helper.ready(wait=True)\n"
        "sgd_ensemble(arch, theta0s, 5e-4, 0.0, 1.0, 1.0, cfg)\n"
        "print('helper', optimize._helper.proc.pid, optimize._helper.served, flush=True)\n" + body
    )
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60, env=env)


def _helper_pid(run) -> int:
    pid, served = map(int, next(line for line in run.stdout.splitlines() if line.startswith("helper")).split()[1:])
    assert served == 1
    return pid


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_an_unguarded_main_script_runs_once(tmp_path):
    """The helper imports the package, not the caller's ``__main__``: a script
    with no ``if __name__ == "__main__"`` guard runs its body once and its
    second call splits."""
    run = _run_script(tmp_path, "")
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("script body ran") == 1
    _helper_pid(run)


def test_start_up_output_of_the_helper_does_not_turn_the_split_off(tmp_path):
    """The helper's stdio is no part of its exchange with the caller: with a
    `sitecustomize` on PYTHONPATH that prints a line in every interpreter,
    the helper still becomes ready and serves the script's second call."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text("print('sitecustomize ran', flush=True)\n")
    path = os.pathsep.join(filter(None, (str(site), os.environ.get("PYTHONPATH"))))
    run = _run_script(tmp_path, "", env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("sitecustomize ran")  # the script's own interpreter printed it
    _helper_pid(run)


FORK = """
import os, time
child = os.fork()
if child == 0:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    time.sleep(150 if optimize._helper is None else 0)
    os._exit(0)
print('child', child, flush=True)
"""

INTERRUPT = """
import _thread, threading
threading.Timer(0.2, _thread.interrupt_main).start()
try:
    sgd_ensemble(arch, theta0s, 5e-4, 0.0, 1.0, 1.0, SgdConfig(batch_size=100, steps=50_000, seed=2, eval_steps=()))
except KeyboardInterrupt:
    print('interrupted; helper', optimize._helper, flush=True)
"""


@pytest.mark.parametrize("ending", ["exit", "fork", "interrupt"])
def test_no_helper_outlives_its_caller(tmp_path, ending):
    """Once the interpreter has exited, its helper is gone, checked at once
    with no sleep: after a normal exit, after an interrupt during a split call
    (which kills the helper), and while a forked child lives on, which never
    uses the helper and holds no copy of its pipes (else the caller's exit
    would wait for the child)."""
    run = _run_script(tmp_path, {"exit": "", "fork": FORK, "interrupt": INTERRUPT}[ending])
    pid = _helper_pid(run)
    assert run.returncode == 0, run.stderr
    if ending == "interrupt":  # the interrupted call killed and dropped its helper
        assert "interrupted; helper None" in run.stdout
    try:
        assert _gone(pid)
    finally:
        if ending == "fork":
            child = int(next(line for line in run.stdout.splitlines() if line.startswith("child")).split()[1])
            assert not _gone(child)  # the child outlives its parent, as the check above needs
            os.kill(child, signal.SIGKILL)

