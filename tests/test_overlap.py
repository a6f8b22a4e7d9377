"""The train step against the plain schedule, and the worker's contracts.

`pipeline._train_network` runs all of a step's work on the calling thread,
skipping the first layer's input gradient. The reference here is the plain
schedule, `Network.backward` then `Adam.step`, written out on the test side;
both forward and backpropagate in float32 and take the loss in float64.

The worker (`neural.worker.WORKER`) forwards alternate inference batches
and hashes inputs. It runs its tasks on the calling thread where only one
CPU is usable, so the tests of its thread set a CPU count of 2
(`two_cpus`).
"""

import gc
import os
import signal
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from sampleflow import pipeline
from sampleflow.neural import (Adam, BatchNorm1d, Conv1d, Dense, Network,
                               build_classifier, build_regressor,
                               cross_entropy_loss, init_params, mse_loss)
from sampleflow.neural import worker
from sampleflow.neural.network import flatten_width
from sampleflow.neural.worker import WORKER
from sampleflow.pipeline import INFER_BATCH, NonFiniteLossError, TrainConfig
from sampleflow.sampling import Fixed

WINDOW = 9  # the least that two pool-3 stages take


def regressor():
    return init_params(build_regressor(WINDOW), 1)


def classifier():
    return init_params(build_classifier(WINDOW, 3), 2)


def head():
    net = classifier()
    return Network(net.layers[net.trunk_len:], 0)


def data(make, n, seed):
    rng = np.random.default_rng(seed)
    net = make()
    if net.trunk_len:
        x = rng.standard_normal((n, 2, WINDOW))
    else:
        x = rng.standard_normal((n, flatten_width(WINDOW)))
    if make is regressor:
        return x, rng.standard_normal((n, 24)), mse_loss
    return x, rng.integers(0, 3, n), cross_entropy_loss


def config(batch_size, lr=1e-3):
    return TrainConfig(sampling=Fixed(1), seed=0, batch_size=batch_size, lr=lr)


def serial_train(net, x, y, loss_fn, epochs, cfg, shuffle_seed):
    """The plain schedule of _train_network: every step's whole backward,
    then every update. A step forwards and backpropagates in float32 and
    takes the loss in float64."""
    optimizer = Adam(net.params(), lr=cfg.lr)
    rng = np.random.default_rng(shuffle_seed)
    net.train()
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for lo in range(0, len(x), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            if len(idx) < 2:
                continue
            optimizer.zero_grad()
            pred = net.forward(x[idx].astype(np.float32))
            _, dpred = loss_fn(pred.astype(np.float64), y[idx])
            net.backward(dpred.astype(np.float32))
            optimizer.step()
    net.eval()
    return optimizer


def pipeline_train(monkeypatch, net, x, y, loss_fn, epochs, cfg,
                   shuffle_seed):
    """_train_network, returning the optimizer it made."""
    made = []

    class Recorded(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "Adam", Recorded)
        pipeline._train_network(net, x, y, loss_fn, epochs, cfg, shuffle_seed)
    [optimizer] = made
    return optimizer


def state(net, optimizer):
    """The bytes of every parameter, Adam moment and running statistic."""
    out = [p.value.tobytes() for p in net.params()]
    out += [a.tobytes() for a in optimizer.m + optimizer.v]
    out += [a.tobytes() for layer in net.layers
            if isinstance(layer, BatchNorm1d)
            for a in (layer.running_mean, layer.running_var)]
    return out + [optimizer.t]


def assert_idle():
    assert WORKER._pool._work_queue.empty()


def two_cpus(monkeypatch):
    """Count two usable CPUs, here and in a forked child, so that the worker
    runs its tasks on its thread whatever CPUs the test may use."""
    monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(WORKER, "_cpus", 2)


# (rows, batch size, epochs): each has a last batch of 1 row, which is
# skipped, and makes at least 20 steps
BATCHES = [(41, 2, 1), (50, 7, 3), (129, 128, 20)]


@pytest.mark.parametrize("rows, batch, epochs", BATCHES,
                         ids=["batch 2", "batch 7", "batch 128"])
@pytest.mark.parametrize("make", [regressor, classifier, head],
                         ids=["regressor", "classifier", "head"])
def test_bit_identical_to_serial_schedule(monkeypatch, make, rows, batch,
                                          epochs):
    x, y, loss_fn = data(make, rows, seed=rows)
    cfg = config(batch)
    ref_net = make()
    ref_opt = serial_train(ref_net, x, y, loss_fn, epochs, cfg, 5)
    net = make()
    opt = pipeline_train(monkeypatch, net, x, y, loss_fn, epochs, cfg, 5)
    assert opt.t == ref_opt.t >= 20
    assert state(net, opt) == state(ref_net, ref_opt)
    assert_idle()


@pytest.mark.parametrize("make", [regressor, classifier, head],
                         ids=["regressor", "classifier", "head"])
def test_float32_step_gradients_match_float64(monkeypatch, make):
    # one float32 step of _train_network against the same step in float64:
    # each gradient within rtol 1e-3, plus 1e-3 of its layer's largest
    # gradient, as a conv bias before batch norm has a gradient near 0. A
    # dropped or mis-cast gradient is far outside.
    rows = 64
    x, y, loss_fn = data(make, rows, seed=9)
    grads = []

    class Recorded(Adam):
        def step(self):
            grads.append([p.grad.copy() for p in self.params])
            super().step()

    monkeypatch.setattr(pipeline, "Adam", Recorded)
    net = make()
    pipeline._train_network(net, x, y, loss_fn, 1, config(rows), 5)
    [got] = grads
    ref = make().train()
    idx = np.random.default_rng(5).permutation(rows)
    _, dpred = loss_fn(ref.forward(x[idx]), y[idx])
    ref.backward(dpred)
    params = [layer.params() for layer in ref.layers]
    assert len(got) == sum(map(len, params))
    got = iter(got)
    for i, layer_params in enumerate(params):
        scale = max((float(np.abs(p.grad).max()) for p in layer_params),
                    default=0.0)
        for p in layer_params:
            np.testing.assert_allclose(next(got), p.grad, rtol=1e-3,
                                       atol=1e-3 * scale, err_msg=str(i))


@pytest.mark.parametrize("make", [regressor, head], ids=["conv", "dense"])
def test_train_step_skips_first_input_gradient(monkeypatch, make):
    net = make()
    first = type(net.layers[0])
    returned = []
    backward = first.backward

    def spy(layer, dy, *args):
        dx = backward(layer, dy, *args)
        if layer is net.layers[0]:
            returned.append(dx)
        return dx

    monkeypatch.setattr(first, "backward", spy)
    x, y, loss_fn = data(make, 8, seed=2)
    pipeline._train_network(net, x, y, loss_fn, 1, config(4), 5)
    assert returned == [None, None]


def test_skipped_input_gradient_leaves_grads_as_direct_call():
    rng = np.random.default_rng(3)
    for layer, x in ((Conv1d(2, 4, 5), rng.standard_normal((3, 2, 9))),
                     (Dense(6, 5), rng.standard_normal((3, 6))),
                     (BatchNorm1d(2), rng.standard_normal((3, 2, 9)))):
        for p in layer.params():
            p.value[...] = rng.standard_normal(p.value.shape)
        dy = rng.standard_normal(layer.forward(x, True).shape)
        dx = layer.backward(dy)
        assert dx.shape == x.shape
        grads = [p.grad.copy() for p in layer.params()]
        for p in layer.params():
            p.zero_grad()
        layer.forward(x, True)  # backward consumed the first forward's cache
        assert layer.backward(dy, False) is None
        assert all(np.array_equal(p.grad, g)
                   for p, g in zip(layer.params(), grads))


def test_idle_worker_keeps_nothing_of_the_last_step(monkeypatch):
    x, y, loss_fn = data(head, 16, seed=9)
    optimizer = pipeline_train(monkeypatch, head(), x, y, loss_fn, 1,
                               config(8), 5)
    gone = weakref.ref(optimizer)
    del optimizer
    gc.collect()
    assert gone() is None


class InjectedFault(Exception):
    pass


@pytest.mark.parametrize("where", ["caller"])  # the one thread a step uses
def test_fault_surfaces_and_leaves_nothing_queued(monkeypatch, where):
    x, y, loss_fn = data(classifier, 41, seed=4)
    cfg = config(8)
    fresh = classifier()
    fresh_opt = pipeline_train(monkeypatch, fresh, x, y, loss_fn, 2, cfg, 5)
    raised_on = []
    original = BatchNorm1d.backward
    calls = []

    def faulty(self, *args):  # the fourth input gradient of a batch norm
        calls.append(1)
        if len(calls) == 4:
            raised_on.append(threading.current_thread())
            raise InjectedFault("injected")
        return original(self, *args)

    with monkeypatch.context() as m:
        m.setattr(BatchNorm1d, "backward", faulty)
        with pytest.raises(InjectedFault, match="injected"):
            pipeline._train_network(classifier(), x, y, loss_fn, 2, cfg, 5)
    assert raised_on == [threading.current_thread()]
    assert_idle()
    again = classifier()
    again_opt = pipeline_train(monkeypatch, again, x, y, loss_fn, 2, cfg, 5)
    assert state(again, again_opt) == state(fresh, fresh_opt)


def overflowing(threads):
    """A task that overflows in float64, and the array it writes; it notes
    the thread it runs on in threads."""
    out = np.empty(2)

    def task():
        threads.append(threading.current_thread().name)
        np.multiply(np.array([1e200, -1e200]), 1e200, out=out)
    return out, task


def test_caller_errstate_raise_governs_worker(monkeypatch):
    two_cpus(monkeypatch)
    threads = []
    _, task = overflowing(threads)
    with np.errstate(over="raise"):
        future = WORKER.submit(task)
    with pytest.raises(FloatingPointError):
        future.result()
    assert threads == ["sampleflow-worker_0"]
    assert_idle()


def test_caller_errstate_ignore_governs_worker(monkeypatch):
    two_cpus(monkeypatch)
    threads = []
    out, task = overflowing(threads)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="ignore"):
            WORKER.submit(task).result()
    assert threads == ["sampleflow-worker_0"]
    assert not np.isfinite(out).any()
    assert_idle()


def test_warning_made_error_on_worker_reaches_caller(monkeypatch):
    two_cpus(monkeypatch)
    threads = []
    _, task = overflowing(threads)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="warn"):
            future = WORKER.submit(task)
        with pytest.raises(RuntimeWarning, match="overflow"):
            future.result()
    assert threads == ["sampleflow-worker_0"]
    assert_idle()


def diverging():
    """A train step whose first Adam update overflows: lr 1e308 times a
    gradient above 1.8."""
    x, y, loss_fn = data(regressor, 16, seed=6)
    return x, 1e3 * y, loss_fn, config(8, lr=1e308)


def test_training_update_overflow_raises_under_errstate_raise():
    x, y, loss_fn, cfg = diverging()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            serial_train(regressor(), x, y, loss_fn, 1, cfg, 5)
        with pytest.raises(FloatingPointError):
            pipeline._train_network(regressor(), x, y, loss_fn, 1, cfg, 5)
    assert_idle()


def test_training_update_overflow_is_data_error_under_errstate_ignore():
    x, y, loss_fn, cfg = diverging()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteLossError, match="epoch 1/1, batch 2"):
            pipeline._train_network(regressor(), x, y, loss_fn, 1, cfg, 5)
    assert_idle()


def forked(child) -> int:
    """The exit code of a forked child that runs child() and exits 0 if it
    returns true."""
    with warnings.catch_warnings():  # fork() of a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if child() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish")
    return os.waitstatus_to_exitcode(status)


def forward_two_batches():
    """Forward two inference batches of a head, the odd one on the worker."""
    x = np.random.default_rng(8).standard_normal(
        (2 * INFER_BATCH, flatten_width(WINDOW)))
    pipeline._forward_batches(head().eval(), x, np.float64)


def pool_threads():
    """The names of the live threads of the worker's pool."""
    return [t.name for t in threading.enumerate()
            if t.name.startswith("sampleflow-worker")]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_trains_with_its_own_worker(monkeypatch):
    # a child that trains, then forwards, starts a worker of its own
    two_cpus(monkeypatch)
    x, y, loss_fn = data(head, 16, seed=8)
    forward_two_batches()
    assert pool_threads() == ["sampleflow-worker_0"]

    def child():
        pipeline._train_network(head(), x, y, loss_fn, 1, config(8), 5)
        forward_two_batches()
        return pool_threads() == ["sampleflow-worker_0"]
    assert forked(child) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_counts_its_cpus_again(monkeypatch):
    # the parent forwards on its thread; a child that may use one CPU runs
    # every task inline and starts no thread
    two_cpus(monkeypatch)
    x, y, loss_fn = data(head, 16, seed=8)
    forward_two_batches()
    assert pool_threads() == ["sampleflow-worker_0"]
    monkeypatch.setattr(worker, "_usable_cpus", lambda: 1)

    def child():
        pipeline._train_network(head(), x, y, loss_fn, 1, config(8), 5)
        forward_two_batches()
        return WORKER._cpus == 1 and pool_threads() == []
    assert forked(child) == 0


def test_one_cpu_runs_tasks_inline_under_the_same_rules(monkeypatch):
    monkeypatch.setattr(WORKER, "_cpus", 1)
    ran = []

    def record(tag):
        ran.append((tag, threading.get_ident(), np.geterr()["over"]))
        return tag

    def fail():
        raise InjectedFault("inline")

    with np.errstate(over="raise"):
        first = WORKER.submit(record, "first")
    assert first.done() and first.result() == "first"
    failed = WORKER.submit(fail)
    assert failed.done() and isinstance(failed.exception(), InjectedFault)
    after = WORKER.submit(record, "after")
    assert after.done() and after.result() == "after"
    caller = threading.get_ident()
    assert ran == [("first", caller, "raise"),
                   ("after", caller, np.geterr()["over"])]
    assert_idle()


@pytest.mark.parametrize("affinity, cpu_count, want", [
    ({0}, 8, 1), ({0, 1}, 1, 2), (None, 1, 1), (None, None, 1),
    (None, 4, 4)], ids=["affinity 1", "affinity 2", "count 1", "count None",
                        "count 4"])
def test_usable_cpus(monkeypatch, affinity, cpu_count, want):
    # the CPUs the process may run on; os.cpu_count() where the platform
    # has no sched_getaffinity
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert worker._usable_cpus() == want
