"""The two-thread train step against the serial schedule it replaces.

`pipeline._train_network` runs each layer's parameter gradients and Adam
update on the worker thread. The reference here is the serial schedule,
`Network.backward` then `Adam.step`, written out on the test side. The
worker runs its tasks on the calling thread where only one CPU is usable,
so the tests of the threaded path set a CPU count of 2 (`two_cpus`).
"""

import gc
import os
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from sampleflow import pipeline
from sampleflow.neural import (Adam, BatchNorm1d, Conv1d, Dense, Network,
                               Param, build_classifier, build_regressor,
                               cross_entropy_loss, init_params, mse_loss)
from sampleflow.neural import worker
from sampleflow.neural.network import flatten_width
from sampleflow.neural.worker import WORKER
from sampleflow.pipeline import NonFiniteLossError, TrainConfig
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
    """The parent schedule of _train_network: every step's backward, then
    every update, on the calling thread."""
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
            _, dpred = loss_fn(net.forward(x[idx]), y[idx])
            net.backward(dpred)
            optimizer.step()
    net.eval()
    return optimizer


def overlapped_train(monkeypatch, net, x, y, loss_fn, epochs, cfg,
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
    assert WORKER._tasks.unfinished_tasks == 0 and WORKER._error is None


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
    opt = overlapped_train(monkeypatch, net, x, y, loss_fn, epochs, cfg, 5)
    assert opt.t == ref_opt.t >= 20
    assert state(net, opt) == state(ref_net, ref_opt)
    assert_idle()


def test_parameter_work_runs_on_the_worker(monkeypatch):
    two_cpus(monkeypatch)
    threads = {}

    def spy(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            threads.setdefault(f"{cls.__name__}.{name}", set()).add(
                threading.current_thread().name)
            return original(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((Conv1d, "_add_grads"), (Dense, "_add_grads"),
                      (Adam, "_update")):
        spy(cls, name)
    x, y, loss_fn = data(regressor, 16, seed=1)
    pipeline._train_network(regressor(), x, y, loss_fn, 1, config(8), 5)
    worker = {"sampleflow-train-worker"}
    assert threads == {"Conv1d._add_grads": worker,
                       "Dense._add_grads": worker, "Adam._update": worker}


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
        assert layer.backward(dy, WORKER.submit, False) is None
        WORKER.wait()
        assert all(np.array_equal(p.grad, g)
                   for p, g in zip(layer.params(), grads))


def test_idle_worker_keeps_nothing_of_the_last_step(monkeypatch):
    x, y, loss_fn = data(head, 16, seed=9)
    optimizer = overlapped_train(monkeypatch, head(), x, y, loss_fn, 1,
                                 config(8), 5)
    gone = weakref.ref(optimizer)
    del optimizer
    gc.collect()
    assert gone() is None


class InjectedFault(Exception):
    pass


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_fault_surfaces_and_leaves_nothing_queued(monkeypatch, where):
    two_cpus(monkeypatch)
    x, y, loss_fn = data(classifier, 41, seed=4)
    cfg = config(8)
    fresh = classifier()
    fresh_opt = overlapped_train(monkeypatch, fresh, x, y, loss_fn, 2, cfg, 5)
    raised_on = []
    if where == "worker":  # the fourth parameter gradient of a Dense
        cls, name = Dense, "_add_grads"
    else:  # the fourth input gradient of a batch norm
        cls, name = BatchNorm1d, "backward"
    original = getattr(cls, name)
    calls = []

    def faulty(self, *args):
        calls.append(1)
        if len(calls) == 4:
            raised_on.append(threading.current_thread())
            raise InjectedFault("injected")
        return original(self, *args)

    with monkeypatch.context() as m:
        m.setattr(cls, name, faulty)
        with pytest.raises(InjectedFault, match="injected"):
            pipeline._train_network(classifier(), x, y, loss_fn, 2, cfg, 5)
    on_worker = raised_on[0] is not threading.current_thread()
    assert on_worker == (where == "worker")
    assert_idle()
    again = classifier()
    again_opt = overlapped_train(monkeypatch, again, x, y, loss_fn, 2, cfg, 5)
    assert state(again, again_opt) == state(fresh, fresh_opt)


def overflowing_adam():
    """An optimizer whose next update overflows in (1 - b2) * g * g."""
    p = Param(np.array([1.0, -1.0]))
    p.grad[...] = 1e200
    return p, Adam([p], lr=1e-3)


def test_caller_errstate_raise_governs_worker():
    p, serial = overflowing_adam()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        serial.step()
    p, queued = overflowing_adam()
    with np.errstate(over="raise"):
        queued.update_later([p])
        with pytest.raises(FloatingPointError):
            queued.step()
    assert_idle()


def test_caller_errstate_ignore_governs_worker():
    p, queued = overflowing_adam()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="ignore"):
            queued.update_later([p])
            queued.step()
    assert not np.isfinite(queued.v[0]).any()
    assert_idle()


def test_warning_made_error_on_worker_reaches_caller():
    p, queued = overflowing_adam()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="warn"):
            queued.update_later([p])
            with pytest.raises(RuntimeWarning, match="overflow"):
                queued.step()
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


def test_bit_identical_under_fast_thread_switching(monkeypatch):
    """A lost or reordered update would show as a changed parameter."""
    x, y, loss_fn = data(classifier, 50, seed=7)
    cfg = config(7)
    ref_net = classifier()
    ref_opt = serial_train(ref_net, x, y, loss_fn, 3, cfg, 5)
    net = classifier()
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = threading.Thread(target=lambda: out.append(overlapped_train(
            monkeypatch, net, x, y, loss_fn, 3, cfg, 5)))
        run.start()
        run.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not run.is_alive() and len(out) == 1
    assert state(net, out[0]) == state(ref_net, ref_opt)
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_trains_with_its_own_worker(monkeypatch):
    two_cpus(monkeypatch)
    x, y, loss_fn = data(head, 16, seed=8)
    pipeline._train_network(head(), x, y, loss_fn, 1, config(8), 5)
    assert WORKER._thread is not None and WORKER._thread.is_alive()

    def child():
        pipeline._train_network(head(), x, y, loss_fn, 1, config(8), 5)
        return WORKER._thread is not None and WORKER._thread.is_alive()
    assert forked(child) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_counts_its_cpus_again(monkeypatch):
    # the parent runs on its thread; a child that may use one CPU runs
    # every task inline and starts no thread
    two_cpus(monkeypatch)
    x, y, loss_fn = data(head, 16, seed=8)
    pipeline._train_network(head(), x, y, loss_fn, 1, config(8), 5)
    assert WORKER._thread is not None
    monkeypatch.setattr(worker, "_usable_cpus", lambda: 1)

    def child():
        pipeline._train_network(head(), x, y, loss_fn, 1, config(8), 5)
        return WORKER._cpus == 1 and WORKER._thread is None
    assert forked(child) == 0


def test_one_cpu_runs_tasks_inline_under_the_same_rules(monkeypatch):
    monkeypatch.setattr(WORKER, "_cpus", 1)
    ran = []

    def record(tag):
        ran.append((tag, threading.get_ident(), np.geterr()["over"]))

    def fail():
        raise InjectedFault("inline")

    with np.errstate(over="raise"):
        WORKER.submit(record, "first")
    assert ran == [("first", threading.get_ident(), "raise")]
    WORKER.submit(fail)
    WORKER.submit(record, "skipped")
    with pytest.raises(InjectedFault, match="inline"):
        WORKER.wait()
    assert len(ran) == 1
    assert_idle()
    WORKER.submit(record, "after")
    WORKER.wait()
    assert [tag for tag, *_ in ran] == ["first", "after"]


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
