"""The one background thread that gives inference and input hashing a
second core.

An inference pass submits every other batch's forward here. Each task is a
whole numpy call of the serial code with the same operands, and tasks run
one at a time in the order submitted, so every result is bit-identical to
the serial code's. A command also submits the sha256 of each of its inputs
here as it starts (`manifest.Inputs`), so an input is hashed while the
command parses it. numpy releases the GIL in its loops and BLAS calls, and
hashlib while it hashes, so the two threads use two cores even with BLAS
pinned to one thread. A process that may run on one CPU only runs each task
at once on the calling thread, since there two threads would only take
turns.

A train step submits nothing here: with BLAS on one thread, running its
parameter gradients and Adam updates here saved a step little or nothing.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class Worker:
    """Runs submitted calls in order on a pool of one thread, started at the
    first call, and hands back a Future for each.

    Each call runs under the numpy error state of the thread that submitted
    it (numpy keeps that state per thread or per context, so a new thread
    would otherwise run under the defaults). Each call's result, or the
    exception it raised, warnings made errors included, is its own
    future's. With fewer than two usable CPUs, counted at start-up and
    again in a forked child, submit() runs the call at once on the calling
    thread under the same rules and returns it done, and no thread is
    started."""

    def __init__(self):
        self._reset()
        # a forked child has no thread behind a started pool
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self._pool = ThreadPoolExecutor(1, "sampleflow-worker")
        self._cpus = _usable_cpus()

    def submit(self, fn, *args) -> Future:
        """A future of fn(*args), run on the pool's thread, or now when only
        one CPU is usable."""
        err, call = np.geterr(), np.geterrcall()

        def task():
            with np.errstate(call=call, **err):
                return fn(*args)

        if self._cpus >= 2:
            return self._pool.submit(task)
        done = Future()
        try:
            done.set_result(task())
        except Exception as exc:
            done.set_exception(exc)
        return done


WORKER = Worker()
