"""The one background thread that gives training and inference a second core.

A train step's critical path is the forward pass, the loss and the chain of
input gradients down the layers. The parameter gradients of `Conv1d` and
`Dense` and the Adam updates only feed parameters, so the step queues them
here and goes on down the layers while they run. An inference pass queues
every other batch's forward here. Each task is a whole numpy call of the
serial code with the same operands, and tasks run one at a time in the order
queued, so every result is bit-identical to the serial code's. numpy
releases the GIL in its loops and BLAS calls, so the two threads use two
cores even with BLAS pinned to one thread. A process that may run on one
CPU only runs each task at once on the calling thread, since there two
threads would only take turns.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np


class _Cancelled(Exception):
    pass


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class Worker:
    """Runs queued calls in order on one daemon thread, started lazily.

    Each call runs under the numpy error state of the thread that queued it
    (numpy keeps that state per thread or per context, so a new thread would
    otherwise run under the defaults). The first exception a call raises,
    warnings made errors included, skips the calls queued after it and is
    raised again by wait(). Callers on several threads share the one
    queue, and each wait() waits for all of it. With fewer than two usable
    CPUs, counted at start-up and again in a forked child, submit() runs
    the call at once on the calling thread under the same rules, and no
    thread is started."""

    def __init__(self):
        self._reset()
        # a forked child has no thread behind a started worker
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self._tasks: queue.Queue = queue.Queue()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._starting = threading.Lock()
        self._cpus = _usable_cpus()

    def submit(self, fn, *args) -> None:
        """Queue fn(*args), or run it now when only one CPU is usable."""
        if self._cpus < 2:
            self._call(np.geterr(), np.geterrcall(), fn, args)
            return
        if self._thread is None:
            with self._starting:
                if self._thread is None:
                    self._thread = threading.Thread(
                        target=self._run, name="sampleflow-train-worker",
                        daemon=True)
                    self._thread.start()
        self._tasks.put((np.geterr(), np.geterrcall(), fn, args))

    def _run(self):
        while True:
            self._call(*self._tasks.get())
            self._tasks.task_done()

    def _call(self, err, call, fn, args):
        """Run one task; its arguments are let go when it returns, so an
        idle worker keeps nothing of the last step alive."""
        if self._error is not None:
            return
        try:
            with np.errstate(call=call, **err):
                fn(*args)
        except BaseException as exc:
            self._error = exc

    def wait(self) -> None:
        """Return once every queued call has run; raise the first exception
        one raised. Nothing is left queued either way."""
        self._tasks.join()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def cancel(self) -> None:
        """Skip the calls still queued and forget any error, for a caller
        that is already raising; returns once nothing is left running."""
        self._error = _Cancelled()
        self._tasks.join()
        self._error = None


WORKER = Worker()
