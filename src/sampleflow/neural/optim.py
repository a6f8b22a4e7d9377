"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .layers import Param
from .worker import WORKER


class Adam:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Param], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        # per-parameter scratch for the step, so that it allocates nothing
        self._num = [np.empty_like(p.value) for p in self.params]
        self._den = [np.empty_like(p.value) for p in self.params]
        self._index = {id(p): i for i, p in enumerate(self.params)}
        self._queued: set[int] = set()  # updates of the coming step, queued

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def update_later(self, params: list[Param]) -> None:
        """Queue the coming step's update of params on the worker thread,
        behind the work queued for their gradients; step() waits for it."""
        t = self.t + 1
        for p in params:
            i = self._index[id(p)]
            self._queued.add(i)
            WORKER.submit(self._update, i, t)

    def step(self):
        """One bias-corrected update of every parameter, in place: wait for
        the updates queued by update_later, then make the others."""
        queued, self._queued = self._queued, set()
        WORKER.wait()
        t = self.t + 1
        for i in range(len(self.params)):
            if i not in queued:
                self._update(i, t)
        self.t = t

    def _update(self, i: int, t: int):
        """Step t's update of parameter i.

        The textbook operations in the textbook order, so results are
        bit-identical to m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        value -= lr * m_hat / (sqrt(v_hat) + eps).
        """
        b1, b2 = self.beta1, self.beta2
        g, m, v, num, den = (self.params[i].grad, self.m[i], self.v[i],
                             self._num[i], self._den[i])
        m *= b1
        m += np.multiply(g, 1 - b1, out=num)
        v *= b2
        np.multiply(g, 1 - b2, out=den)
        den *= g
        v += den
        np.divide(m, 1 - b1 ** t, out=num)
        num *= self.lr
        np.divide(v, 1 - b2 ** t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        self.params[i].value -= num
