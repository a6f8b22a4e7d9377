"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .layers import Param


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

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """One bias-corrected update of every parameter, in place.

        The textbook operations in the textbook order, so results are
        bit-identical to m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        value -= lr * m_hat / (sqrt(v_hat) + eps).
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v, num, den in zip(self.params, self.m, self.v, self._num,
                                     self._den):
            g = p.grad
            m *= b1
            m += np.multiply(g, 1 - b1, out=num)
            v *= b2
            np.multiply(g, 1 - b2, out=den)
            den *= g
            v += den
            np.divide(m, c1, out=num)
            num *= self.lr
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p.value -= num

