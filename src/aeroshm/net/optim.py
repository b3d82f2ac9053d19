"""AdamW optimizer (decoupled weight decay)."""

from __future__ import annotations

import numpy as np

from .stack import LayerStack


class AdamW:
    """Adam with decoupled weight decay, applied to every parameter. The
    moment estimates take each parameter's dtype.

    Update per step t:
        m <- b1 m + (1-b1) g         v <- b2 v + (1-b2) g^2
        p <- p - lr * ( m_hat / (sqrt(v_hat) + eps) + wd * p )
    """

    B1 = 0.9
    B2 = 0.999
    EPS = 1e-8

    def __init__(self, stack: LayerStack, lr: float = 1e-3, weight_decay: float = 1e-5):
        self.stack = stack
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [{k: np.zeros_like(p) for k, p in layer.params.items()}
                   for layer in stack.layers]
        self._v = [{k: np.zeros_like(p) for k, p in layer.params.items()}
                   for layer in stack.layers]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.B1 ** self.t
        bc2 = 1.0 - self.B2 ** self.t
        for layer, m_l, v_l in zip(self.stack.layers, self._m, self._v):
            for name, p in layer.params.items():
                g = layer.grads[name]
                m = m_l[name]
                v = v_l[name]
                m *= self.B1
                m += (1.0 - self.B1) * g
                v *= self.B2
                v += (1.0 - self.B2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
                p -= self.lr * (update + self.weight_decay * p)
