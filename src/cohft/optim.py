"""Adam with decoupled weight decay, operating on the model's named parameters."""
from __future__ import annotations

import numpy as np


class AdamW:
    """Adam with decoupled weight decay.

    Each step reads one gradient set and updates the weights, m and v in
    place, so it reallocates no parameter-sized array.
    """

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-4):
        self.params = list(params)  # (name, Tensor)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params}

    def step(self, grads):
        """grads: {Tensor: array}; parameters without a gradient only decay."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = grads.get(p, 0.0)
            m, v = self.m[name], self.v[name]
            # the roundings of b1 m + (1 - b1) g and b2 v + (1 - b2) g g, in order
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            # p - lr update - (lr wd) p, with the decay read from p before the update
            decay = (self.lr * self.weight_decay) * p.data
            p.data -= self.lr * update
            p.data -= decay
