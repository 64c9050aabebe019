"""The tape code ``nn.relu_dropout`` and ``nn.dense_relu_dropout``
replaced, kept as oracles.

Every hidden activation used to be two ops, ``relu`` and then ``dropout``,
every attack-MLP hidden layer was ``matmul``, ``add`` and the activation,
and ``Tensor._accumulate`` copied the first gradient it received. These
are those ops, that chain and that method as they were, except that the
dropout draws, the scale and the copied gradient follow the tensor's
dtype, as the tape's ops do since the attack MLPs run in float32.
"""

import numpy as np

from linklab import nn


def relu(x):
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        x._accumulate(g * (x.data > 0.0))

    return nn._result(out_data, (x,), backward)


def dropout(x, rate, training, rng=None):
    """Zero each element with probability ``rate`` and rescale survivors."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    keep = rng.random(x.data.shape, dtype=x.data.dtype) >= rate
    scale = x.data.dtype.type(1.0 / (1.0 - rate))
    out_data = x.data * keep * scale

    def backward(g):
        x._accumulate(g * keep * scale)

    return nn._result(out_data, (x,), backward)


def relu_then_dropout(x, rate=0.0, rng=None):
    """The two-op chain behind ``nn.relu_dropout``'s signature: it drops
    only at a positive rate, as the callers' training flag did."""
    return dropout(relu(x), rate, training=rate > 0.0, rng=rng)


def dense_then_relu_dropout(h, w, b, rate=0.0, rng=None):
    """The three-op chain behind ``nn.dense_relu_dropout``. It looks up
    ``nn.relu_dropout`` at call time, so under ``use_oracle_tape`` the
    activation is the two-op chain as well."""
    return nn.relu_dropout(nn.add(nn.matmul(h, w), b), rate, rng)


def copying_accumulate(self, g):
    if self.grad is None:
        self.grad = np.array(g, dtype=self.data.dtype)
    else:
        self.grad = self.grad + g


def use_oracle_tape(monkeypatch):
    """Route every dense hidden layer through the three-op chain, every
    activation through the two-op chain, and copy first gradients."""
    monkeypatch.setattr(nn, "relu_dropout", relu_then_dropout)
    monkeypatch.setattr(nn, "dense_relu_dropout", dense_then_relu_dropout)
    monkeypatch.setattr(nn.Tensor, "_accumulate", copying_accumulate)
