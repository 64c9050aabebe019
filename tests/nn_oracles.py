"""The tape code ``nn.relu_dropout`` and ``nn.dense_relu_dropout``
replaced, kept as oracles.

Every hidden activation used to be two ops, ``relu`` and then ``dropout``,
every attack-MLP hidden layer was ``matmul``, ``add`` and the activation,
and ``Tensor._accumulate`` copied the first gradient it received. These
are those ops, that chain and that method as they were, except that the
dropout draws, the scale and the copied gradient follow the tensor's
dtype, as the tape's ops do since the attack MLPs run in float32, and that
the dense chain's dropout takes ``packed_keep``'s raw bits at rate 0.5, as
``nn.dense_relu_dropout`` does.
"""

import numpy as np

from linklab import nn


def relu(x):
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        x._accumulate(g * (x.data > 0.0))

    return nn._result(out_data, (x,), backward)


def packed_keep(shape, rng):
    """``nn.dense_relu_dropout``'s rate-0.5 keep mask, one element at a time:
    bit ``k`` of raw word ``j`` is element ``64 * j + k`` of the flattened
    mask, kept when it is 1."""
    n = int(np.prod(shape))
    keep = np.zeros(n, dtype=bool)
    for i in range(n):
        if i % 64 == 0:
            word = int(rng.bit_generator.random_raw())
        keep[i] = (word >> (i % 64)) & 1 == 1
    return keep.reshape(shape)


def dropout(x, rate, training, rng=None, packed=False):
    """Zero each element with probability ``rate`` and rescale survivors;
    with ``packed`` at rate 0.5 the mask is ``packed_keep``'s."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    if packed and rate == 0.5:
        keep = packed_keep(x.data.shape, rng)
    else:
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
    """The chain behind ``nn.dense_relu_dropout``: ``matmul``, ``add``,
    ``relu`` and a dropout that draws packed bits at rate 0.5."""
    pre = nn.add(nn.matmul(h, w), b)
    return dropout(relu(pre), rate, training=rate > 0.0, rng=rng, packed=True)


def copying_accumulate(self, g):
    if self.grad is None:
        self.grad = np.array(g, dtype=self.data.dtype)
    else:
        self.grad = self.grad + g


def use_oracle_tape(monkeypatch):
    """Route every dense hidden layer through the four-op chain, every
    other activation through the two-op chain, and copy first gradients."""
    monkeypatch.setattr(nn, "relu_dropout", relu_then_dropout)
    monkeypatch.setattr(nn, "dense_relu_dropout", dense_then_relu_dropout)
    monkeypatch.setattr(nn.Tensor, "_accumulate", copying_accumulate)
