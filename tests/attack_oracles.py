"""The float64 attack MLP that ``attacks`` replaced with float32, kept as an
oracle.

The model draws the same Glorot values from the same ``init`` stream and
keeps them in float64; the inputs, the tape, the dropout draws and the Adam
moments are float64 too, as they were before the attack MLPs moved to
float32. Only the precision differs, so at dropout 0 the two trainings
agree to float32 rounding.
"""

import numpy as np

from linklab import nn
from linklab.attacks import _BRANCH_PLANS, MlpBranch, MultiInputMlp
from linklab.rng import stream


def build_attack_model(attack_id, input_dims, rng):
    branches = []
    for kind, widths in _BRANCH_PLANS[attack_id]:
        dims = (input_dims[kind],) + tuple(widths)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(nn.Parameter(nn.glorot_uniform(rng, fan_in, fan_out, (fan_in, fan_out))))
            biases.append(nn.Parameter(np.zeros(fan_out)))
        branches.append(MlpBranch(kind, tuple(widths), weights, biases))
    concat_dim = sum(br.widths[-1] for br in branches)
    head_w = nn.Parameter(nn.glorot_uniform(rng, concat_dim, 2, (concat_dim, 2)))
    return MultiInputMlp(attack_id, branches, head_w, nn.Parameter(np.zeros(2)), dict(input_dims))


def mlp_forward(model, inputs, rng=None, dropout_rate=0.0):
    embeddings = []
    for br in model.branches:
        h = nn.Tensor(np.asarray(inputs[br.kind], dtype=np.float64))
        for w, b in zip(br.weights, br.biases):
            h = nn.dense_relu_dropout(h, w, b, dropout_rate, rng)
        embeddings.append(h)
    joined = embeddings[0] if len(embeddings) == 1 else nn.concat_cols(embeddings)
    return nn.add(nn.matmul(joined, model.head_w), model.head_b)


def train_attack(attack_id, inputs, labels, seed, *, epochs=200, learning_rate=0.001,
                 dropout_rate=0.5):
    """``attacks.train_attack`` in float64: same streams, same schedule."""
    labels = np.asarray(labels, dtype=np.int64)
    input_dims = {kind: mat.shape[1] for kind, mat in inputs.items()}
    model = build_attack_model(attack_id, input_dims, stream(seed, "init"))
    drop_rng = stream(seed, "dropout")
    optimizer = nn.Adam(model.parameters(), learning_rate=learning_rate)
    for epoch in range(epochs):
        optimizer.learning_rate = nn.cosine_anneal(learning_rate, epoch, epochs)
        logits = mlp_forward(model, inputs, drop_rng, dropout_rate)
        loss, _ = nn.softmax_cross_entropy(logits, labels)
        loss.backward()
        optimizer.step()
    return model
