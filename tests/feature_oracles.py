"""The per-pair transfer and cosine features the row-wise blocks replaced,
kept as oracles.

Each function takes one pair's vectors and returns Python floats, as the
earlier implementation did; vectors of unequal length are zero-padded to a
common width.
"""

import numpy as np

from linklab.features import pairwise_concat


def require_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("posterior must be a non-empty vector")
    if p.min() < -1e-9 or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError("posterior is not a probability distribution")
    return p


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats."""
    p = require_distribution(p)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _pad_common(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    width = max(a.size, b.size)
    pa = np.zeros(width)
    pb = np.zeros(width)
    pa[: a.size] = a
    pb[: b.size] = b
    return pa, pb


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _pad_common(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats, zero-padding shorter inputs."""
    p, q = _pad_common(require_distribution(p), require_distribution(q))
    m = (p + q) / 2.0

    def kl(x, y):
        mask = x > 0.0
        return float((x[mask] * np.log(x[mask] / y[mask])).sum())

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def correlation_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - Pearson r``; zero when either vector is constant."""
    a, b = _pad_common(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    da = a - a.mean()
    db = b - b.mean()
    va = np.dot(da, da)
    vb = np.dot(db, db)
    if va == 0.0 or vb == 0.0:
        return 0.0
    return float(1.0 - np.dot(da, db) / np.sqrt(va * vb))


def transfer_block(post_u: np.ndarray, post_v: np.ndarray) -> np.ndarray:
    """Class-count-independent posterior features for cross-dataset shadows.

    Four pairwise combinations of the two posterior entropies, then cosine
    similarity, JS divergence, and correlation distance of the posterior
    vectors (zero-padded when class counts differ).
    """
    pu = require_distribution(post_u)
    pv = require_distribution(post_v)
    eu = np.array([entropy(pu)])
    ev = np.array([entropy(pv)])
    ent_parts = pairwise_concat(eu, ev, "all")
    similarity = np.array([
        cosine_similarity(pu, pv),
        js_divergence(pu, pv),
        correlation_distance(pu, pv),
    ])
    return np.concatenate([ent_parts, similarity])
