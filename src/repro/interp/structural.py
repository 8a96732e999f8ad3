"""The Hewitt-Manning structural probe (§7).

Learn a rank-k projection B of contextualized embeddings such that the
squared distances ``||B(u_i - u_j)||^2`` approximate the parse-tree path
distances ``d(i, j)`` between words i and j.  The paper's headline: for
BERT a projection of rank ~50 (out of ~1000 dimensions) suffices — low
rank is the E10 sweep variable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..autograd import Tensor, no_grad
from ..nn import Module
from ..nn.init import scaled_normal


@dataclass
class ProbeExample:
    """Embeddings (n_words, d) and gold tree distances (n_words, n_words)."""

    embeddings: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        n = self.embeddings.shape[0]
        if self.distances.shape != (n, n):
            raise ValueError("distance matrix shape mismatch")


class StructuralProbe(Module):
    """Learns B in R^{d x k}; predicts squared L2 tree distances."""

    def __init__(self, in_dim: int, rank: int, rng: np.random.Generator | int = 0):
        super().__init__()
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        if rank < 1 or rank > in_dim:
            raise ValueError("rank must be in [1, in_dim]")
        self.rank = rank
        self.projection = Tensor(scaled_normal(rng, (in_dim, rank)), requires_grad=True)

    def predicted_distances(self, embeddings: Tensor) -> Tensor:
        """(n, d) embeddings -> (n, n) squared projected distances."""
        projected = embeddings @ self.projection  # (n, k)
        n, k = projected.shape
        diff = projected.reshape(n, 1, k) - projected.reshape(1, n, k)
        return (diff * diff).sum(axis=-1)

    def sentence_loss(self, example: ProbeExample) -> Tensor:
        """Hewitt-Manning L1 objective, normalised by pair count."""
        pred = self.predicted_distances(Tensor(example.embeddings))
        gold = Tensor(example.distances)
        n = example.distances.shape[0]
        return (pred - gold).abs().sum() * (1.0 / (n * n))

    def fit(self, examples: Sequence[ProbeExample], epochs: int = 30,
            lr: float = 1e-2, seed: int = 0) -> list[float]:
        """Adam over per-sentence losses; returns epoch loss curve."""
        from ..nn import Adam

        rng = np.random.default_rng(seed)
        optimizer = Adam(self.parameters(), lr=lr)
        curve: list[float] = []
        for _ in range(epochs):
            order = rng.permutation(len(examples))
            total = 0.0
            for i in order:
                self.zero_grad()
                loss = self.sentence_loss(examples[i])
                loss.backward()
                optimizer.step()
                total += float(loss.data)
            curve.append(total / len(examples))
        return curve

    def evaluate_spearman(self, examples: Sequence[ProbeExample]) -> float:
        """Mean Spearman correlation of predicted vs gold distances.

        Computed over the upper-triangular pairs of each sentence (the
        standard "distance Spearman" probe metric), averaged across
        sentences with at least 3 words.
        """
        from scipy import stats

        scores: list[float] = []
        with no_grad():
            for example in examples:
                n = example.distances.shape[0]
                if n < 3:
                    continue
                pred = self.predicted_distances(Tensor(example.embeddings)).data
                iu = np.triu_indices(n, k=1)
                rho = stats.spearmanr(pred[iu], example.distances[iu]).statistic
                if np.isfinite(rho):
                    scores.append(float(rho))
        if not scores:
            raise ValueError("no sentence long enough to evaluate")
        return float(np.mean(scores))


# ---------------------------------------------------------------------------
# Closed-form metric probe
# ---------------------------------------------------------------------------
# The probe's objective is linear in the full metric M = B B^T:
# ``d(i, j) = (u_i - u_j)^T M (u_i - u_j) = <M, diff diff^T>``, so the best
# full-rank M is a ridge regression over outer-product features, and the
# best rank-k probe is its top-k eigen-truncation.  This convex estimator
# is far more stable than SGD on B at small scale.


def fit_distance_metric(examples: Sequence[ProbeExample],
                        ridge: float = 100.0) -> np.ndarray:
    """Least-squares symmetric metric M minimising
    ``sum (diff^T M diff - gold)^2 + ridge ||M||^2``; returns (d, d)."""
    if not examples:
        raise ValueError("need at least one example")
    rows, targets = [], []
    for example in examples:
        h = example.embeddings
        iu = np.triu_indices(h.shape[0], k=1)
        if iu[0].size == 0:
            continue
        diff = h[iu[0]] - h[iu[1]]
        rows.append((diff[:, :, None] * diff[:, None, :]).reshape(len(diff), -1))
        targets.append(example.distances[iu])
    features = np.concatenate(rows)
    gold = np.concatenate(targets)
    d = examples[0].embeddings.shape[1]
    gram = features.T @ features + ridge * np.eye(d * d)
    metric = np.linalg.solve(gram, features.T @ gold).reshape(d, d)
    return 0.5 * (metric + metric.T)


def metric_rank_projection(metric: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-``rank`` PSD factor B of the metric: top eigenpairs,
    negative eigenvalues clipped.  Returns (d, rank)."""
    if rank < 1 or rank > metric.shape[0]:
        raise ValueError("rank out of range")
    eigenvalues, eigenvectors = np.linalg.eigh(metric)
    order = np.argsort(eigenvalues)[::-1][:rank]
    scales = np.sqrt(np.clip(eigenvalues[order], 0.0, None))
    return eigenvectors[:, order] * scales


def pooled_distance_spearman(projection: np.ndarray,
                             examples: Sequence[ProbeExample],
                             shuffle_gold: bool = False,
                             rng: np.random.Generator | None = None) -> float:
    """Spearman correlation of probed vs gold distances, pooled over all
    word pairs of all sentences.  ``shuffle_gold=True`` permutes the
    pooled gold vector globally, giving a permutation null of ~0."""
    from scipy import stats

    predictions, golds = [], []
    for example in examples:
        z = example.embeddings @ projection
        iu = np.triu_indices(z.shape[0], k=1)
        if iu[0].size == 0:
            continue
        predictions.append(((z[iu[0]] - z[iu[1]]) ** 2).sum(axis=-1))
        golds.append(example.distances[iu])
    pooled_gold = np.concatenate(golds)
    if shuffle_gold:
        if rng is None:
            raise ValueError("shuffle_gold requires an rng")
        pooled_gold = rng.permutation(pooled_gold)
    rho = stats.spearmanr(np.concatenate(predictions), pooled_gold).statistic
    return float(rho)
