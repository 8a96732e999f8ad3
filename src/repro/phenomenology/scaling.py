"""Scaling laws (§3-§4): sweeps over model/data size and power-law fits.

Regenerates the Figure-2 series — test loss versus parameters, tokens, and
compute — at laptop scale, and fits both simple power laws and the joint
Eq. 4 ansatz ``L(P, D) = [(P_c / P)^(alpha_P / alpha_D) + D_c / D]^alpha_D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core import TransformerConfig, TransformerLM
from ..data.corpus import Corpus
from ..train.trainer import train_lm_on_stream
from .compute import training_flops


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


@dataclass
class PowerLawFit:
    """L ~ coefficient * x^(-exponent) (+ floor), with log-space R^2."""

    exponent: float
    coefficient: float
    floor: float
    r_squared: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.floor + self.coefficient * np.asarray(x, dtype=np.float64) ** (
            -self.exponent
        )


def fit_power_law(x: Sequence[float], loss: Sequence[float],
                  fit_floor: bool = False) -> PowerLawFit:
    """Least-squares power-law fit.

    Without a floor this is linear regression in log-log space (the
    straight lines of Figure 2); with ``fit_floor=True`` an irreducible
    loss term is fit by ``scipy.optimize.curve_fit``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(loss, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("need matching x/loss arrays with >= 2 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit requires positive values")

    if not fit_floor:
        slope, intercept = np.polyfit(np.log(x), np.log(y), deg=1)
        predicted = slope * np.log(x) + intercept
        ss_res = float(((np.log(y) - predicted) ** 2).sum())
        ss_tot = float(((np.log(y) - np.log(y).mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return PowerLawFit(exponent=-slope, coefficient=float(np.exp(intercept)),
                           floor=0.0, r_squared=r2)

    from scipy import optimize

    def model(x_, c, alpha, floor):
        return floor + c * x_ ** (-alpha)

    p0 = (y.max() * x.min() ** 0.1, 0.1, max(y.min() * 0.5, 1e-6))
    params, _cov = optimize.curve_fit(model, x, y, p0=p0, maxfev=20000,
                                      bounds=([1e-12, 0.0, 0.0], [np.inf] * 3))
    predicted = model(x, *params)
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(exponent=float(params[1]), coefficient=float(params[0]),
                       floor=float(params[2]), r_squared=r2)


@dataclass
class JointFit:
    """Parameters of the Eq. 4 ansatz plus fit quality."""

    alpha_p: float
    alpha_d: float
    p_c: float
    d_c: float
    r_squared: float

    def predict(self, params: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        tokens = np.asarray(tokens, dtype=np.float64)
        inner = (self.p_c / params) ** (self.alpha_p / self.alpha_d) + self.d_c / tokens
        return inner**self.alpha_d


def fit_joint_ansatz(params: Sequence[float], tokens: Sequence[float],
                     loss: Sequence[float]) -> JointFit:
    """Fit Eq. 4 to an irregular grid of (P, D, L) observations."""
    p = np.asarray(params, dtype=np.float64)
    d = np.asarray(tokens, dtype=np.float64)
    y = np.asarray(loss, dtype=np.float64)
    if not (p.shape == d.shape == y.shape) or p.size < 4:
        raise ValueError("need >= 4 matching (P, D, L) observations")

    from scipy import optimize

    def model(pd, log_pc, log_dc, alpha_p, alpha_d):
        pp, dd = pd
        inner = (np.exp(log_pc) / pp) ** (alpha_p / alpha_d) + np.exp(log_dc) / dd
        return inner**alpha_d

    p0 = (np.log(np.median(p)), np.log(np.median(d)), 0.3, 0.3)
    fitted, _cov = optimize.curve_fit(
        model, (p, d), y, p0=p0, maxfev=50000,
        bounds=([-50, -50, 1e-3, 1e-3], [50, 50, 5.0, 5.0]),
    )
    predicted = model((p, d), *fitted)
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return JointFit(alpha_p=float(fitted[2]), alpha_d=float(fitted[3]),
                    p_c=float(np.exp(fitted[0])), d_c=float(np.exp(fitted[1])),
                    r_squared=r2)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepPoint:
    """One trained model in a scaling sweep."""

    num_params: int
    num_tokens: int
    steps: int
    flops: float
    train_loss: float
    test_loss: float
    d_model: int
    num_layers: int


def train_point(
    corpus: Corpus,
    d_model: int,
    num_layers: int,
    num_heads: int,
    seq_len: int,
    steps: int,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
) -> tuple[TransformerLM, SweepPoint]:
    """Train one transformer on ``corpus`` and evaluate held-out loss.

    With ``checkpoint_dir`` set the run writes resumable snapshots (and
    resumes from them if present), making a multi-point sweep
    restartable after a mid-sweep kill — each point gets its own
    subdirectory keyed on architecture and data size, so a re-run skips
    straight past every point whose training already finished.
    """
    config = TransformerConfig(
        vocab_size=corpus.vocab_size, max_seq_len=seq_len,
        d_model=d_model, num_heads=num_heads, num_layers=num_layers,
    )
    model = TransformerLM(config, rng=seed)
    ckpt_kwargs = {}
    if checkpoint_dir is not None:
        point_dir = (Path(checkpoint_dir) /
                     f"p{d_model}x{num_layers}h{num_heads}"
                     f"-d{corpus.num_train_tokens}-s{seed}")
        ckpt_kwargs = dict(
            checkpoint_dir=point_dir,
            checkpoint_every=checkpoint_every or max(steps // 4, 1),
            resume=True,
        )
    history = train_lm_on_stream(
        model, corpus.train_ids, num_steps=steps,
        batch_size=batch_size, seq_len=seq_len, lr=lr, seed=seed,
        **ckpt_kwargs,
    )
    test_loss = model.cross_entropy_on(corpus.test_ids, seq_len=seq_len)
    tokens_seen = min(steps * batch_size * seq_len, corpus.num_train_tokens * 50)
    point = SweepPoint(
        num_params=model.num_parameters(),
        num_tokens=corpus.num_train_tokens,
        steps=steps,
        flops=training_flops(model.num_parameters(), tokens_seen),
        train_loss=float(np.mean(history.losses[-10:])),
        test_loss=test_loss,
        d_model=d_model,
        num_layers=num_layers,
    )
    return model, point


def model_size_sweep(
    corpus: Corpus,
    architectures: Sequence[tuple[int, int, int]],
    seq_len: int = 32,
    steps: int = 300,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
    checkpoint_dir=None,
) -> list[SweepPoint]:
    """Vary P at fixed D: train each (d_model, layers, heads) architecture.

    ``checkpoint_dir`` makes the whole ladder restartable; see
    :func:`train_point`.
    """
    return [
        train_point(corpus, d_model, layers, heads, seq_len, steps,
                    batch_size=batch_size, lr=lr, seed=seed,
                    checkpoint_dir=checkpoint_dir)[1]
        for d_model, layers, heads in architectures
    ]


def data_size_sweep(
    corpus: Corpus,
    token_counts: Sequence[int],
    architecture: tuple[int, int, int] = (32, 2, 4),
    seq_len: int = 32,
    steps: int = 300,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
    checkpoint_dir=None,
) -> list[SweepPoint]:
    """Vary D at fixed P: train the same architecture on corpus prefixes.

    ``checkpoint_dir`` makes the whole ladder restartable; see
    :func:`train_point`.
    """
    d_model, layers, heads = architecture
    points = []
    for count in token_counts:
        sub = corpus.subset(count)
        _model, point = train_point(sub, d_model, layers, heads, seq_len, steps,
                                    batch_size=batch_size, lr=lr, seed=seed,
                                    checkpoint_dir=checkpoint_dir)
        points.append(point)
    return points
