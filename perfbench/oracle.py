"""Output checks, run in the load generator's process after the timed windows.

The reference oracle is the full ``TransformerLM.forward`` pass: one
pass per finished (or cut-off) sequence re-scores every position, and
each generated token must be the one that position's logits select.

``TIE_TOL``: decode reads cached K/V through an einsum while the
forward pass multiplies whole matrices, so the two sum in different
orders and a float64 logit can differ by ~1e-15.  A token is accepted
as a near-tie when it misses by less than 1e-9, far above that
round-off and far below any real decision margin; such ties are
counted and reported, never silently dropped.
"""

from __future__ import annotations

import numpy as np

TIE_TOL = 1e-9


class Oracle:
    """Re-scores completions against one full forward pass each."""

    def __init__(self, model):
        self.model = model
        self.checked = 0        # tokens compared
        self.ties = 0           # accepted as near-ties (see TIE_TOL)
        self.mismatches = []    # human-readable failures

    def _logits(self, prompt, completion) -> np.ndarray:
        """Logits that chose each completion token, one row per token."""
        from repro.autograd import no_grad
        seq = np.asarray(list(prompt) + list(completion[:-1]), dtype=np.int64)
        with no_grad():
            logits = self.model.forward(seq).data[0]
        return logits[len(prompt) - 1:]

    def greedy(self, label, prompt, completion) -> None:
        """Each token must be the argmax of its position's logits."""
        if not completion:
            return
        for i, (row, token) in enumerate(zip(self._logits(prompt, completion),
                                             completion)):
            self.checked += 1
            best = int(np.argmax(row))
            if token == best:
                continue
            if row[token] >= row[best] - TIE_TOL:
                self.ties += 1
            else:
                self.mismatches.append(
                    f"{label} token {i}: got {token}, argmax {best}")

    def sampled(self, label, prompt, completion, sampling) -> None:
        """Each token must be the inverse-CDF draw replayed with the
        request's own seed from :func:`repro.core.sampling.sampling_probs`."""
        from repro.core.sampling import sampling_probs
        if not completion:
            return
        rng = np.random.default_rng(sampling["seed"])
        for i, (row, token) in enumerate(zip(self._logits(prompt, completion),
                                             completion)):
            self.checked += 1
            probs = sampling_probs(row, temperature=sampling["temperature"],
                                   top_k=sampling["top_k"])
            cdf = np.cumsum(probs)
            cdf /= cdf[-1]
            u = rng.random()
            drawn = int(np.searchsorted(cdf, u, side="right"))
            if token == drawn:
                continue
            low = cdf[token - 1] if token > 0 else 0.0
            if low - TIE_TOL <= u < cdf[token] + TIE_TOL:
                self.ties += 1
            else:
                self.mismatches.append(
                    f"{label} token {i}: got {token}, replayed draw {drawn}")


def first_losses_match(seed: int, losses, steps: int = 3) -> bool:
    """The first training losses equal the composed (``fused=False``) path's.

    Fused attention is bit-identical to the composed graph in float64,
    so this is an exact comparison.
    """
    from common import MODEL_SEED, TRAIN_LR, train_batches, train_config
    from repro.core import TransformerLM
    from repro.nn.optim import AdamW
    from repro.train import Trainer

    model = TransformerLM(train_config(fused=False), rng=MODEL_SEED)
    batch_fn, rng = train_batches(seed)
    trainer = Trainer(model, AdamW(model.parameters(), lr=TRAIN_LR),
                      batch_fn, rng=rng)
    return trainer.run(steps).losses == list(losses[:steps])
