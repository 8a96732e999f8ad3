"""Process-wide compute dtype policy for the NumPy stack.

Every hot path in the repo — autograd tensors, the fused attention
kernels, parameter initialization, and both KV-cache backends — is
memory-bandwidth-bound, so the array dtype is a direct ~2x lever on
throughput and KV bytes.  This module is the single source of truth for
which floating dtype those paths allocate in.

Resolution order (first match wins):

1. an explicit ``dtype=`` argument at the call site
   (``Tensor(x, dtype=...)``, ``PagedKVCache(..., dtype=...)``);
2. the per-model knob ``TransformerConfig(dtype="float32")``, applied
   as a :func:`dtype_scope` around model construction — parameters keep
   that dtype for the model's lifetime, so forwards, gradients, and KV
   pools follow it naturally;
3. the innermost active :func:`dtype_scope` context manager;
4. the process-global default set by :func:`set_default_dtype`
   (``float64`` unless overridden — the seed behaviour).

Only ``float32`` and ``float64`` are supported compute dtypes.  Paths
that are *pinned* to float64 regardless of policy: finite-difference
gradchecks (``autograd/gradcheck.py``), token sampling
(``core/sampling.py`` — keeps RNG consumption and tie-breaks
dtype-independent), and the float64-accumulation of softmax sums and
normalizers inside reductions (see :func:`f64_sum`).  Index and
bookkeeping arrays (KV lengths, block tables, free lists) stay int64
regardless of the policy.  See ``docs/DTYPE.md`` for the full story.
"""

from contextlib import contextmanager

import numpy as np

__all__ = [
    "SUPPORTED_DTYPES",
    "default_dtype",
    "dtype_scope",
    "f64_sum",
    "resolve_dtype",
    "set_default_dtype",
]

#: The compute dtypes the policy accepts, in preference order.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_DEFAULT_DTYPE = np.dtype(np.float64)


def _validate(dtype) -> np.dtype:
    """Normalize ``dtype`` to a ``np.dtype`` and reject unsupported ones."""
    try:
        dt = np.dtype(dtype)
    except TypeError as error:
        raise ValueError(f"unsupported compute dtype {dtype!r}") from error
    if dt not in SUPPORTED_DTYPES:
        names = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported compute dtype {dt.name!r}; expected one of: {names}")
    return dt


def default_dtype() -> np.dtype:
    """The currently active default compute dtype.

    This is what new parameters, KV pools, and policy-following arrays
    are allocated as when no explicit override is given.  It reflects
    the innermost :func:`dtype_scope` if one is active, otherwise the
    process-global default.
    """
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the process-global default compute dtype; returns the old one.

    Accepts anything ``np.dtype`` does (``"float32"``, ``np.float32``,
    a ``np.dtype`` instance).  Raises ``ValueError`` for anything other
    than float32/float64.  Prefer :func:`dtype_scope` for bounded
    overrides — this mutates global state for the rest of the process.
    """
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _validate(dtype)
    return previous


@contextmanager
def dtype_scope(dtype):
    """Context manager: temporarily make ``dtype`` the default.

    ``dtype_scope(None)`` is a no-op (keeps the current policy), which
    lets callers thread an optional per-model knob without branching::

        with dtype_scope(config.dtype):   # config.dtype may be None
            model = build(...)

    Scopes nest; the previous default is restored on exit even if the
    body raises.  The policy is process-global, not thread-local — set
    scopes up at construction time, not concurrently with serving.
    """
    global _DEFAULT_DTYPE
    if dtype is None:
        yield _DEFAULT_DTYPE
        return
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _validate(dtype)
    try:
        yield _DEFAULT_DTYPE
    finally:
        _DEFAULT_DTYPE = previous


def resolve_dtype(dtype=None) -> np.dtype:
    """Resolve an optional explicit ``dtype`` against the active policy.

    ``None`` means "follow the policy" and returns
    :func:`default_dtype`; anything else is validated and returned.
    This is the helper call sites use to implement resolution step 1
    (explicit argument) falling back to steps 3-4 (scope / global).
    """
    if dtype is None:
        return _DEFAULT_DTYPE
    return _validate(dtype)


def f64_sum(a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """Sum ``a`` with a float64 accumulator, returned in ``a``'s dtype.

    Softmax denominators and attention normalizers sum many small
    positive terms; accumulating them in float32 loses enough precision
    to perturb sampling tie-breaks and blocked-kernel equivalence.  This
    helper keeps the *accumulation* in float64 even when activations are
    float32, then casts the (well-conditioned) result back.  For float64
    input it compiles to the exact same pairwise summation as a plain
    ``a.sum(...)`` — bit-identical to the seed code path.
    """
    if a.dtype == np.float64:
        return a.sum(axis=axis, keepdims=keepdims)
    return a.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)
