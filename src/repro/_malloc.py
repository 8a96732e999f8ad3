"""Process memory policy: keep freed heap memory for the next step.

A training step (Eq. 16's gradient-descent loop) and a decode step both
allocate the same multi-megabyte NumPy temporaries every time they run:
autograd activations and gradients, attention scores, gathered K/V, FFN
hiddens.  glibc's malloc serves requests above its mmap threshold
(128 KiB, raised only by frees of larger mmapped chunks) with a fresh
``mmap`` and gives the pages back on ``free``, and it trims the heap's
top once more than its trim threshold sits free there.  Either way the
next step faults the same pages back in from the kernel, zeroed; a
``train`` step spent over a third of its time there (measurements in
docs/ARCHITECTURE.md, "Process memory policy").

:func:`keep_freed_memory` raises both thresholds once, for the process,
when ``import repro`` runs: requests up to 32 MiB come from the heap,
and the heap is never trimmed between steps, so a freed buffer serves
the next step's request of the same size.  No numeric result changes,
but ``np.empty`` now hands back recycled rather than freshly zeroed
memory more often (it never promised either).

It acts only where the C library is glibc (Linux), and not at all when
the environment already tunes glibc's malloc
(``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or
``glibc.malloc.*`` in ``GLIBC_TUNABLES``), which is also how to opt
out.
"""

from __future__ import annotations

import ctypes
import os
import warnings

# mallopt parameter numbers from glibc's <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: Largest mmap threshold glibc accepts on 64-bit (``HEAP_MAX_SIZE / 2``).
MMAP_THRESHOLD = 32 * 1024 * 1024
#: High enough that the heap never shrinks between steps.
TRIM_THRESHOLD = 2**31 - 1

_ENV_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _environment_tunes_malloc() -> bool:
    """True when the environment already sets glibc's malloc thresholds."""
    return (any(name in os.environ for name in _ENV_SETTINGS)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""))


def _glibc() -> bool:
    """True when the C library is glibc (``confstr`` fails elsewhere)."""
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds; True when both were set.

    Both are set because setting either one turns off glibc's dynamic
    threshold, and the trim threshold alone leaves every request above
    128 KiB on ``mmap``.  Returns False, changing nothing, off glibc or
    when the environment already tunes malloc.  A threshold that glibc
    refuses is reported with a ``RuntimeWarning``.
    """
    if not _glibc() or _environment_tunes_malloc():
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # The mmap threshold first: if glibc refuses it, the trim threshold
    # stays unset too and glibc keeps its dynamic thresholds.
    ok = (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
          and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
    if not ok:
        warnings.warn("glibc refused the malloc thresholds; freed memory "
                      "goes back to the kernel", RuntimeWarning, stacklevel=2)
    return ok
