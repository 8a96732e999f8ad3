"""What ``import repro`` does to the process it runs in.

Each test runs a fresh interpreter, since both properties are set once
per process: which modules the import loads, and glibc's malloc
thresholds (``repro._malloc``).
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import _malloc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
MALLOC_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                   "GLIBC_TUNABLES")


def _glibc_base_pages() -> bool:
    """glibc, and no huge pages that would hide the faults."""
    if not _malloc._glibc():
        return False
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            return "[always]" not in f.read()
    except OSError:
        return True


def run_child(script: str, **env_overrides) -> dict:
    """Run ``script`` in a fresh interpreter with ``src`` on its path and
    no malloc settings inherited; return the JSON it prints last."""
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_SETTINGS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_does_not_load_scipy():
    """SciPy is imported by the four functions that call it, on first use."""
    loaded = run_child(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))")
    assert loaded == []


# Ten rounds of a step's worth of temporaries: twenty 4 MB arrays
# allocated, touched and freed together.  80 MB freed at once exceeds
# any trim threshold glibc's dynamic rule can reach (64 MiB), so without
# the policy every round faults all of its pages again.  4 MB is below
# NumPy's 4 MiB huge-page advice, so the arrays fault in base pages.
_ROUNDS = r"""
import json, resource
import numpy as np
import repro
from repro import _malloc

nbytes, count = 4_000_000, 20
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    arrays = [np.ones(nbytes // 8) for _ in range(count)]
    del arrays
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults": faults,
                  "round_pages": count * -(-nbytes // resource.getpagesize()),
                  "applied": _malloc.keep_freed_memory()}))
"""

needs_glibc = pytest.mark.skipif(
    not _glibc_base_pages(),
    reason="the malloc policy acts on glibc only; huge pages hide faults")


@needs_glibc
def test_freed_memory_is_reused():
    """Only the first round faults its pages in (without the policy,
    all ten rounds do: ~195k faults)."""
    out = run_child(_ROUNDS)
    assert out["applied"] is True
    assert out["faults"] < 2 * out["round_pages"], out


@needs_glibc
@pytest.mark.parametrize("name, value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
])
def test_environment_malloc_settings_turn_the_policy_off(name, value):
    out = run_child(_ROUNDS, **{name: value})
    assert out["applied"] is False
    assert out["faults"] > 5 * out["round_pages"], out
