"""Importing mjae on glibc keeps freed heap pages in the process: arrays of a
training step's size are reused from the heap instead of being faulted in
again every step. A process started with its own malloc settings keeps them.

Each case runs in a fresh interpreter, so the malloc state is that of a
process that has just imported mjae."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mjae

# eight (512, 64) float64 arrays (256 KiB each) allocated, written and freed
# per step, as a batch-512 step of the score toy does; prints the minor page
# faults of 50 steps after 5 warm ones
STEPS = """
import resource
import numpy as np
import mjae

def step():
    arrays = [np.empty((512, 64)) for _ in range(8)]
    for a in arrays:
        a.fill(1.0)

for _ in range(5):
    step()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


def _on_glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(not _on_glibc(), reason="the malloc setting is glibc's")


def _step_faults(**malloc_env):
    """Minor faults of ``STEPS`` in a fresh interpreter whose environment holds
    no malloc setting but ``malloc_env``."""
    env = {k: v for k, v in os.environ.items()
           if k != "GLIBC_TUNABLES" and not (k.startswith("MALLOC_") and k.endswith("_"))}
    env.update(malloc_env, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(mjae.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", STEPS], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return int(proc.stdout)


def test_step_sized_arrays_are_reused_without_page_faults():
    assert _step_faults() == 0


@pytest.mark.parametrize("malloc_env", [
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
], ids=["MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"])
def test_process_malloc_settings_are_left_alone(malloc_env):
    # a 128 KiB trim threshold hands the freed arrays back every step, so each
    # step faults at least one array's 64 pages in again
    assert _step_faults(**malloc_env) >= 50 * 64
