"""Joint 2D-topology / 3D-geometry diffusion-trajectory pretraining for
molecules: forward trajectory augmentation, a twin-encoder score network with
equivariant and invariant heads, combined score-matching + contrastive
training, reverse-SDE generation, and an evaluation/probe suite."""

import ctypes
import os

__version__ = "0.1.0"


def _keep_freed_pages():
    """Keep freed heap pages in the process on glibc.

    By default glibc serves step-sized arrays (a few hundred KiB) from fresh
    mappings or trims them off the heap top when they are freed, so every
    training step faults the same pages in again. Fixing both thresholds at
    their sliding ceiling keeps those pages for the next step. Nothing is
    set outside glibc, or when the process was started with its own malloc
    settings (``GLIBC_TUNABLES`` or a ``MALLOC_*_`` variable)."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):   # no confstr, name or value
        return
    if "GLIBC_TUNABLES" in os.environ or any(
            k.startswith("MALLOC_") and k.endswith("_") for k in os.environ):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD (-3) at the ceiling glibc's sliding threshold reaches
    # on 64-bit, and M_TRIM_THRESHOLD (-1) at twice it, as the sliding rule
    # sets it
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


_keep_freed_pages()
