"""Fixed glibc heap thresholds, so freed graphs stay in the process.

Every training step and every forward outside ``no_grad`` builds a graph
of a few MB of numpy arrays and drops it all at once. glibc's default
policy hands the free top of the heap back to the kernel once it exceeds a
trim threshold, and moves that threshold (and the size above which blocks
are mapped on their own) with the largest mapped block freed so far.
Whether a dropped graph lies at the top of the heap depends on the heap's
layout, which changes from process to process with address-space
randomization and the string hash seed. Where it does, every step gives
its graph back and faults it in again on the next one: on a desk-size
serving loop, between none and about 1,700 minor page faults per request,
and requests up to a third slower, in the same program from one process to
the next. Fixed thresholds keep freed memory in the process in every
layout: blocks up to ``MMAP_THRESHOLD`` come from the heap, and the heap is
never trimmed, so the process keeps the high-water mark of its heap (which
its peak RSS holds anyway) and reuses it.

A user's own settings win: nothing is changed when the environment sets
``MALLOC_TRIM_THRESHOLD_``, ``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TOP_PAD_``
or a ``glibc.malloc.*`` tunable.
"""

from __future__ import annotations

import ctypes
import os

MMAP_THRESHOLD = 32 << 20   # glibc's ceiling for this threshold on 64-bit
TRIM_THRESHOLD = -1         # never trim (mallopt(3))
_M_TRIM_THRESHOLD = -1      # mallopt parameter numbers, from malloc.h
_M_MMAP_THRESHOLD = -3
_USER_SETTINGS = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_")


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


def fix_thresholds() -> bool:
    """Set both thresholds on glibc unless the environment sets malloc
    options; True when they were set."""
    if not _on_glibc():
        return False
    if (any(name in os.environ for name in _USER_SETTINGS)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
