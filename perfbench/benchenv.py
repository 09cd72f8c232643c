"""Process settings every benchmark process applies before importing numpy.

- One BLAS thread.  The bytes of the program's artifacts depend on the BLAS
  thread count, so it must be fixed for the byte-identity checks, and a
  single thread is steadier on a shared machine.  It never exceeds nproc.
- A fixed glibc malloc policy: arrays up to 32 MiB come from the heap and
  the heap is never trimmed.  With glibc's adaptive defaults the heap is
  trimmed and regrown between operations; the number of page faults per
  ``train`` then varies between 30k and 160k, and identical operations
  differ by up to 50 % between processes.  The fixed policy removes that
  variation, and with it the page-fault cost a default process pays
  (about 10 to 25 % of a desk epoch).
- No ``.pyc`` writes, so every set-up compiles the package the same way.
"""

import ctypes
import ctypes.util
import os
import sys

BLAS_THREADS = 1
MMAP_THRESHOLD = 32 * 1024 * 1024   # glibc's largest allowed value
TRIM_THRESHOLD = 2 ** 31 - 1
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def apply() -> "dict[str, object]":
    """Apply the settings to this process (and the environment of its
    children); returns them for the environment record."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    malloc = "default"
    name = ctypes.util.find_library("c")
    if name:
        libc = ctypes.CDLL(name)
        if getattr(libc, "mallopt", None) is not None and \
                libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and \
                libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1:
            malloc = f"mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"
    return {"blas_threads_set": BLAS_THREADS, "malloc": malloc}
