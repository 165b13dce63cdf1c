"""LAPACK through ctypes, from the shared library that scipy ships.

scipy's `linalg/_flapack` extension links its LAPACK (OpenBLAS in the wheels)
and exports the routines.  This module loads that file with ctypes, without
importing `scipy.linalg`, which would cost about 0.35 s and 60 MB at start-up
(2-vCPU x86_64 VM) for the four routines the package calls.  The file is
found and loaded on the first call, not at import.

Every routine is looked up under scipy's `scipy_` prefix first and then under
its plain name (a LAPACK built without the prefix).  Integers are LP64, a
character argument's length trails as size_t, and every pointer argument is
declared `c_void_p`, so callers can build the pointers once and pass the same
`c_void_p` objects to every call, which ctypes converts fastest.  ctypes
releases the interpreter lock for the duration of each call.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os

_PTR, _SIZE = ctypes.c_void_p, ctypes.c_size_t


def c_ints(*values: int):
    """A ctypes int array holding `values`, and a pointer to each entry.

    The caller keeps the array alive for as long as it passes the pointers.
    """
    arr = (ctypes.c_int * len(values))(*values)
    base, step = ctypes.addressof(arr), ctypes.sizeof(ctypes.c_int)
    return arr, [_PTR(base + i * step) for i in range(len(values))]


@functools.cache
def library() -> ctypes.CDLL:
    """scipy's `linalg/_flapack` shared library, loaded once.

    Raises ImportError naming every path searched when the file is missing.
    """
    spec = importlib.util.find_spec("scipy")
    paths = [os.path.join(d, "linalg", "_flapack" + suffix)
             for d in (spec and spec.submodule_search_locations or ())
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in paths:
        if os.path.isfile(path):
            return ctypes.CDLL(path)
    where = ", ".join(paths) if paths else "scipy/linalg/_flapack (scipy is not installed)"
    raise ImportError(f"LAPACK library not found; searched {where}")


def _bind(name: str, argtypes: list, restype=None, required: bool = True):
    """`name` from `library()` with its signature declared.

    A routine the library lacks raises ImportError, or is None where not
    `required`.
    """
    lib = library()
    for symbol in ("scipy_" + name, name):
        if hasattr(lib, symbol):
            fn = getattr(lib, symbol)
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    if required:
        raise ImportError(f"{lib._name} exports neither scipy_{name} nor {name}")
    return None


@functools.cache
def zhetrd():
    """ZHETRD(UPLO, N, A, LDA, D, E, TAU, WORK, LWORK, INFO)."""
    return _bind("zhetrd_", [_PTR] * 10 + [_SIZE])


@functools.cache
def zhetrd_2stage():
    """ZHETRD_2STAGE(VECT, UPLO, N, A, LDA, D, E, TAU, HOUS2, LHOUS2, WORK, LWORK, INFO), or None.

    LAPACK >= 3.7 has it; an older library does not.
    """
    return _bind("zhetrd_2stage_", [_PTR] * 13 + [_SIZE, _SIZE], required=False)


@functools.cache
def dptsv():
    """DPTSV(N, NRHS, D, E, B, LDB, INFO)."""
    return _bind("dptsv_", [_PTR] * 7)


@functools.cache
def blas_threads_local():
    """OpenBLAS's `openblas_set_num_threads_local(n)`, or None.

    It sets the BLAS thread count of the calling thread only and returns the
    previous count, so other threads and the process-wide setting are left
    alone.  Other BLAS builds and older OpenBLAS releases lack it.
    """
    return _bind("openblas_set_num_threads_local", [ctypes.c_int], ctypes.c_int, required=False)
