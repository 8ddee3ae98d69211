"""Pin numpy's BLAS to one thread.

A threaded BLAS splits a large matmul into blocks whose partial sums are
added in an order that depends on the thread count, so the same run gives
different last bits at 1 and at 2 threads.  PROFIT's sign gate
(``omega < 0``) turns those last bits into different fine-tuned weights.
``profit`` therefore calls ``pin_one_thread`` when it is imported, whatever
``OPENBLAS_NUM_THREADS`` says, which makes every result independent of the
environment's thread setting and saves the worker threads' CPU.

``mlp.forward`` still uses a second CPU, from one Python worker thread that
runs the second half of a large input's row chunks through every layer,
each product a single-thread BLAS call of its own.  Each output row is then
summed by one thread in the order of one whole-input call, so the bits stay
those of one thread (the chunk rule is in ``mlp.forward``).  The worker
lives for one call: it starts with the call and is joined before the call
returns or raises, so no thread outlives a call, none spins between
products as OpenBLAS's own threads do, and none crosses a fork.

The setter is looked up through numpy's own extension module, whose handle
also resolves the symbols of the OpenBLAS it links (the ``scipy_openblas``
build bundled with numpy wheels, or a system OpenBLAS).  A BLAS that exports
no such setter (MKL, Accelerate) is left as it is.
"""

import ctypes

try:
    from numpy._core import _multiarray_umath as _numpy_ext
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _numpy_ext

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _symbol(name: str):
    """The OpenBLAS function ``<prefix>name<suffix>`` numpy links, or None."""
    try:
        lib = ctypes.CDLL(_numpy_ext.__file__)
    except OSError:
        return None
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def pin_one_thread() -> bool:
    """Set numpy's OpenBLAS to one thread; False when no setter is exported."""
    setter = _symbol("set_num_threads")
    if setter is None:
        return False
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)
    return True


def thread_count() -> int | None:
    """The thread count numpy's OpenBLAS uses now, or None when it is not OpenBLAS."""
    getter = _symbol("get_num_threads")
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def core_name() -> str | None:
    """The kernel family numpy's OpenBLAS runs, such as ``SkylakeX``; None for another BLAS."""
    getter = _symbol("get_corename")
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_char_p
    return getter().decode()
