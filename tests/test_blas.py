"""The one-thread BLAS pin applied when ``profit`` is imported."""

import os

import pytest

from profit import blas, mlp


@pytest.mark.skipif(blas.thread_count() is None, reason="numpy's BLAS is not OpenBLAS")
def test_import_pins_openblas_to_one_thread():
    assert blas.thread_count() == 1
    assert blas.pin_one_thread()


def test_core_name_is_a_nonempty_str_or_none():
    """The kernel family names the build ``mlp.forward``'s bit-exactness rules
    were checked on (SkylakeX); the log keeps it beside every run's results,
    with the CPUs this process may run on and whether grid blocks split."""
    name = blas.core_name()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(
        f"OpenBLAS core: {name}; CPU affinity: {cpus}; "
        f"forward splits blocks: {mlp._two_cpus_one_blas_thread()}"
    )
    assert name is None or (isinstance(name, str) and name)
    assert (name is None) == (blas.thread_count() is None)
