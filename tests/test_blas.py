"""The one-thread BLAS pin applied when ``profit`` is imported."""

import pytest

from profit import blas


@pytest.mark.skipif(blas.thread_count() is None, reason="numpy's BLAS is not OpenBLAS")
def test_import_pins_openblas_to_one_thread():
    assert blas.thread_count() == 1
    assert blas.pin_one_thread()


def test_core_name_is_a_nonempty_str_or_none():
    """The kernel family names the build ``mlp.forward``'s bit-exactness rules
    were checked on (SkylakeX); the log keeps it beside every run's results."""
    name = blas.core_name()
    print(f"OpenBLAS core: {name}")
    assert name is None or (isinstance(name, str) and name)
    assert (name is None) == (blas.thread_count() is None)
