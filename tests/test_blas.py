"""The one-thread BLAS pin applied when ``profit`` is imported."""

import os

import pytest

from profit import blas, mlp, toy


@pytest.mark.skipif(blas.thread_count() is None, reason="numpy's BLAS is not OpenBLAS")
def test_import_pins_openblas_to_one_thread():
    assert blas.thread_count() == 1
    assert blas.pin_one_thread()


def test_core_name_is_a_nonempty_str_or_none():
    """The kernel family names the build ``mlp.forward``'s bit-exactness rules
    were checked on (SkylakeX); the log keeps it beside every run's results,
    with the CPUs this process may run on and whether grid forwards run on
    two threads."""
    name = blas.core_name()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(
        f"OpenBLAS core: {name}; CPU affinity: {cpus}; "
        f"forward runs chunks on two threads: {mlp._two_cpus_one_blas_thread()}"
    )
    assert name is None or (isinstance(name, str) and name)
    assert (name is None) == (blas.thread_count() is None)


@pytest.mark.parametrize("width", [32, 500])
def test_a_blas_without_the_openblas_symbols(width, monkeypatch):
    """MKL or Accelerate export none of the symbols: nothing is pinned or
    reported, a grid forward runs on one thread and keeps its bits (at 500
    wide its chunks run on two threads with the real symbols on two CPUs)."""
    model = mlp.init_model((2, width, width, 1), toy.make_rng(0))
    grid = toy.evaluation_grid(toy.ORIGINAL_DOMAIN)
    real = mlp.forward(model, grid)
    monkeypatch.setattr(blas, "_symbol", lambda name: None)
    assert blas.pin_one_thread() is False
    assert blas.thread_count() is None and blas.core_name() is None
    assert mlp._two_cpus_one_blas_thread() is False
    assert mlp.forward(model, grid).tobytes() == real.tobytes()
