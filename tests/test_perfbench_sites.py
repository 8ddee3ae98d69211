"""The benchmark's patch sites still name callables of the package.

``perfbench/tracing.py`` wraps each ``(owner, attribute)`` in its ``SITES``
and predicts, per workload, which spans record calls (``PREDICTED_CALLS``);
a site that a rename left behind, or a call path that moved, shows up there
only as a failed self-check under ``--trace 1``.  These tests read the
benchmark's files without importing them as modules (nothing is written
next to them) and run the same checks here.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str) -> dict:
    """The namespace that running ``perfbench/<name>.py`` leaves behind."""
    path = PERFBENCH / f"{name}.py"
    namespace = {"__name__": f"perfbench_{name}"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_every_tracing_patch_site_resolves_to_a_callable():
    sites = load("tracing")["SITES"]
    assert sites
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", ["profit_finetune", "plain_finetune", "cli_pipeline"])
def test_every_workload_passes_the_trace_self_check(name, tmp_path):
    tracing, workloads = load("tracing"), load("workloads")
    workload = workloads["make"](name, 0, tmp_path)
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        workload.setup()
        workload.round()
    finally:
        tracer.uninstall()
    assert tracing["self_check"](tracer, name) == []
