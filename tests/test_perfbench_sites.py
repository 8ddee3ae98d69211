"""The benchmark's patch sites still name callables of the package.

``perfbench/tracing.py`` wraps each ``(owner, attribute)`` in its ``SITES``;
a site that a rename left behind shows up there only as a failed self-check
under ``--trace 1``.  This test reads that file without importing it as a
module (nothing is written next to it) and checks every site here.
"""

from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracing_patch_site_resolves_to_a_callable():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    sites = namespace["SITES"]
    assert sites
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
