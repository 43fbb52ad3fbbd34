"""The benchmark's traced run wraps named defectwalk functions; a refactor
that renames or moves one of them breaks that run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    for owner_name, attr in tracing.TARGETS:
        module, _, cls = owner_name.partition(".")
        owner = importlib.import_module(f"defectwalk.{module}")
        if cls:
            owner = getattr(owner, cls)
        # the tracer looks targets up with vars(), so inherited or
        # re-exported names do not count
        assert callable(vars(owner).get(attr)), f"{owner_name}.{attr}"


def test_reference_count_signature():
    # perfbench/workloads.reference_counts calls this in a child process
    from defectwalk import halfline

    count = halfline.mass_point_count(0.5 + 0.5j, 0.5 + 0.5j, grid=4096)
    assert type(count) is int and count == 1
