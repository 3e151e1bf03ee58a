"""The layer names the benchmark's tracer wraps (``perfbench/spans.py``
``TRACED``) must exist where it looks for them: a helper moved or renamed
out of a traced module would otherwise crash only the traced benchmark
run."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans",
    Path(__file__).parent.parent / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracer = spans.Tracer()
    places = {name: tracer._owners(name) for name in spans.TRACED}
    assert all(places.values())
    try:
        tracer.install()
        for owners in places.values():
            for owner, attr, original in owners:
                assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owners in places.values():
        for owner, attr, original in owners:
            assert owner.__dict__[attr] is original
