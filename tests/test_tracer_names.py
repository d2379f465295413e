"""Every name that the benchmark's tracer patches resolves in the package.

``perfbench/spans.py`` wraps library callables by name (its ``TRACED``
table) and counts calls of lattice methods (its ``COUNTED`` table).  A
renamed or deleted callable would otherwise show only in a traced benchmark
run.  The tracer is installed here and always uninstalled again.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    """The object that ``fppgeo.<module_name>.<attr>`` names; AttributeError if none."""
    obj = importlib.import_module(f"fppgeo.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_and_counted_name_resolves_and_is_patched():
    spans = _load_spans()
    entries = [(module, attr) for _, module, attr, _ in spans.TRACED]
    entries += [(module, attr) for _, module, attr in spans.COUNTED]
    originals = [_resolve(module, attr) for module, attr in entries]
    recorder = spans.Recorder()
    try:
        recorder.install()
        patched = [_resolve(module, attr) for module, attr in entries]
    finally:
        recorder.uninstall()
    unpatched = [f"{module}.{attr}" for (module, attr), before, during
                 in zip(entries, originals, patched) if during is before]
    assert unpatched == []
    assert all(_resolve(module, attr) is before
               for (module, attr), before in zip(entries, originals))
