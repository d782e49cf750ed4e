"""The traced benchmark wraps hpheat callables by module attribute name.

perfbench/spans.py lists those names; a refactor that renames or moves one
would otherwise only surface when a traced benchmark run fails.  This test
resolves every listed name the way the recorder does.
"""

import importlib
import importlib.util
import pathlib
import sys

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is created.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = _spans_module()
    missing = []
    for table in (spans.SPANNED, spans.COUNTED):
        for name, targets in table.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                leaf = attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = owner.__dict__.get(cls_name)
                if owner is None or not callable(vars(owner).get(leaf)):
                    missing.append(f"{name}: {module_name}.{attr}")
    assert not missing, missing
