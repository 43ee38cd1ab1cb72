"""Every function that perfbench/spans.py wraps still exists in the package.

Tracer._rebind finds each (module, qualified name) of SPANNED and COUNTED
as an attribute of quadrings.<module>, or, for Class.method, in the class
__dict__.  A name deleted or renamed in the package breaks only a traced
benchmark run; this resolves every name the same way, reading spans.py as
it is.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = load_spans()
    names = [item for items in spans.SPANNED.values() for item in items]
    names += list(spans.COUNTED)
    assert names
    missing = []
    for mod, qual in names:
        home = importlib.import_module(f"quadrings.{mod}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(home, cls_name, None)
            found = isinstance(cls, type) and attr in vars(cls)
        else:
            found = callable(getattr(home, qual, None))
        if not found:
            missing.append(f"{mod}.{qual}")
    assert missing == []
