"""Every clickrec function the benchmark traces must still exist.

``perfbench/spans.py`` wraps the ``(module, attribute)`` pairs it lists and
skips any a module does not have, so a renamed function would silently
read as a zero per-layer metric.  The file is only read here, never changed.
"""

import importlib
import runpy
from pathlib import Path

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))


def test_every_traced_name_resolves():
    listed = [(mod, attr) for mod, attr, _ in SPANS["SPANNED"] + SPANS["COUNTED"]]
    missing = [
        f"clickrec.{mod}.{attr}"
        for mod, attr in listed
        if not callable(getattr(importlib.import_module(f"clickrec.{mod}"), attr, None))
    ]
    assert listed and not missing
