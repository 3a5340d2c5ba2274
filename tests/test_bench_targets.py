"""The traced benchmark wraps latentscope functions by module and name; a
rename in the library would make its traced run fail, so check every target
here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    targets = load_spans().targets()
    assert targets
    missing = [f"{module}.{func}" for module, func, _, _ in targets
               if not callable(getattr(importlib.import_module(module), func, None))]
    assert missing == []
