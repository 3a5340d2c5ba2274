"""The traced benchmark wraps latentscope functions by module and name; a
rename in the library, or a stage that stops calling one of them, would make
its traced run fail, so check both here."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return _load("spans")


def test_every_target_resolves():
    targets = load_spans().targets()
    assert targets
    missing = [f"{module}.{func}" for module, func, _, _ in targets
               if not callable(getattr(importlib.import_module(module), func, None))]
    assert missing == []


def _latentscope_bindings() -> list[tuple[object, dict]]:
    return [(mod, dict(vars(mod))) for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "latentscope" or name.startswith("latentscope."))]


def test_traced_tiny_run_reaches_every_span(tmp_path):
    """The seven stages of the `tiny` workload, run as bench/child.py runs
    them under the bench's tracer, reach every span its "traced run reached
    every layer" gate requires: among them one `embed_once` call per
    embedding method."""
    from latentscope.cli import main
    from latentscope.config import write_config
    from latentscope.pipeline import STAGES

    spans, workloads = load_spans(), _load("workloads")
    spec = workloads.WORKLOADS["tiny"]
    config = tmp_path / "tiny.cfg"
    write_config(workloads.build_config(spec, 3), str(config))
    saved = _latentscope_bindings()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        codes = [main([stage, "--config", str(config), "--out",
                       str(tmp_path / "run"), "--seed", "3"])
                 for stage in STAGES]
    finally:  # undo the tracer's wrapping for the tests that follow
        for mod, names in saved:
            for attr, value in names.items():
                if vars(mod).get(attr) is not value:
                    setattr(mod, attr, value)
    assert codes == [0] * len(STAGES)
    assert spans.missing_spans(tracer.spans, spec) == []
