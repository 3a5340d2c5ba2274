"""Spans around latentscope's public functions, and their reduction to
per-layer metrics.

The tracer lives in the benchmark, not in the program: `install` replaces
each target function in every `latentscope.*` module namespace that bound it
(`pipeline` imports `embed_once` and `lrcp_grid` by name, `attribution`
imports `rf_fit` and `forward`, `autoencoder` imports `ssim3d_with_grad`),
so a call is recorded whichever way the caller reached it. Spans are kept in
memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("L1", "L2", "L3", "T1", "T2", "T3")
CONV_SPANS = ("nn.conv_fwd", "nn.conv_bwd")
WRITE_SPANS = ("fileio.write_csv", "fileio.save_volume", "fileio.save_atlas",
               "fileio.save_cohort", "fileio.save_model")
EVAL_SPAN = "autoencoder.forward"


class Tracer:
    """Records (id, name, start, end, parent) spans of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recording one span per call; `attrs(args, kwargs, result)`
        adds fields to the span after its end time is taken."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


# ---------------------------------------------------------------------------
# computed conv operation counts

@functools.cache
def _conv_layer_names():
    from latentscope.autoencoder import default_architecture

    names = {}
    for i, spec in enumerate(default_architecture()):
        label = f"L{i + 1}" if spec.kind == "conv3d" else f"T{i - 2}"
        names[(spec.kind, spec.in_channels, spec.out_channels)] = label
    return names


def _conv_attrs(kind: str, backward: bool):
    """Span fields for one conv call: the layer, identified by its kind and
    channel pair, plus FLOPs and bytes computed from the argument shapes.

    A 3x3x3 conv does 2*27*Ci*Co multiply-adds per output voxel (per input
    voxel for the transposed conv); backward does it twice (input and weight
    gradients). Bytes are the compulsory traffic: every operand read once and
    every result written once.
    """
    def attrs(args, kwargs, result):
        if backward:
            g, x, w = args[:3]
        else:
            x, w = args[:2]
        ci, co = (w.shape[1], w.shape[0]) if kind == "conv3d" else w.shape[:2]
        if kind == "conv3d":
            grid = g.shape if backward else result.shape
        else:
            grid = x.shape
        n, _, sx, sy, sz = grid
        flop = 2 * 27 * ci * co * n * sx * sy * sz * (2 if backward else 1)
        if backward:
            elems = g.size + 2 * x.size + 2 * w.size
        else:
            elems = x.size + w.size + result.size
        layer = _conv_layer_names()[(kind, int(ci), int(co))]
        return {"layer": layer, "flop": int(flop),
                "bytes": int(elems * x.itemsize)}
    return attrs


def _bytes_of_path_arg(index: int):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[index])}


def targets():
    """(module, function, span name, attrs) of every traced function; `None`
    attrs records timing only. Every library function a pipeline stage calls
    for real work is here, so that `pipeline.self_s` holds only the stage
    code's own work (locks, stamps, CSV row building) and small helpers."""
    return [
        ("latentscope.nn", "conv3d_forward", "nn.conv_fwd",
         _conv_attrs("conv3d", False)),
        ("latentscope.nn", "conv3d_backward", "nn.conv_bwd",
         _conv_attrs("conv3d", True)),
        ("latentscope.nn", "conv_transpose3d_forward", "nn.conv_fwd",
         _conv_attrs("conv_transpose3d", False)),
        ("latentscope.nn", "conv_transpose3d_backward", "nn.conv_bwd",
         _conv_attrs("conv_transpose3d", True)),
        ("latentscope.autoencoder", "train", "autoencoder.train", None),
        ("latentscope.autoencoder", "loss_and_gradients",
         "autoencoder.loss_and_gradients", None),
        ("latentscope.autoencoder", "extract_activations",
         "autoencoder.extract_activations", None),
        ("latentscope.autoencoder", "forward", EVAL_SPAN,
         lambda a, k, r: {"mode": k.get("mode", a[2] if len(a) > 2 else "eval")}),
        ("latentscope.ssim", "ssim3d_with_grad", "ssim.ssim3d_with_grad", None),
        ("latentscope.embedding.bootstrap", "embed_once", "embedding.embed_once",
         lambda a, k, r: {"method": a[1] if len(a) > 1 else k["method"]}),
        ("latentscope.forest", "rf_fit", "forest.rf_fit",
         lambda a, k, r: {"nodes": sum(t.n_nodes for t in r.trees)}),
        ("latentscope.attribution", "attribute_class",
         "attribution.attribute_class", None),
        ("latentscope.attribution", "shap_values", "attribution.shap_values", None),
        ("latentscope.attribution", "build_shap_volume",
         "attribution.build_shap_volume", None),
        ("latentscope.attribution", "total_reconstruction_error",
         "attribution.total_reconstruction_error", None),
        ("latentscope.regionstats", "correlate_embedding_regions",
         "regionstats.correlate_embedding_regions", None),
        ("latentscope.validation", "correct_table", "validation.correct_table", None),
        ("latentscope.lrcp", "lrcp_grid", "lrcp.lrcp_grid",
         lambda a, k, r: {"cells": len(r.cells)}),
        ("latentscope.lrcp", "summary_counts", "lrcp.summary_counts", None),
        ("latentscope.lrcp", "accuracy_map", "lrcp.accuracy_map", None),
        ("latentscope.data", "build_region_profiles", "data.build_region_profiles", None),
        ("latentscope.phantom", "generate_phantom_cohort",
         "phantom.generate_phantom_cohort", None),
        ("latentscope.fileio", "load_cohort", "fileio.load_cohort", None),
        ("latentscope.autoencoder", "load_model", "fileio.load_model", None),
        ("latentscope.fileio", "write_csv", "fileio.write_csv",
         _bytes_of_path_arg(0)),
        ("latentscope.fileio", "save_volume", "fileio.save_volume",
         _bytes_of_path_arg(1)),
        ("latentscope.fileio", "save_atlas", "fileio.save_atlas",
         _bytes_of_path_arg(1)),
        ("latentscope.fileio", "save_cohort", "fileio.save_cohort", None),
        ("latentscope.autoencoder", "save_model", "fileio.save_model",
         _bytes_of_path_arg(1)),
        ("latentscope.config", "load_config", "config.load_config", None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every target in every latentscope namespace that bound it."""
    for module, func, name, attrs in targets():
        original = getattr(importlib.import_module(module), func)
        traced = tracer.wrap(name, original, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "latentscope"
                                   or mod_name.startswith("latentscope.")):
                continue
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, traced)


# ---------------------------------------------------------------------------
# reduction

def required_spans(spec) -> list[str]:
    """Span names (and embedding methods) a workload must reach."""
    names = {name for _, _, name, _ in targets()}
    if spec["loss"] == "mse":
        names.discard("ssim.ssim3d_with_grad")
    required = sorted(names)
    required += [f"embedding.{m}" for m in spec["methods"]]
    required += [f"nn.{layer}.{d}" for layer in LAYERS for d in ("fwd", "bwd")]
    return required


def missing_spans(spans: list[dict], spec) -> list[str]:
    seen = {s["name"] for s in spans}
    seen |= {f"embedding.{s['method']}" for s in spans if "method" in s}
    seen |= {f"nn.{s['layer']}.{s['name'][-3:]}" for s in spans if "layer" in s}
    return [name for name in required_spans(spec) if name not in seen]


def self_time(span: dict, children: list[dict]) -> float:
    """Duration minus the children's. The tracer is one stack in one thread,
    so children never overlap and lie inside their parent."""
    return (span["end"] - span["start"]) - sum(
        c["end"] - c["start"] for c in children)


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics `<module>.<metric>` -> (value, unit) from one traced
    study. Spans named `stage.<name>` are the benchmark's own stage calls. A
    call that raised has no attribute fields and counts as zero work."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(dur(s) for s in named(*names))

    def median_ms(items):
        return 1000.0 * statistics.median(dur(s) for s in items) if items else 0.0

    m: dict[str, tuple[float, str]] = {}
    conv = named(*CONV_SPANS)
    for layer in LAYERS:
        for direction in ("fwd", "bwd"):
            calls = [s for s in conv if s.get("layer") == layer
                     and s["name"] == f"nn.conv_{direction}"]
            m[f"nn.{layer}.{direction}_ms"] = (median_ms(calls), "ms")
    m["nn.conv_s"] = (sum(dur(s) for s in conv), "s")
    m["nn.conv_gflop"] = (sum(s.get("flop", 0) for s in conv) / 1e9, "GFLOP")
    m["nn.conv_gb"] = (sum(s.get("bytes", 0) for s in conv) / 1e9, "GB")

    steps = named("autoencoder.loss_and_gradients")
    m["autoencoder.step_ms"] = (median_ms(steps), "ms")
    m["autoencoder.steps"] = (len(steps), "count")
    evals = [s for s in named(EVAL_SPAN) if s.get("mode") == "eval"]
    m["autoencoder.eval_forward_s"] = (sum(dur(s) for s in evals), "s")
    m["autoencoder.eval_forward_calls"] = (len(evals), "count")

    ssim = named("ssim.ssim3d_with_grad")
    m["ssim.grad_ms"] = (median_ms(ssim), "ms")
    m["ssim.calls"] = (len(ssim), "count")

    embeds = named("embedding.embed_once")
    for method in ("pca", "pls", "tsne", "umap"):
        m[f"embedding.{method}_s"] = (
            sum(dur(s) for s in embeds if s.get("method") == method), "s")

    fits = named("forest.rf_fit")
    m["forest.fit_s"] = (sum(dur(s) for s in fits), "s")
    m["forest.nodes"] = (sum(s.get("nodes", 0) for s in fits), "count")
    m["attribution.shap_values_s"] = (total("attribution.shap_values"), "s")
    m["attribution.recon_error_s"] = (
        total("attribution.total_reconstruction_error"), "s")

    m["regionstats.correlate_s"] = (
        total("regionstats.correlate_embedding_regions"), "s")
    m["validation.correct_table_s"] = (total("validation.correct_table"), "s")
    grids = named("lrcp.lrcp_grid")
    m["lrcp.grid_s"] = (sum(dur(s) for s in grids), "s")
    m["lrcp.cells"] = (sum(s.get("cells", 0) for s in grids), "count")
    m["lrcp.maps_s"] = (total("lrcp.summary_counts", "lrcp.accuracy_map"), "s")
    profiles = named("data.build_region_profiles")
    m["data.profiles_s"] = (sum(dur(s) for s in profiles), "s")
    m["data.profiles_calls"] = (len(profiles), "count")

    m["phantom.generate_s"] = (total("phantom.generate_phantom_cohort"), "s")
    loads = named("fileio.load_cohort")
    m["fileio.load_cohort_s"] = (sum(dur(s) for s in loads), "s")
    m["fileio.load_cohort_calls"] = (len(loads), "count")
    m["fileio.load_model_s"] = (total("fileio.load_model"), "s")
    writes = named(*WRITE_SPANS)
    outermost = [s for s in writes
                 if s["parent"] is None or by_id[s["parent"]]["name"] not in WRITE_SPANS]
    m["fileio.write_s"] = (sum(dur(s) for s in outermost), "s")
    m["fileio.bytes_written"] = (sum(s.get("bytes", 0) for s in writes), "bytes")
    m["config.load_s"] = (total("config.load_config"), "s")

    stages = [s for s in spans if s["name"].startswith("stage.")]
    m["pipeline.self_s"] = (
        sum(self_time(s, children.get(s["id"], [])) for s in stages), "s")
    return m
