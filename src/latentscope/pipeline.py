"""Staged pipeline: phantom generation through the final report directory.

Each stage writes its artifacts plus a stage.stamp recording the producing
config hash; downstream stages refuse to run on missing or hash-mismatched
predecessors unless forced. All randomness is derived from the single global
seed via context hashing, and no artifact embeds a timestamp or absolute
path, so a full rerun with the same config is byte-identical.
"""

from __future__ import annotations

import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attribution import attribute_class, build_shap_volume, total_reconstruction_error
from .autoencoder import (AEParams, TrainConfig, extract_activations, latent_shape,
                          load_model, params_hash, save_model, train)
from .config import PipelineConfig, config_hash, parse_comparison, write_config
from .data import CLASS_NAMES, Cohort, balanced_subset, build_region_profiles
from .embedding import (PREPARED_ORDER, EmbeddingMatrix, PreparedLayer,
                        embed_once)
from .errors import DependencyError, FormatError
from .fileio import (fmt_value, load_cohort, load_latent, read_table, save_cohort,
                     save_latent, save_volume, write_csv)
from .lrcp import LRCPGrid, accuracy_map, lrcp_grid, summary_counts
from .regionstats import correlate_embedding_regions, overlap_report, top_regions
from .seeds import derive_seed
from .validation import correct_table

STAGES = ("generate", "train", "embed", "correlate", "shap", "lrcp", "report")

STAGE_DEPS = {
    "generate": (),
    "train": ("generate",),
    "embed": ("generate", "train"),
    "correlate": ("generate", "embed"),
    "shap": ("generate", "train", "embed"),
    "lrcp": ("generate", "embed"),
    "report": ("generate", "correlate", "shap", "lrcp"),
}

# headers of the stage CSVs
_CORRELATION_COLUMNS = ["method", "layer", "component", "region", "class", "n",
                        "r", "r2", "p", "flag"]
_TOP_REGION_COLUMNS = ["method", "layer", "rank", "region", "r", "p",
                      "component", "class"]
_OVERLAP_COLUMNS = ["comparison_a", "comparison_b", "region"]
_IMPORTANCE_COLUMNS = ["class", "region", "s_r", "s_tilde"]
_DIAGNOSTIC_COLUMNS = ["class", "residual", "flags"]
SUMMARY_COLUMNS = ["comparison", "method", "layer", "component", "significant",
                   "non_significant"]
_GRID_COLUMNS = ["comparison", "method", "layer", "component", "region", "n", "r",
                 "p", "emp_error", "corr_error", "category"]


def _embedding_columns(components: int) -> list[str]:
    return ["subject_id", "method", "layer"] + [f"d{i}" for i in range(components)]


def _owner_gone(lock: Path) -> bool:
    """Whether `lock` names this host and a pid that no longer runs."""
    try:
        fields = dict(line.split("=", 1)
                      for line in lock.read_text(encoding="utf-8").splitlines())
        pid, host = int(fields["pid"]), fields["host"]
    except (OSError, UnicodeDecodeError, ValueError, KeyError):
        return False
    if pid <= 0 or host != os.uname().nodename:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, under another user
        pass
    return False


@contextmanager
def pipeline_lock(out_dir):
    """Exclusive ownership of an output directory for the duration of a stage.

    The `lock` file records the owner's pid and host. A lock whose owner
    ran on this host and has exited is removed and taken again, once; a
    lock whose owner is alive, is on another host or cannot be read blocks.
    Two runs that recover the same dead lock at the same moment can both
    take it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / "lock"
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt or not _owner_gone(lock):
                raise DependencyError(
                    f"output directory {out} is locked by another run "
                    f"(remove {lock} if that run is dead)") from None
            lock.unlink(missing_ok=True)
    os.write(fd, f"pid={os.getpid()}\nhost={os.uname().nodename}\n".encode())
    os.close(fd)
    try:
        yield out
    finally:
        lock.unlink(missing_ok=True)


def _stamp_path(out: Path, stage: str) -> Path:
    return out / stage / "stage.stamp"


def _write_stamp(out: Path, stage: str, config: PipelineConfig) -> None:
    _stamp_path(out, stage).write_text(
        f"stage={stage}\nconfig_hash={config_hash(config)}\n", encoding="utf-8")


def _read_stamp_hash(out: Path, stage: str) -> str | None:
    """The config hash in `stage`'s stamp, or None if it has none."""
    path = _stamp_path(out, stage)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError) as exc:  # unreadable or undecodable
        raise DependencyError(f"cannot read stage stamp {path}: {exc}") from exc
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key == "config_hash":
            return value
    return None


def require_stages(out: Path, stage: str, config: PipelineConfig,
                   force: bool = False) -> None:
    """Refuse to run `stage` unless every predecessor ran under this config."""
    want = config_hash(config)
    for dep in STAGE_DEPS[stage]:
        have = _read_stamp_hash(out, dep)
        if have is None:
            raise DependencyError(
                f"stage {stage!r} needs stage {dep!r}, which has not run in "
                f"{out}; run it first")
        if have != want and not force:
            raise DependencyError(
                f"stage {dep!r} in {out} was produced under config hash "
                f"{have[:12]}..., but the current config hashes to "
                f"{want[:12]}...; rerun {dep!r} (or pass --stage-force to "
                "use the stale artifacts anyway)")


@contextmanager
def _stage(name: str, config: PipelineConfig, out_dir, force: bool):
    """The contract every stage runs under: a valid config, the run
    directory's lock, every predecessor stamped under this config (or
    `force`), an empty `<name>/` for the body, and `<name>/stage.stamp`
    written only once the body returns. A rerun deletes the old stamp, then
    the old directory, so an exception leaves no stamp, and no file of an
    earlier run survives beside the new ones. The lock is released either
    way. Yields the run directory and the stage directory."""
    config.validate()
    with pipeline_lock(out_dir) as out:
        require_stages(out, name, config, force)
        stage = out / name
        _stamp_path(out, name).unlink(missing_ok=True)
        if stage.exists():
            shutil.rmtree(stage)
        stage.mkdir(parents=True)
        yield out, stage
        _write_stamp(out, name, config)


def _hash_comment(config: PipelineConfig) -> list[str]:
    return [f"config_hash={config_hash(config)}"]


def _comparisons(config: PipelineConfig, cohort: Cohort):
    """(name, class pair, balanced subset) of each configured comparison."""
    for name in config.comparisons:
        pair = parse_comparison(name)
        yield name, pair, balanced_subset(
            cohort, list(pair), seed=derive_seed(config.seed, "subset", name))


# ---------------------------------------------------------------------------
# stages

def run_generate(config: PipelineConfig, out_dir, force: bool = False) -> Path:
    from .phantom import generate_phantom_cohort

    with _stage("generate", config, out_dir, force) as (out, stage):
        phantom = replace(config.phantom, seed=derive_seed(config.seed, "phantom"))
        cohort = generate_phantom_cohort(phantom)
        save_cohort(str(stage / "cohort"), cohort)
        write_csv(str(stage / "classes.csv"), ["class", "count"],
                  [{"class": CLASS_NAMES[k], "count": v}
                   for k, v in sorted(cohort.class_counts().items())],
                  comments=_hash_comment(config))
        write_config(config, out / "config.txt")
    return stage


def _load_cohort(out: Path) -> Cohort:
    return load_cohort(str(out / "generate" / "cohort"))


def _load_model(out: Path, name: str) -> AEParams:
    """The train stage's model of comparison `name`."""
    return load_model(str(out / "train" / name / "model.lsae"))


def run_train(config: PipelineConfig, out_dir, force: bool = False) -> Path:
    with _stage("train", config, out_dir, force) as (out, stage):
        cohort = _load_cohort(out)
        for name, _, subset in _comparisons(config, cohort):
            tc: TrainConfig = replace(
                config.train, seed=derive_seed(config.seed, "train", name))
            model, report = train(subset, tc)
            comp_dir = stage / name
            comp_dir.mkdir(parents=True, exist_ok=True)
            save_model(model, str(comp_dir / "model.lsae"))
            write_csv(str(comp_dir / "training_log.csv"), ["epoch", "loss"],
                      [{"epoch": i + 1, "loss": loss}
                       for i, loss in enumerate(report.epoch_losses)],
                      comments=_hash_comment(config) + [
                          f"best_epoch={report.best_epoch}",
                          f"stopped_epoch={report.stopped_epoch}",
                          f"params_sha256={report.params_sha256}",
                      ])
    return stage


# KL(P||Q) at every 50th t-SNE iteration, the interval of sklearn's
# n_iter_check: the KL costs about a quarter of a fit when taken every step
_TSNE_KL_EVERY = 50


def _metadata_lines(metadata: dict) -> list[str]:
    """`key=value` lines of an embedding's metadata in key order; a list or
    array (the notes, t-SNE's KL checkpoints) is `;`-joined."""
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if isinstance(value, (list, tuple, np.ndarray)):
            lines.append(f"{key}={';'.join(fmt_value(v) for v in value)}")
        else:
            lines.append(f"{key}={fmt_value(value)}")
    return lines


def run_embed(config: PipelineConfig, out_dir, force: bool = False) -> Path:
    with _stage("embed", config, out_dir, force) as (out, stage):
        cohort = _load_cohort(out)
        hyper = {
            "tsne": {"perplexity": config.embed.perplexity,
                     "iters": config.embed.tsne_iters,
                     "kl_every": _TSNE_KL_EVERY},
            "umap": {"n_neighbors": config.embed.n_neighbors,
                     "min_dist": config.embed.min_dist,
                     "epochs": config.embed.umap_epochs},
        }
        methods = sorted(config.embed.methods, key=PREPARED_ORDER.index)
        for name, _, subset in _comparisons(config, cohort):
            model = _load_model(out, name)
            labels = subset.class_labels
            comp_dir = stage / name
            comp_dir.mkdir(parents=True, exist_ok=True)
            # The activations go to an anonymous file in the stage directory,
            # which leaving the `with` block deletes, on success or error.
            # Each layer matrix is read back just before its fits, smallest
            # first (L3, L2, L1 for the trained encoder), prepared once, in
            # place, for all of them, and freed when they end: embed holds
            # one layer matrix at a time.
            with extract_activations(model, subset,
                                     batch_size=config.train.batch_size,
                                     layers=config.embed.layers,
                                     spill_dir=stage) as acts:
                save_latent(acts.latent(), params_hash(model),
                            str(comp_dir / "latent.lat"))
                for layer in sorted(config.embed.layers,
                                    key=lambda k: math.prod(acts.shapes[k])):
                    x = PreparedLayer(acts.matrix(layer))
                    for method in methods:
                        emb = embed_once(
                            x, method,
                            seed=derive_seed(config.seed, "embed", name, method, layer),
                            labels=labels if method == "pls" else None,
                            subject_ids=subset.subject_ids, layer=layer,
                            dims=config.embed.components,
                            **hyper.get(method, {}))
                        base = comp_dir / f"{method}_{layer}"
                        write_csv(str(base.with_suffix(".csv")),
                                  _embedding_columns(emb.n_components),
                                  [(sid, method, layer, *row)
                                   for sid, row in zip(emb.subject_ids, emb.values)],
                                  comments=_hash_comment(config))
                        meta = _metadata_lines(emb.metadata)
                        base.with_suffix(".meta").write_text(
                            "\n".join(meta) + "\n", encoding="utf-8")
                    del x  # before the next layer's matrix is read
    return stage


def _load_embedding(path: Path, method: str, layer: str,
                    components: int) -> EmbeddingMatrix:
    columns = _embedding_columns(components)
    rows = read_table(str(path), columns)
    if not rows:
        raise DependencyError(f"embedding file {path} is empty")
    if any(row["method"] != method or row["layer"] != layer for row in rows):
        raise FormatError(f"{path}: a row is not of method {method!r}, "
                          f"layer {layer!r}")
    try:
        values = np.array([[float(row[c]) for c in columns[3:]] for row in rows])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite embedding value")
    return EmbeddingMatrix(method=method, layer=layer, values=values,
                           subject_ids=[row["subject_id"] for row in rows])


def _load_all_embeddings(out: Path, config: PipelineConfig, cohort: Cohort) -> dict:
    """Every embedding of the embed stage; each must list its comparison's
    balanced subset, in order."""
    embeddings = {}
    for name, _, subset in _comparisons(config, cohort):
        ids = subset.subject_ids
        for method in config.embed.methods:
            for layer in config.embed.layers:
                path = out / "embed" / name / f"{method}_{layer}.csv"
                if not path.exists():
                    raise DependencyError(
                        f"missing embedding artifact {path}; rerun the embed stage")
                emb = _load_embedding(path, method, layer, config.embed.components)
                if emb.subject_ids != ids:
                    raise FormatError(f"{path}: subject ids are not the {name} "
                                      "subjects in cohort order")
                embeddings[(name, method, layer)] = emb
    return embeddings


def _correlation_rows(table, rows):
    """`_CORRELATION_COLUMNS` rows for `rows`, all of `table.rows` or the
    subset `correct_table` kept."""
    fields = ["component", "region", "class_label", "n", "r", "r_squared",
              "p_value", "flag"]
    for row in rows[fields].ravel().tolist():
        yield (table.method, table.layer, *row)


def run_correlate(config: PipelineConfig, out_dir, force: bool = False) -> Path:
    with _stage("correlate", config, out_dir, force) as (out, stage):
        cohort = _load_cohort(out)
        embeddings = _load_all_embeddings(out, config, cohort)
        overlap_method = "tsne" if "tsne" in config.embed.methods else config.embed.methods[0]
        overlap_layer = config.embed.layers[-1]
        per_comparison_top = {}
        for name, _, subset in _comparisons(config, cohort):
            profiles = build_region_profiles(subset)
            labels = subset.class_labels
            comp_dir = stage / name
            comp_dir.mkdir(parents=True, exist_ok=True)
            all_rows, top_rows = [], []
            kept_p_rows, kept_sar_rows = [], []
            for method in config.embed.methods:
                for layer in config.embed.layers:
                    emb = embeddings[(name, method, layer)]
                    table = correlate_embedding_regions(
                        emb, profiles, labels=labels, stratify=config.stratify)
                    all_rows.extend(_correlation_rows(table, table.rows))
                    ranked = top_regions(table, n=config.top_n)
                    top_rows.extend(
                        {"method": method, "layer": layer, "rank": i + 1,
                         "region": t.region, "r": t.r, "p": t.p_value,
                         "component": t.component, "class": t.class_label}
                        for i, t in enumerate(ranked))
                    kept_p_rows.extend(_correlation_rows(
                        table, correct_table(table, "pvalue")))
                    kept_sar_rows.extend(_correlation_rows(
                        table, correct_table(table, "sar", delta=config.bound.delta)))
                    if method == overlap_method and layer == overlap_layer:
                        per_comparison_top[name] = [t.region for t in ranked]
            comments = _hash_comment(config)
            write_csv(str(comp_dir / "correlations.csv"), _CORRELATION_COLUMNS,
                      all_rows, comments=comments)
            write_csv(str(comp_dir / "top_regions.csv"), _TOP_REGION_COLUMNS,
                      top_rows, comments=comments)
            write_csv(str(comp_dir / "corrected_pvalue.csv"), _CORRELATION_COLUMNS,
                      kept_p_rows, comments=comments)
            write_csv(str(comp_dir / "corrected_sar.csv"), _CORRELATION_COLUMNS,
                      kept_sar_rows, comments=comments)
        overlap_rows = []
        if len(per_comparison_top) >= 2:
            report = overlap_report(per_comparison_top)
            for (a, b), regions in sorted(report.pair_overlaps.items()):
                overlap_rows.extend(
                    {"comparison_a": a, "comparison_b": b, "region": region}
                    for region in regions)
        write_csv(str(stage / "overlap.csv"), _OVERLAP_COLUMNS, overlap_rows,
                  comments=_hash_comment(config) + [
                      f"method={overlap_method}", f"layer={overlap_layer}"])
    return stage


def _load_latent(path: Path, model, subset: Cohort) -> np.ndarray:
    """The embed stage's bottleneck activations of `subset`, which `model`
    must have computed."""
    latent, params_sha256 = load_latent(str(path))
    if params_sha256 != params_hash(model):
        raise FormatError(f"{path}: written under model {params_sha256[:12]}..., "
                          "not the trained one; rerun the embed stage")
    want = (len(subset), *latent_shape(model, subset.atlas.dims))
    if latent.shape != want:
        raise FormatError(f"{path}: shape {latent.shape}, expected {want}")
    return latent


def run_shap(config: PipelineConfig, out_dir, force: bool = False) -> Path:
    with _stage("shap", config, out_dir, force) as (out, stage):
        cohort = _load_cohort(out)
        for name, pair, subset in _comparisons(config, cohort):
            model = _load_model(out, name)
            latent = _load_latent(out / "embed" / name / "latent.lat", model, subset)
            errors = total_reconstruction_error(subset, model,
                                                chunk=config.train.batch_size,
                                                latent=latent)
            profiles = build_region_profiles(subset)
            labels = np.asarray(subset.class_labels)
            ids = np.asarray(profiles.subject_ids)
            comp_dir = stage / name
            comp_dir.mkdir(parents=True, exist_ok=True)
            phi_rows, importance_rows, diagnostic_rows = [], [], []
            for label in pair:
                mask = labels == label
                class_ids = [str(s) for s in ids[mask]]
                targets = np.array([errors[sid] for sid in class_ids])
                fc = replace(config.forest,
                             seed=derive_seed(config.seed, "shap", name, label))
                result = attribute_class(profiles.values[mask], targets, label,
                                         config=fc, subject_ids=class_ids)
                class_name = CLASS_NAMES[label]
                for i, sid in enumerate(result.subject_ids):
                    phi_rows.extend(
                        {"class": class_name, "subject_id": sid,
                         "region": int(region), "phi": result.phi[i, j]}
                        for j, region in enumerate(profiles.region_ids))
                importance_rows.extend(
                    {"class": class_name, "region": int(region),
                     "s_r": result.s[j], "s_tilde": result.s_tilde[j]}
                    for j, region in enumerate(profiles.region_ids))
                diagnostic_rows.append(
                    {"class": class_name, "residual": result.residual,
                     "flags": ";".join(result.flags)})
                save_volume(build_shap_volume(result.s_tilde, cohort.atlas),
                            str(comp_dir / f"map_{class_name}.vol"))
            comments = _hash_comment(config)
            write_csv(str(comp_dir / "shap_values.csv"),
                      ["class", "subject_id", "region", "phi"], phi_rows,
                      comments=comments)
            write_csv(str(comp_dir / "importance.csv"), _IMPORTANCE_COLUMNS,
                      importance_rows, comments=comments)
            write_csv(str(comp_dir / "diagnostics.csv"), _DIAGNOSTIC_COLUMNS,
                      diagnostic_rows, comments=comments)
    return stage


def _grid_rows(grid: LRCPGrid):
    axes = (grid.comparisons, grid.methods, grid.layers, grid.components,
            grid.region_ids)
    for index, cell in zip(np.ndindex(grid.shape), grid.cells.tolist()):
        yield (*(axis[i] for axis, i in zip(axes, index)), *cell)


def _summary_rows(grid: LRCPGrid):
    for (name, method, layer, component), (sig, nonsig) in summary_counts(grid).items():
        yield {"comparison": name, "method": method, "layer": layer,
               "component": component, "significant": sig,
               "non_significant": nonsig}


def run_lrcp(config: PipelineConfig, out_dir, force: bool = False) -> Path:
    with _stage("lrcp", config, out_dir, force) as (out, stage):
        cohort = _load_cohort(out)
        embeddings = _load_all_embeddings(out, config, cohort)
        profiles = build_region_profiles(cohort)
        labels = cohort.class_labels
        comparisons = [(name, parse_comparison(name)) for name in config.comparisons]
        grid = lrcp_grid(embeddings, profiles, labels, comparisons,
                         bound=config.bound,
                         seed=derive_seed(config.seed, "lrcp"),
                         quadratic=config.quadratic)
        maps_dir = stage / "maps"
        maps_dir.mkdir(parents=True, exist_ok=True)
        comments = _hash_comment(config)
        write_csv(str(stage / "grid.csv"), _GRID_COLUMNS, _grid_rows(grid),
                  comments=comments)
        write_csv(str(stage / "summary.csv"), SUMMARY_COLUMNS,
                  _summary_rows(grid), comments=comments)
        for name in grid.comparisons:
            for method in grid.methods:
                for layer in grid.layers:
                    for component in grid.components:
                        vol = accuracy_map(grid, name, method, layer, component,
                                           cohort.atlas)
                        save_volume(vol, str(
                            maps_dir / f"{name}_{method}_{layer}_D{component}.vol"))
    return stage


def run_report(config: PipelineConfig, out_dir, force: bool = False) -> Path:
    with _stage("report", config, out_dir, force) as (out, stage):
        comments = _hash_comment(config)

        summary_rows = read_table(str(out / "lrcp" / "summary.csv"),
                                  SUMMARY_COLUMNS)
        write_csv(str(stage / "lrcp_summary.csv"), SUMMARY_COLUMNS,
                  summary_rows, comments=comments)

        top_rows = []
        for name in config.comparisons:
            for row in read_table(str(out / "correlate" / name / "top_regions.csv"),
                                  _TOP_REGION_COLUMNS):
                top_rows.append(dict({"comparison": name}, **row))
        write_csv(str(stage / "top_regions.csv"),
                  ["comparison"] + _TOP_REGION_COLUMNS, top_rows, comments=comments)

        overlap_rows = read_table(str(out / "correlate" / "overlap.csv"),
                                  _OVERLAP_COLUMNS)
        write_csv(str(stage / "overlap.csv"), _OVERLAP_COLUMNS, overlap_rows,
                  comments=comments)

        importance_rows = []
        for name in config.comparisons:
            for row in read_table(str(out / "shap" / name / "importance.csv"),
                                  _IMPORTANCE_COLUMNS):
                importance_rows.append(dict({"comparison": name}, **row))
        write_csv(str(stage / "shap_importance.csv"),
                  ["comparison"] + _IMPORTANCE_COLUMNS, importance_rows,
                  comments=comments)

        stamp_rows = [{"stage": dep, "config_hash": have} for dep in STAGES
                      if (have := _read_stamp_hash(out, dep)) is not None]
        write_csv(str(stage / "provenance.csv"), ["stage", "config_hash"],
                  stamp_rows, comments=comments)
    return stage


STAGE_RUNNERS = {
    "generate": run_generate,
    "train": run_train,
    "embed": run_embed,
    "correlate": run_correlate,
    "shap": run_shap,
    "lrcp": run_lrcp,
    "report": run_report,
}


def run_all(config: PipelineConfig, out_dir, force: bool = False) -> Path:
    for stage in STAGES:
        STAGE_RUNNERS[stage](config, out_dir, force=force)
    return Path(out_dir)
