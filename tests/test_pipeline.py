"""Staged pipeline orchestration: dependency stamps, locking, artifact
layout, byte-level rerun determinism, and the command-line entry point."""

import os
import shutil
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LRCP_GRID_COLUMNS, LRCP_SUMMARY_COLUMNS
from latentscope.autoencoder import MODEL_MAGIC, TrainConfig
import latentscope
from latentscope.cli import (EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_NUMERIC,
                             EXIT_OK, build_parser, main)
from latentscope.config import (AD_EFFECTS, EMBED_METHODS, EmbedConfig,
                                PipelineConfig, canonical_lines, config_hash,
                                load_config, write_config)
from latentscope.errors import DependencyError, LatentScopeError, NumericError
from latentscope.fileio import _write_grid
from latentscope.phantom import PhantomConfig
from latentscope.pipeline import (STAGE_DEPS, STAGES, pipeline_lock,
                                  require_stages, run_all, run_correlate,
                                  run_embed, run_generate, run_report,
                                  run_train)


def tiny_config(out_dir: str, seed: int = 7) -> PipelineConfig:
    """Smallest useful study: 16 subjects, one comparison, PCA on one layer."""
    return PipelineConfig(
        phantom=PhantomConfig(dims=(16, 16, 16), region_count=8,
                              class_counts={0: 8, 3: 8},
                              effect_spec=[(3, 3, 0.35)],
                              noise_sigma=0.05, smoothness=1.5, seed=seed),
        train=TrainConfig(loss_kind="mse", max_epochs=1, patience=1,
                          batch_size=8, seed=seed),
        embed=EmbedConfig(methods=("pca",), layers=("L3",), components=2),
        comparisons=("NOR_AD",),
        seed=seed,
        out_dir=out_dir,
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Map of relative path -> file contents for a whole directory tree."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = Path(dirpath) / name
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = tiny_config(str(out))
    run_all(cfg, str(out))
    return cfg, out


class TestStageGraph:
    def test_stage_order(self):
        assert STAGES == ("generate", "train", "embed", "correlate",
                          "shap", "lrcp", "report")

    def test_deps_cover_all_stages(self):
        assert set(STAGE_DEPS) == set(STAGES)

    def test_deps_precede_their_stage(self):
        order = {name: i for i, name in enumerate(STAGES)}
        for stage, deps in STAGE_DEPS.items():
            for dep in deps:
                assert order[dep] < order[stage]

    def test_report_depends_on_all_analyses(self):
        assert set(STAGE_DEPS["report"]) == {"generate", "correlate",
                                             "shap", "lrcp"}


class TestLock:
    def test_foreign_lock_blocks_and_survives(self, tmp_path):
        (tmp_path / "lock").write_text("other\n")
        with pytest.raises(DependencyError, match="locked by another run"):
            run_generate(tiny_config(str(tmp_path)), str(tmp_path))
        # the stage must not delete a lock it never acquired
        assert (tmp_path / "lock").exists()

    def test_lock_released_after_success(self, tmp_path):
        with pipeline_lock(tmp_path):
            assert (tmp_path / "lock").exists()
        assert not (tmp_path / "lock").exists()

    def test_lock_released_after_stage_failure(self, tmp_path):
        cfg = tiny_config(str(tmp_path))
        with pytest.raises(DependencyError):
            run_train(cfg, str(tmp_path))
        assert not (tmp_path / "lock").exists()

    def test_nested_lock_is_contention(self, tmp_path):
        with pipeline_lock(tmp_path):
            with pytest.raises(DependencyError, match="locked"):
                with pipeline_lock(tmp_path):
                    pass

    def test_lock_of_an_exited_process_is_recovered(self, tmp_path):
        """A run that died holding the lock (here a subprocess that exits
        without leaving the `with`) leaves its pid and host behind: the
        next stage removes that lock and takes its own."""
        script = textwrap.dedent(f"""
            import os
            from latentscope.pipeline import pipeline_lock
            with pipeline_lock({str(tmp_path)!r}):
                os._exit(0)
        """)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(latentscope.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        assert (tmp_path / "lock").read_text().startswith("pid=")
        run_generate(tiny_config(str(tmp_path)), str(tmp_path))
        assert not (tmp_path / "lock").exists()
        assert (tmp_path / "generate" / "stage.stamp").exists()

    @pytest.mark.parametrize("owner", ["live", "other_host"])
    def test_lock_of_a_live_or_remote_owner_blocks(self, tmp_path, owner):
        host = os.uname().nodename
        pid = os.getpid()
        if owner == "other_host":
            host += ".elsewhere"
            # a pid that has exited here: only the other host keeps it
            pid = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                                 capture_output=True, text=True, check=True).stdout
        text = f"pid={int(pid)}\nhost={host}\n"
        (tmp_path / "lock").write_text(text)
        with pytest.raises(DependencyError, match="locked by another run"):
            with pipeline_lock(tmp_path):
                pass
        assert (tmp_path / "lock").read_text() == text


class TestDependencies:
    def test_train_needs_generate(self, tmp_path):
        cfg = tiny_config(str(tmp_path))
        with pytest.raises(DependencyError, match="has not run"):
            run_train(cfg, str(tmp_path))

    def test_report_needs_everything(self, tmp_path):
        cfg = tiny_config(str(tmp_path))
        with pytest.raises(DependencyError, match="has not run"):
            run_report(cfg, str(tmp_path))

    def test_stale_hash_refused(self, tmp_path):
        run_generate(tiny_config(str(tmp_path), seed=7), str(tmp_path))
        cfg8 = tiny_config(str(tmp_path), seed=8)
        with pytest.raises(DependencyError) as err:
            run_train(cfg8, str(tmp_path))
        msg = str(err.value)
        assert "was produced under config hash" in msg
        assert "--stage-force" in msg

    def test_force_accepts_stale_artifacts(self, tmp_path):
        cfg7 = tiny_config(str(tmp_path), seed=7)
        cfg8 = tiny_config(str(tmp_path), seed=8)
        run_generate(cfg7, str(tmp_path))
        run_train(cfg8, str(tmp_path), force=True)
        # the forced stage stamps its own config, predecessors keep theirs
        gen_stamp = (tmp_path / "generate" / "stage.stamp").read_text()
        train_stamp = (tmp_path / "train" / "stage.stamp").read_text()
        assert f"config_hash={config_hash(cfg7)}" in gen_stamp
        assert f"config_hash={config_hash(cfg8)}" in train_stamp

    def test_matching_hash_needs_no_force(self, tmp_path):
        cfg = tiny_config(str(tmp_path))
        run_generate(cfg, str(tmp_path))
        run_train(cfg, str(tmp_path))  # must not raise

    def test_missing_embedding_artifact(self, tiny_run, tmp_path):
        cfg, out = tiny_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        (copy / "embed" / "NOR_AD" / "pca_L3.csv").unlink()
        with pytest.raises(DependencyError, match="missing embedding artifact"):
            run_correlate(cfg, str(copy), force=True)


class TestStamps:
    def test_generate_stamp_contents(self, tiny_run):
        cfg, out = tiny_run
        lines = (out / "generate" / "stage.stamp").read_text().splitlines()
        assert lines == ["stage=generate", f"config_hash={config_hash(cfg)}"]

    def test_all_stages_stamped_with_one_hash(self, tiny_run):
        cfg, out = tiny_run
        want = config_hash(cfg)
        for stage in STAGES:
            text = (out / stage / "stage.stamp").read_text()
            assert f"config_hash={want}" in text, stage

    def test_config_txt_matches_canonical_lines(self, tiny_run):
        cfg, out = tiny_run
        text = (out / "config.txt").read_text()
        assert text == "\n".join(canonical_lines(cfg)) + "\n"
        assert str(out) not in text  # run location never lands in artifacts


_GOOD_STAMP = f"stage=generate\nconfig_hash={config_hash(tiny_config('.'))}\n".encode()


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=60).map(lambda tail: b"config_hash=" + tail),
    st.tuples(st.binary(max_size=20), st.binary(max_size=20)).map(
        lambda t: t[0] + _GOOD_STAMP + t[1]),
))
def test_require_stages_total_on_arbitrary_stamps(tmp_path_factory, blob):
    """Any predecessor stamp lets the stage run or raises a package error;
    it runs only if the stamp's first config_hash line names its config."""
    cfg = tiny_config(".")
    out = tmp_path_factory.getbasetemp() / "stamps"
    (out / "generate").mkdir(parents=True, exist_ok=True)
    (out / "generate" / "stage.stamp").write_bytes(blob)
    try:
        require_stages(out, "train", cfg)
    except LatentScopeError:
        return
    lines = [ln for ln in blob.decode("utf-8").splitlines()
             if ln.partition("=")[0] == "config_hash"]
    assert lines[0] == f"config_hash={config_hash(cfg)}"


class TestArtifactLayout:
    def test_expected_files_exist(self, tiny_run):
        _, out = tiny_run
        expected = [
            "config.txt",
            "generate/cohort/manifest.csv",
            "generate/cohort/atlas.atl",
            "generate/classes.csv",
            "train/NOR_AD/model.lsae",
            "train/NOR_AD/training_log.csv",
            "embed/NOR_AD/pca_L3.csv",
            "embed/NOR_AD/pca_L3.meta",
            "embed/NOR_AD/latent.lat",
            "correlate/NOR_AD/correlations.csv",
            "correlate/NOR_AD/top_regions.csv",
            "correlate/NOR_AD/corrected_pvalue.csv",
            "correlate/NOR_AD/corrected_sar.csv",
            "correlate/NOR_AD/sar_margin.csv",
            "correlate/overlap.csv",
            "shap/NOR_AD/shap_values.csv",
            "shap/NOR_AD/importance.csv",
            "shap/NOR_AD/map_NOR.vol",
            "shap/NOR_AD/map_AD.vol",
            "shap/NOR_AD/diagnostics.csv",
            "lrcp/grid.csv",
            "lrcp/summary.csv",
            "lrcp/maps/NOR_AD_pca_L3_D0.vol",
            "lrcp/maps/NOR_AD_pca_L3_D1.vol",
            "report/lrcp_summary.csv",
            "report/top_regions.csv",
            "report/overlap.csv",
            "report/shap_importance.csv",
            "report/provenance.csv",
        ]
        missing = [rel for rel in expected if not (out / rel).exists()]
        assert not missing

    def test_cohort_volume_per_subject(self, tiny_run):
        _, out = tiny_run
        vols = list((out / "generate" / "cohort" / "volumes").glob("*.vol"))
        assert len(vols) == 16

    def test_classes_csv_counts(self, tiny_run):
        from latentscope.fileio import read_table
        _, out = tiny_run
        rows = read_table(str(out / "generate" / "classes.csv"), ["class", "count"])
        assert {r["class"]: int(r["count"]) for r in rows} == {"NOR": 8, "AD": 8}

    def test_embedding_csv_shape(self, tiny_run):
        from latentscope.fileio import read_table
        _, out = tiny_run
        rows = read_table(str(out / "embed" / "NOR_AD" / "pca_L3.csv"),
                          ["subject_id", "method", "layer", "d0", "d1"])
        assert len(rows) == 16
        assert all(r["method"] == "pca" and r["layer"] == "L3" for r in rows)

    def test_correlations_csv_row_count(self, tiny_run):
        from latentscope.fileio import read_table
        _, out = tiny_run
        rows = read_table(str(out / "correlate" / "NOR_AD" / "correlations.csv"),
                          ["method", "layer", "component", "region", "class", "n",
                           "r", "r2", "p", "flag"])
        # 2 components x 8 regions x (pooled + NOR + AD strata)
        assert len(rows) == 2 * 8 * 3
        assert {r["class"] for r in rows} == {"pooled", "NOR", "AD"}

    def test_shap_tables(self, tiny_run):
        from latentscope.fileio import read_table
        _, out = tiny_run
        importance = read_table(str(out / "shap" / "NOR_AD" / "importance.csv"),
                                ["class", "region", "s_r", "s_tilde"])
        assert len(importance) == 2 * 8  # both classes, every region
        phi = read_table(str(out / "shap" / "NOR_AD" / "shap_values.csv"),
                         ["class", "subject_id", "region", "phi"])
        assert len(phi) == 16 * 8  # every subject of the subset, every region

    def test_shap_diagnostics(self, tiny_run):
        from latentscope.fileio import read_table
        _, out = tiny_run
        rows = read_table(str(out / "shap" / "NOR_AD" / "diagnostics.csv"),
                          ["class", "residual", "flags"])
        assert [r["class"] for r in rows] == ["NOR", "AD"]
        for row in rows:
            assert 0.0 <= float(row["residual"]) < 1e-8  # SHAP local accuracy
            assert row["flags"] in ("", "uniform_importance")

    def test_latent_is_embed_bottleneck(self, tiny_run):
        from latentscope.autoencoder import load_model, params_hash
        from latentscope.fileio import load_latent
        _, out = tiny_run
        latent, params_sha256 = load_latent(
            str(out / "embed" / "NOR_AD" / "latent.lat"))
        model = load_model(str(out / "train" / "NOR_AD" / "model.lsae"))
        assert params_sha256 == params_hash(model)
        assert latent.shape == (16, 64, 2, 2, 2)  # 16 -> 8 -> 4 -> 2

    def test_lrcp_grid_and_summary(self, tiny_run):
        from latentscope.fileio import read_table
        _, out = tiny_run
        grid = read_table(str(out / "lrcp" / "grid.csv"), LRCP_GRID_COLUMNS)
        assert len(grid) == 2 * 8  # components x regions, one comparison/method
        summary = read_table(str(out / "lrcp" / "summary.csv"),
                             LRCP_SUMMARY_COLUMNS)
        assert len(summary) == 2
        for row in summary:
            assert int(row["significant"]) + int(row["non_significant"]) == 8

    def test_report_provenance(self, tiny_run):
        from latentscope.fileio import read_table
        cfg, out = tiny_run
        rows = read_table(str(out / "report" / "provenance.csv"),
                          ["stage", "config_hash"])
        # the report lists the stages it was built from, not itself
        assert [r["stage"] for r in rows] == list(STAGES[:-1])
        assert {r["config_hash"] for r in rows} == {config_hash(cfg)}


def test_tsne_meta_holds_kl_checkpoints(tmp_path):
    from latentscope.fileio import fmt_value
    cfg = tiny_config(str(tmp_path))
    cfg.embed = EmbedConfig(methods=("tsne",), layers=("L3",), components=2,
                            perplexity=4.0, tsne_iters=120)
    for run in (run_generate, run_train, run_embed):
        run(cfg, str(tmp_path))
    lines = (tmp_path / "embed" / "NOR_AD" / "tsne_L3.meta").read_text().splitlines()
    meta = dict(line.partition("=")[::2] for line in lines)
    assert [line.partition("=")[0] for line in lines] == sorted(meta)
    assert meta["kl_every"] == "50" and meta["iters"] == "120"
    kl = meta["kl_history"].split(";")
    assert len(kl) == 3  # after iterations 50, 100 and the last, 120
    assert [fmt_value(float(v)) for v in kl] == kl
    assert all(float(v) > 0.0 for v in kl)


# sha256 over the names and bytes of every embed/*/*.csv and *.meta of
# `_pinned_embed_config`, recorded when the four methods moved to the Gram
# matrices summed over the layer's column blocks
EMBED_DIGEST = "f35f486aa2233943504503972b87379964d118ebcdf4b8b2a2108cad9d6ee464"


def _pinned_embed_config(out_dir: str) -> PipelineConfig:
    cfg = tiny_config(out_dir, seed=5)
    return replace(cfg,
                   phantom=replace(cfg.phantom, class_counts={0: 10, 3: 10}),
                   embed=EmbedConfig(methods=EMBED_METHODS,
                                     layers=("L1", "L2", "L3"), components=3,
                                     perplexity=5.0, tsne_iters=120,
                                     n_neighbors=6, umap_epochs=40))


@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
def test_embed_artifacts_are_pinned(tmp_path):
    """Every embedding file of a seeded run with all four methods on all
    three layers is the bits recorded when the methods moved to the
    block-summed Gram matrices."""
    import hashlib

    cfg = _pinned_embed_config(str(tmp_path))
    for run in (run_generate, run_train, run_embed):
        run(cfg, str(tmp_path))
    files = sorted(p for p in (tmp_path / "embed").glob("*/*")
                   if p.suffix in (".csv", ".meta"))
    assert len(files) == 2 * 4 * 3
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(tmp_path)).encode() + b"\0")
        h.update(path.read_bytes())
    assert h.hexdigest() == EMBED_DIGEST


def test_process_loads_no_scipy_optimize_sparse_or_linalg(tmp_path):
    """A `latentscope` process runs only scipy.special and scipy.ndimage:
    neither importing the CLI nor running all seven stages with every
    embedding method loads scipy.optimize, scipy.sparse or scipy.linalg."""
    run = tmp_path / "run"
    cfg = _pinned_embed_config(str(run))
    cfg = replace(cfg, embed=replace(cfg.embed, tsne_iters=20, umap_epochs=5))
    cfg_file = tmp_path / "run.cfg"
    write_config(cfg, str(cfg_file))
    args = ["--config", str(cfg_file), "--out", str(run)]
    script = textwrap.dedent(f"""
        import sys
        import warnings

        def heavy():
            return "loaded: " + " ".join(sorted(m for m in sys.modules if m.startswith(
                ("scipy.optimize", "scipy.sparse", "scipy.linalg"))))

        from latentscope import cli
        print(heavy())
        warnings.simplefilter("ignore")
        for stage in cli.STAGES:
            assert cli.main([stage, *{args!r}]) == 0, stage
        print(heavy())
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(latentscope.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: ", "loaded: "]
    assert (run / "report" / "stage.stamp").exists()


def test_stage_peaks_script_reports_every_stage_both_ways(tmp_path):
    """scripts/stage_peaks.py on the tiny config: every stage is timed in
    one process and in its own process, each mode's run completes, and the
    two run directories hold the same artifacts."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "stage_peaks.py"
    cfg_file = tmp_path / "tiny.cfg"
    write_config(tiny_config(str(tmp_path)), str(cfg_file))
    out = subprocess.run(
        [sys.executable, str(script), "--config", str(cfg_file),
         "--out", str(tmp_path / "runs")],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "all stages in one process"
    assert "each stage in its own process" in lines
    for stage in STAGES:
        rows = [line.split() for line in lines if line.split()[:1] == [stage]]
        assert len(rows) == 2 and all(row[-1] == "0" for row in rows)
        assert all(float(row[1]) >= 0 and float(row[2]) > 0 for row in rows)
    one = tree_bytes(tmp_path / "runs" / "one-process")
    own = tree_bytes(tmp_path / "runs" / "per-stage")
    assert one == own and "report/stage.stamp" in one


def test_stage_peaks_script_own_only(tmp_path):
    """--own-only runs each stage in its own process and nothing else."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "stage_peaks.py"
    cfg_file = tmp_path / "tiny.cfg"
    write_config(tiny_config(str(tmp_path)), str(cfg_file))
    out = subprocess.run(
        [sys.executable, str(script), "--config", str(cfg_file),
         "--out", str(tmp_path / "runs"), "--own-only"],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "each stage in its own process"
    assert [line.split()[0] for line in lines[2:2 + len(STAGES)]] == list(STAGES)
    assert sorted(os.listdir(tmp_path / "runs")) == ["per-stage"]


def test_paper_grid_config_is_the_probe():
    """scripts/paper_grid.cfg is the paper-grid probe: SPM's 121x145x121
    grid, 116 regions, AD_EFFECTS, mse, batch 8, one epoch, NOR_AD, n = 48."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "scripts" / "paper_grid.cfg")
    assert cfg.phantom.dims == (121, 145, 121)
    assert cfg.phantom.region_count == 116
    assert sorted(cfg.phantom.effect_spec) == sorted(AD_EFFECTS)
    assert sum(cfg.phantom.class_counts.values()) == 48
    assert (cfg.train.loss_kind, cfg.train.batch_size, cfg.train.max_epochs) == ("mse", 8, 1)
    assert cfg.comparisons == ("NOR_AD",)


def test_step_peak_script_reports_each_phase():
    """scripts/step_peak.py prints the step's peak and one line per phase,
    each with a positive size and a latentscope call site, then per relu +
    batch-norm layer the dense and kept xhat and the relu's zero share."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "step_peak.py"
    out = subprocess.run([sys.executable, str(script), "12x10x14", "combined",
                          "--batch", "2"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    head, *phases, cache_head = out.stdout.splitlines()[:5]
    assert head.startswith("grid 12x10x14, batch 2, loss combined: step peak")
    assert [line.split()[0] for line in phases] == ["forward", "loss", "backward"]
    for line in phases:
        size, site = line.split()[1], line.split(" at ", 1)[1]
        assert float(size) > 0 and ".py:" in site
    assert cache_head.startswith("cache per relu + batch-norm layer")
    layers = out.stdout.splitlines()[5:]
    assert [line.split()[0] for line in layers] == ["L1", "L2", "L3", "T1", "T2"]
    for line in layers:
        words = line.split()
        dense, kept, share = float(words[1]), float(words[3]), float(words[-1])
        assert 0 <= kept <= dense and 0 <= share <= 1


def test_step_peak_script_lists_the_sites_of_each_phase():
    """--sites MIB adds, per phase, a count line and every site at or
    above MIB, highest first, none above the phase's peak."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "step_peak.py"
    out = subprocess.run([sys.executable, str(script), "16", "combined", "--batch", "2",
                          "--sites", "0.5"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    peaks = {line.split()[0]: line.split()[1] for line in lines[1:4]}
    counts = [i for i, line in enumerate(lines) if " sites at or above 0.5 MiB: " in line]
    assert [lines[i].split()[0] for i in counts] == ["forward", "loss", "backward"]
    for i, end in zip(counts, counts[1:] + [len(lines)]):
        band = lines[i + 1:end]
        assert len(band) == int(lines[i].rsplit(" ", 1)[1]) > 0
        sizes = [float(line.split()[0]) for line in band]
        assert sizes == sorted(sizes, reverse=True) and min(sizes) >= 0.5
        assert sizes[0] <= float(peaks[lines[i].split()[0]])
        assert all(".py:" in line.split(" at ", 1)[1] for line in band)


class TestStageRerun:
    """A rerun of a stage starts from an empty stage directory."""

    def test_interrupted_rerun_leaves_no_old_stamp(self, tiny_run, tmp_path,
                                                   monkeypatch):
        """A forced train rerun under another config, stopped after its
        model is written, leaves no stamp: embed under the first config
        then refuses the mixed directory instead of taking it as its own."""
        cfg, out = tiny_run
        run = tmp_path / "run"
        shutil.copytree(out, run)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        # run_train writes the training log right after the model
        monkeypatch.setattr("latentscope.pipeline.write_csv", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_train(tiny_config(str(run), seed=8), str(run), force=True)
        monkeypatch.undo()
        assert (run / "train" / "NOR_AD" / "model.lsae").exists()
        assert not (run / "train" / "stage.stamp").exists()
        assert not (run / "lock").exists()
        with pytest.raises(DependencyError, match="'train', which has not run"):
            run_embed(cfg, str(run))

    def test_forced_rerun_leaves_no_stale_artifacts(self, tiny_run, tmp_path):
        """embed with all four methods, then `--stage-force` with PCA alone:
        only the PCA files and the latent are left."""
        cfg, out = tiny_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        every = replace(cfg, embed=replace(cfg.embed, methods=EMBED_METHODS,
                                           perplexity=4.0, tsne_iters=20,
                                           umap_epochs=5))
        run_embed(every, str(run), force=True)
        comp = run / "embed" / "NOR_AD"
        assert (comp / "umap_L3.csv").exists()
        run_embed(cfg, str(run), force=True)
        assert sorted(p.name for p in comp.iterdir()) == [
            "latent.lat", "pca_L3.csv", "pca_L3.meta"]
        assert tree_bytes(run / "embed") == tree_bytes(out / "embed")

    def test_report_rerun_does_not_list_itself(self, tiny_run, tmp_path):
        """The old report stamp is gone before the rerun reads the stamps,
        so provenance.csv is the first run's bytes."""
        cfg, out = tiny_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        run_report(cfg, str(run))
        assert tree_bytes(run / "report") == tree_bytes(out / "report")


def test_embed_peaks_below_one_l1_matrix(tmp_path):
    """run_embed with all four methods on all three layers, traced from
    before the stage starts: the peak stays under one L1 n x p matrix. The
    activations are spilled to disk and each layer is read back one column
    block at a time into n x n Gram matrices, so no layer matrix is built;
    reading whole layer matrices put the peak at about 1.3 x L1 above what
    was live before."""
    import tracemalloc

    cfg = tiny_config(str(tmp_path))
    cfg = replace(cfg,
                  phantom=replace(cfg.phantom, class_counts={0: 24, 3: 24}),
                  embed=replace(cfg.embed, methods=EMBED_METHODS,
                                layers=("L1", "L2", "L3"), tsne_iters=20,
                                umap_epochs=5))
    run_generate(cfg, str(tmp_path))
    run_train(cfg, str(tmp_path))
    tracemalloc.start()
    try:
        run_embed(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    l1_matrix = 48 * 16 * 8 ** 3 * 8  # 48 subjects x L1's (16, 8, 8, 8), float64
    assert peak < l1_matrix


class TestTrimHeap:
    """Each stage starts on a trimmed heap: glibc's malloc_trim(0) where the
    C library has it, nothing where it does not."""

    def test_calls_malloc_trim_with_no_padding(self, monkeypatch):
        import latentscope.pipeline as pipeline

        calls = []

        def malloc_trim(pad):
            calls.append(pad)

        libc = SimpleNamespace(malloc_trim=malloc_trim)
        monkeypatch.setattr(pipeline.sys, "platform", "linux")
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: libc)
        pipeline.trim_heap()
        assert calls == [0]

    def test_no_op_without_malloc_trim(self, monkeypatch):
        import latentscope.pipeline as pipeline

        monkeypatch.setattr(pipeline.sys, "platform", "linux")
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: object())
        assert pipeline.trim_heap() is None

    def test_stage_starts_with_a_trim(self, tmp_path, monkeypatch):
        import latentscope.pipeline as pipeline

        calls = []
        monkeypatch.setattr(pipeline, "trim_heap", lambda: calls.append("trim"))
        with pipeline._stage("generate", tiny_config(str(tmp_path)), tmp_path, False):
            assert calls == ["trim"]


def _open_files() -> dict[str, str]:
    """This process's file descriptors and what each one names."""
    files = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            files[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the descriptor that listed the directory
            pass
    return files


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="lists open files through /proc")
@pytest.mark.parametrize("fail", [False, True], ids=["success", "numeric_error"])
def test_embed_spills_into_its_directory_and_leaves_nothing(tiny_run, tmp_path,
                                                            monkeypatch, fail):
    """While the fits run, the activations are in an anonymous file in
    embed/, with no name on disk. After success, or after a NumericError
    from a fit, embed/ holds nothing beyond the stage's artifacts and no
    file descriptor is left open."""
    import latentscope.pipeline as pipeline

    cfg, out = tiny_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    artifacts = set(tree_bytes(out / "embed"))
    prefix = f"{run / 'embed'}{os.sep}"
    spilled = []
    fit = pipeline.embed_once

    def spying(*args, **kwargs):
        spilled.extend(t for t in _open_files().values() if t.startswith(prefix))
        if fail:
            raise NumericError("injected")
        return fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "embed_once", spying)
    before = _open_files()
    if fail:
        with pytest.raises(NumericError):
            run_embed(cfg, str(run))
    else:
        run_embed(cfg, str(run))
    assert _open_files() == before
    assert len(spilled) == 1 and spilled[0].endswith(" (deleted)")
    left = set(tree_bytes(run / "embed"))
    if fail:
        assert left < artifacts and "stage.stamp" not in left
    else:
        assert left == artifacts


class TestDeterminism:
    def test_rerunning_one_stage_rewrites_identical_bytes(self, tiny_run):
        cfg, out = tiny_run
        before = tree_bytes(out / "embed")
        run_embed(cfg, str(out))
        assert tree_bytes(out / "embed") == before

    def test_full_rerun_is_byte_identical(self, tiny_run, tmp_path):
        cfg, out = tiny_run
        again = tmp_path / "again"
        run_all(tiny_config(str(again)), str(again))
        first, second = tree_bytes(out), tree_bytes(again)
        assert sorted(first) == sorted(second)
        diff = [rel for rel in first if first[rel] != second[rel]]
        assert diff == []


class TestCLI:
    def test_parser_covers_every_stage(self):
        parser = build_parser()
        for stage in STAGES:
            args = parser.parse_args([stage, "--out", "x", "--stage-force"])
            assert args.stage == stage and args.stage_force

    def test_unknown_stage_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["polish"])

    def test_generate_success_and_overrides(self, tmp_path, capsys):
        cfg_file = tmp_path / "study.cfg"
        write_config(tiny_config(str(tmp_path)), str(cfg_file))
        out = tmp_path / "fromcli"
        # generate has no predecessors, so forcing it changes nothing
        code = main(["generate", "--config", str(cfg_file),
                     "--out", str(out), "--seed", "9", "--stage-force"])
        assert code == EXIT_OK
        assert "generate complete" in capsys.readouterr().out
        assert (out / "generate" / "cohort" / "manifest.csv").exists()
        # the seed override participates in the recorded config hash
        want = tiny_config(str(out), seed=9)
        want.phantom.seed = 7  # file seed; only the global seed was overridden
        stamp = (out / "generate" / "stage.stamp").read_text()
        assert f"config_hash={config_hash(want)}" in stamp

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="tunes glibc malloc")
    def test_steps_reuse_freed_memory(self):
        # A stage's pattern in a fresh process: steps that each allocate and
        # free 24 MiB in 2 MiB arrays. Under glibc's default thresholds every
        # step faults its ~6,000 pages in again; once main has kept freed
        # memory, only the first step does.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from latentscope.cli import keep_freed_memory

            def step():
                arrays = [np.ones(1 << 18) for _ in range(12)]
                del arrays

            keep_freed_memory()
            step()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                step()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(latentscope.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert int(out.stdout) < 500

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_undecodable_config_file_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(b"seed=1\n\xff\n")
        code = main(["generate", "--config", str(cfg_file)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bound_complexity_key_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text("bound.complexity=1.0\n")
        code = main(["generate", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "unknown config key 'bound.complexity'" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--seed", "-1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_dependency_exits_3(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path)])
        assert code == EXIT_DEPENDENCY
        assert "dependency error" in capsys.readouterr().err

    def test_stale_then_force(self, tmp_path, capsys):
        cfg_file = tmp_path / "study.cfg"
        write_config(tiny_config(str(tmp_path)), str(cfg_file))
        out = str(tmp_path / "run")
        base = ["--config", str(cfg_file), "--out", out]
        assert main(["generate"] + base) == EXIT_OK
        assert main(["train"] + base + ["--seed", "8"]) == EXIT_DEPENDENCY
        assert "was produced under config hash" in capsys.readouterr().err
        assert main(["train"] + base + ["--seed", "8",
                                        "--stage-force"]) == EXIT_OK

    def test_report_missing_artifact_exits_3(self, tiny_run, tmp_path,
                                             capsys):
        # every stamp is present, but an artifact the report reads is gone
        cfg, out = tiny_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        (copy / "lrcp" / "summary.csv").unlink()
        cfg_file = tmp_path / "study.cfg"
        write_config(cfg, str(cfg_file))
        code = main(["report", "--config", str(cfg_file), "--out", str(copy)])
        assert code == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "summary.csv" in err

    def test_embed_zero_neighbors_exits_2(self, tiny_run, tmp_path, capsys):
        # UMAP with no neighbours used to end in an IndexError traceback
        # inside the embed stage
        cfg, out = tiny_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        cfg = replace(cfg, embed=replace(cfg.embed, methods=("umap",), n_neighbors=0))
        cfg_file = tmp_path / "study.cfg"
        write_config(cfg, str(cfg_file))
        code = main(["embed", "--config", str(cfg_file), "--out", str(copy),
                     "--stage-force"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "n_neighbors" in err

    def _copy_with_config(self, tiny_run, tmp_path):
        cfg, out = tiny_run
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        cfg_file = tmp_path / "study.cfg"
        write_config(cfg, str(cfg_file))
        return copy, ["--config", str(cfg_file), "--out", str(copy)]

    def test_train_missing_volume_exits_3(self, tiny_run, tmp_path, capsys):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        volume = sorted((copy / "generate" / "cohort" / "volumes").iterdir())[0]
        volume.unlink()
        assert main(["train"] + base + ["--stage-force"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and volume.name in err

    def test_train_volume_off_the_atlas_grid_exits_3(self, tiny_run, tmp_path,
                                                     capsys):
        # a well-formed volume on another grid than the atlas used to exit 4
        # (numeric failure) through Cohort's ShapeError
        from latentscope.data import Volume
        from latentscope.fileio import save_volume

        copy, base = self._copy_with_config(tiny_run, tmp_path)
        volume = sorted((copy / "generate" / "cohort" / "volumes").iterdir())[0]
        save_volume(Volume(np.zeros((4, 4, 4))), str(volume))
        assert main(["train"] + base + ["--stage-force"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "!= atlas dims" in err

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    @pytest.mark.parametrize("stage", ["train", "embed", "shap"])
    def test_volume_damaged_after_loading_exits_3(self, tiny_run, tmp_path,
                                                  capsys, monkeypatch, stage,
                                                  damage):
        """A stage reads each volume from disk again where it uses it, after
        `load_cohort` checked them all: a volume truncated or deleted in
        between is a dependency error (exit 3), not a traceback."""
        import latentscope.pipeline as pipeline

        copy, base = self._copy_with_config(tiny_run, tmp_path)
        volume = sorted((copy / "generate" / "cohort" / "volumes").iterdir())[0]
        load = pipeline.load_cohort

        def load_then_damage(directory):
            cohort = load(directory)
            if damage == "truncate":
                volume.write_bytes(volume.read_bytes()[:-4])
            else:
                volume.unlink()
            return cohort

        monkeypatch.setattr(pipeline, "load_cohort", load_then_damage)
        assert main([stage] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and volume.name in err
        assert not (copy / stage / "stage.stamp").exists()

    def test_repeated_embed_entries_exit_2(self, tmp_path, capsys):
        # layers L3,L3 and methods pca,pca used to write each correlation
        # row four times
        cfg = tiny_config(str(tmp_path))
        cfg = replace(cfg, embed=replace(cfg.embed, methods=("pca", "pca"),
                                         layers=("L3", "L3")))
        cfg_file = tmp_path / "study.cfg"
        write_config(cfg, str(cfg_file))
        code = main(["generate", "--config", str(cfg_file),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_CONFIG
        assert "more than once" in capsys.readouterr().err

    def test_embed_missing_model_exits_3(self, tiny_run, tmp_path, capsys):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        (copy / "train" / "NOR_AD" / "model.lsae").unlink()
        assert main(["embed"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "model.lsae" in err

    def test_embed_forged_model_shape_exits_3(self, tiny_run, tmp_path, capsys):
        # the dims line claims far more values than the file holds
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "train" / "NOR_AD" / "model.lsae"
        blob = path.read_bytes()
        dims = blob.split(b"\n", 2)[1]
        path.write_bytes(blob.replace(b"\n" + dims + b"\n", b"\n%d\n" % (1 << 40), 1))
        assert main(["embed"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "model.lsae" in err

    def test_atlas_missing_a_region_exits_3(self, tiny_run, tmp_path, capsys):
        # a well-formed atlas file whose region 2 is relabelled 1: every
        # stage that loads the cohort used to end in a ValueError traceback
        from latentscope.fileio import load_atlas

        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "generate" / "cohort" / "atlas.atl"
        labels = load_atlas(str(path)).labels
        labels[labels == 2] = 1
        head = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join(head[:2]) + b"\n"
                         + labels.astype("<u4").tobytes(order="F"))
        assert main(["correlate"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "atlas.atl" in err
        assert "region ids missing from atlas: [2]" in err

    @pytest.mark.parametrize("old,new", [
        (",3,volumes/", ",x,volumes/"),           # a class label that is no int
        ("id,class_label,volume_path", "id,class_label,path"),
        ("id,class_label,volume_path", "name,class_label,volume_path"),
    ])
    def test_train_malformed_manifest_exits_3(self, tiny_run, tmp_path, capsys,
                                              old, new):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        manifest = copy / "generate" / "cohort" / "manifest.csv"
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new, 1))
        assert main(["train"] + base + ["--stage-force"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "manifest.csv" in err

    def test_train_manifest_that_is_a_directory_exits_3(self, tiny_run,
                                                        tmp_path, capsys):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        manifest = copy / "generate" / "cohort" / "manifest.csv"
        manifest.unlink()
        manifest.mkdir()
        assert main(["train"] + base + ["--stage-force"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "manifest.csv" in err

    def test_train_duplicate_subject_id_exits_3(self, tiny_run, tmp_path, capsys):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        manifest = copy / "generate" / "cohort" / "manifest.csv"
        text = manifest.read_text()
        assert "volume_path\nS0000,0,volumes/S0000.vol\nS0001," in text
        manifest.write_text(text.replace("\nS0001,", "\nS0000,", 1))  # second row
        assert main(["train"] + base + ["--stage-force"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "manifest.csv" in err
        assert "unique" in err

    def test_train_manifest_row_with_extra_field_exits_3(self, tiny_run,
                                                         tmp_path, capsys):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        manifest = copy / "generate" / "cohort" / "manifest.csv"
        text = manifest.read_text()
        manifest.write_text(text.replace(".vol\n", ".vol,extra\n", 1))
        assert main(["train"] + base + ["--stage-force"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "manifest.csv" in err

    @pytest.mark.parametrize("edit", [
        lambda lines: [lines[0].replace(",d1", ",e1")] + lines[1:],  # renamed
        lambda lines: [lines[0].replace("d0,d1", "d1,d0")] + lines[1:],  # swapped
        lambda lines: [lines[0], lines[1] + ",0.5"] + lines[2:],  # extra field
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0]] + lines[2:],  # short
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",x"] + lines[2:],
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",nan"] + lines[2:],
        lambda lines: [lines[0], lines[1].replace(",pca,", ",pls,")] + lines[2:],
        lambda lines: [lines[0], lines[1].replace(",L3,", ",L2,")] + lines[2:],
    ], ids=["renamed", "swapped", "extra_field", "short_row", "non_numeric",
            "non_finite", "method", "layer"])
    def test_lrcp_malformed_embedding_exits_3(self, tiny_run, tmp_path, capsys,
                                              edit):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "embed" / "NOR_AD" / "pca_L3.csv"
        text = path.read_text()
        comments = [ln for ln in text.splitlines() if ln.startswith("#")]
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[0] == "subject_id,method,layer,d0,d1"
        path.write_text("\n".join(comments + edit(lines)) + "\n")
        assert main(["lrcp"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "pca_L3.csv" in err

    @pytest.mark.parametrize("stage", ["lrcp", "correlate"])
    @pytest.mark.parametrize("edit", [
        lambda rows: [rows[0].replace(rows[0].split(",")[0], "ZZZ", 1)] + rows[1:],
        lambda rows: [rows[1], rows[0]] + rows[2:],
        lambda rows: rows[:-1],
    ], ids=["foreign_id", "reordered", "missing_row"])
    def test_embedding_with_other_subjects_exits_3(self, tiny_run, tmp_path,
                                                   capsys, stage, edit):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "embed" / "NOR_AD" / "pca_L3.csv"
        lines = path.read_text().splitlines()
        head = [ln for ln in lines if ln.startswith("#") or ln.startswith("subject_id,")]
        rows = lines[len(head):]
        path.write_text("\n".join(head + edit(rows)) + "\n")
        assert main([stage] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "pca_L3.csv" in err

    @pytest.mark.parametrize("stage", ["correlate", "lrcp"])
    def test_undecodable_meta_is_not_read(self, tiny_run, tmp_path, stage):
        # the embed stage's .meta files are for people; no later stage reads them
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        (copy / "embed" / "NOR_AD" / "pca_L3.meta").write_bytes(b"method=\xff\xfe\n")
        before = tree_bytes(copy / stage)
        assert main([stage] + base) == EXIT_OK
        assert tree_bytes(copy / stage) == before

    @pytest.mark.parametrize("rel,old,new", [
        ("shap/NOR_AD/importance.csv", ",s_r,", ",s_x,"),
        ("lrcp/summary.csv", ",significant,non_significant",
         ",sig,non_significant"),
        ("correlate/NOR_AD/top_regions.csv", ",rank,", ",position,"),
        ("correlate/overlap.csv", "comparison_a,comparison_b,region",
         "comparison_a,comparison_b"),
    ])
    def test_report_malformed_input_exits_3(self, tiny_run, tmp_path, capsys,
                                            rel, old, new):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / rel
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        assert main(["report"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and path.name in err

    def test_shap_before_embed_exits_3(self, tiny_run, tmp_path, capsys):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        shutil.rmtree(copy / "embed")
        assert main(["shap"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "'embed'" in err

    @pytest.mark.parametrize("edit", [
        None,                                                # missing
        lambda d: d[:-3],                                    # truncated
        lambda d: d + b"\x00",                               # trailing byte
        lambda d: b"LSVOL1" + d[6:],                         # wrong magic
        lambda d: d.replace(b"\n16 64 2 2 2\n", b"\n16 64 4 2 1\n", 1),
        lambda d: d.replace(b"\n16 64 2 2 2\n", b"\n8 128 2 2 2\n", 1),
    ], ids=["missing", "truncated", "trailing", "magic", "spatial_shape",
            "subject_count"])
    def test_shap_malformed_latent_exits_3(self, tiny_run, tmp_path, capsys,
                                           edit):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "embed" / "NOR_AD" / "latent.lat"
        data = path.read_bytes()
        path.unlink()
        if edit is not None:
            assert edit(data) != data
            path.write_bytes(edit(data))
        assert main(["shap"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "latent.lat" in err
        assert "Traceback" not in err

    def test_shap_latent_of_another_model_exits_3(self, tiny_run, tmp_path,
                                                  capsys):
        from latentscope.autoencoder import init_params, params_hash
        from latentscope.fileio import load_latent, save_latent

        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "embed" / "NOR_AD" / "latent.lat"
        latent, _ = load_latent(str(path))
        save_latent(latent, params_hash(init_params(seed=1)), str(path))
        assert main(["shap"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "latent.lat" in err
        assert "not the trained one" in err

    def test_shap_leaf_beyond_table_exits_2(self, tmp_path, capsys):
        # 16 regions and 40 subjects a class let a depth-12 forest grow a
        # leaf on more than 8 distinct regions, which exact SHAP refuses
        cfg = tiny_config(str(tmp_path))
        cfg.phantom.region_count = 16
        cfg.phantom.class_counts = {0: 40, 3: 40}
        cfg.forest.max_depth = 12
        cfg.forest.min_leaf = 1
        cfg_file = tmp_path / "study.cfg"
        write_config(cfg, str(cfg_file))
        base = ["--config", str(cfg_file), "--out", str(tmp_path / "run")]
        for stage in ("generate", "train", "embed"):
            assert main([stage] + base) == EXIT_OK
        capsys.readouterr()
        assert main(["shap"] + base) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "shap.max_depth" in err

    @pytest.mark.parametrize("stage", ["embed", "shap"])
    def test_model_of_other_architecture_exits_3(self, tiny_run, tmp_path,
                                                 capsys, stage):
        # a well-formed model file, but with the value count of another
        # autoencoder than the one train builds
        from latentscope.autoencoder import LayerSpec, init_params

        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "train" / "NOR_AD" / "model.lsae"
        other = init_params(seed=1, layers=[
            LayerSpec("conv3d", 1, 4, "relu", True),
            LayerSpec("conv_transpose3d", 4, 1, "sigmoid", False)])
        _write_grid(str(path), MODEL_MAGIC,
                    np.concatenate([a.ravel() for a in other.all_arrays()]), "<f8")
        assert main([stage] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "model.lsae" in err
        assert "architecture" in err and "Traceback" not in err

    def test_layer_outside_encoder_exits_2(self, tiny_run, tmp_path, capsys):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        cfg_file = Path(base[1])
        text = cfg_file.read_text()
        assert "embed.layers=L3\n" in text
        cfg_file.write_text(text.replace("embed.layers=L3\n", "embed.layers=L4\n"))
        # forced past the stale stamps, so only the layer name can stop it
        assert main(["embed"] + base + ["--stage-force"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "'L4'" in err
        assert "Traceback" not in err

    def test_embed_model_arrays_off_spec_exits_3(self, tiny_run, tmp_path,
                                                 capsys):
        # the payload ends one value short of what the dims line says
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "train" / "NOR_AD" / "model.lsae"
        path.write_bytes(path.read_bytes()[:-8])
        assert main(["embed"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "model.lsae" in err

    @pytest.mark.parametrize("stage", ["embed", "shap"])
    @pytest.mark.parametrize("case", ["first_format", "half_payload",
                                      "trailing_bytes", "forged_dims"])
    def test_bad_model_file_exits_3(self, tiny_run, tmp_path, capsys, stage,
                                    case):
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        path = copy / "train" / "NOR_AD" / "model.lsae"
        blob = path.read_bytes()
        dims, payload = blob.split(b"\n", 2)[1:]
        path.write_bytes({
            "first_format": b"LSAE1\n" + dims + b"\n" + payload,
            "half_payload": blob[: len(blob) // 2],
            "trailing_bytes": blob + b"\x00",
            "forged_dims": MODEL_MAGIC + dims + b" 1\n" + payload,
        }[case])
        assert main([stage] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "model.lsae" in err

    def test_manifest_field_over_the_csv_limit_exits_3(self, tiny_run,
                                                       tmp_path, capsys):
        # a subject id longer than the csv module's field limit (131072)
        # used to end in a _csv.Error traceback and exit 1
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        manifest = copy / "generate" / "cohort" / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        row = lines.index("id,class_label,volume_path\n") + 1
        lines[row] = "x" * 200_000 + lines[row][lines[row].index(","):]
        manifest.write_text("".join(lines))
        assert main(["train"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "manifest.csv" in err
        assert "field larger than field limit" in err

    @pytest.mark.parametrize("case", ["undecodable", "directory"])
    def test_unreadable_stamp_exits_3(self, tiny_run, tmp_path, capsys, case):
        # a stamp that is not UTF-8 used to end in a UnicodeDecodeError
        # traceback and exit 1, a directory in its place in an OSError one
        copy, base = self._copy_with_config(tiny_run, tmp_path)
        stamp = copy / "generate" / "stage.stamp"
        if case == "undecodable":
            stamp.write_bytes(b"config_hash=\xff\xfe\n")
        else:
            stamp.unlink()
            stamp.mkdir()
        assert main(["train"] + base) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "dependency error" in err and "stage.stamp" in err

    def test_numeric_failure_exits_4(self, tmp_path, capsys):
        # four subjects per class is enough to generate and train on but too
        # few for the attribution forest, which needs five samples
        cfg = tiny_config(str(tmp_path))
        cfg.phantom.class_counts = {0: 4, 3: 4}
        cfg_file = tmp_path / "study.cfg"
        write_config(cfg, str(cfg_file))
        out = str(tmp_path / "run")
        base = ["--config", str(cfg_file), "--out", out]
        assert main(["generate"] + base) == EXIT_OK
        assert main(["train"] + base) == EXIT_OK
        assert main(["embed"] + base) == EXIT_OK
        assert main(["shap"] + base) == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("stage", STAGES)
def test_failing_stage_body_leaves_no_stamp_and_no_lock(tiny_run, tmp_path,
                                                        capsys, monkeypatch,
                                                        stage):
    """Every stage runs under one contract: an error raised inside its body
    maps to its exit code, writes no stamp for the stage and frees the lock."""
    cfg, out = tiny_run
    run = tmp_path / "run"
    if stage == "generate":
        run.mkdir()
    else:
        shutil.copytree(out, run)
        shutil.rmtree(run / stage)  # the stage has not run here yet
    cfg_file = tmp_path / "study.cfg"
    write_config(cfg, str(cfg_file))
    calls = []

    def failing_write_csv(path, *args, **kwargs):
        calls.append(path)
        raise NumericError("injected failure")

    # every stage writes at least one CSV, after its predecessors are checked
    monkeypatch.setattr("latentscope.pipeline.write_csv", failing_write_csv)
    code = main([stage, "--config", str(cfg_file), "--out", str(run)])
    assert calls, "the stage body never ran"
    assert code == EXIT_NUMERIC
    assert "injected failure" in capsys.readouterr().err
    assert not (run / stage / "stage.stamp").exists()
    assert not (run / "lock").exists()
