"""scripts/compare_runs.py on two small synthetic run directories."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _SCRIPT)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def _write(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


BASE = {
    "embed/NOR_AD/pca_L1.csv": "# seed=1\nsubject_id,d0,d1\nS1,0.5,2.0\nS2,-1.25,1e-09\n",
    "embed/NOR_AD/pca_L1.meta": "method=pca\n",
    "lrcp/grid.csv": "region,rank,r,category,flag\n3,1,0.25,both,\n4,2,nan,neither,undefined\n",
    "report/summary.csv": "a,b\n1,2\n",
}


@pytest.fixture
def runs(tmp_path):
    a = _write(tmp_path / "a", BASE)
    b = _write(tmp_path / "b", BASE)
    return a, b


def test_equal_trees(runs, capsys):
    a, b = runs
    assert compare_runs.compare_runs(a, b) == {"only_a": [], "only_b": [], "differ": {}}
    assert compare_runs.main([str(a), str(b)]) == 0
    assert "0 of 4 files differ" in capsys.readouterr().out


def test_numeric_and_label_changes(runs, capsys):
    a, b = runs
    _write(b, {
        # a last-digit change, and a value near zero that moves by 10 % of
        # itself but by 5e-11 of its column's scale
        "embed/NOR_AD/pca_L1.csv": "# seed=1\nsubject_id,d0,d1\nS1,0.5000000000001,2.0\nS2,-1.25,1.1e-09\n",
        # the float moves by 2 %, and a category and an integer rank change
        "lrcp/grid.csv": "region,rank,r,category,flag\n3,2,0.245,both,\n4,2,nan,either,undefined\n",
        "embed/NOR_AD/pca_L1.meta": "method=pls\n",
        "report/extra.csv": "x\n1\n",
    })
    (b / "report/summary.csv").unlink()
    result = compare_runs.compare_runs(a, b)
    assert result["only_a"] == ["report/summary.csv"]
    assert result["only_b"] == ["report/extra.csv"]
    differ = result["differ"]
    assert set(differ) == {"embed/NOR_AD/pca_L1.csv", "embed/NOR_AD/pca_L1.meta",
                           "lrcp/grid.csv"}
    assert differ["embed/NOR_AD/pca_L1.meta"] == {
        "only_a": [], "only_b": [], "changed": ["method"]}
    pca = differ["embed/NOR_AD/pca_L1.csv"]
    assert pca["labels"] == 0
    assert pca["max_rel"] == pytest.approx(0.1 / 1.1)
    assert pca["max_rel_col"] == pytest.approx(1e-10 / 2.0)
    grid = differ["lrcp/grid.csv"]
    # the rank 1 -> 2 and neither -> either; the NaN stays a NaN
    assert grid["labels"] == 2
    assert grid["max_rel"] == pytest.approx(0.005 / 0.25)
    assert grid["max_rel_col"] == pytest.approx(0.005 / 0.25)
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "only in A  report/summary.csv" in out
    assert ("differs    embed/NOR_AD/pca_L1.meta  keys only in A: -"
            "  only in B: -  changed: method") in out
    assert ("differs    lrcp/grid.csv  max_rel=0.02  max_rel_col=0.02"
            "  labels_changed=2") in out


def test_shape_change(runs):
    a, b = runs
    _write(b, {"report/summary.csv": "a,b\n1,2\n3,4\n"})
    assert compare_runs.compare_runs(a, b)["differ"] == {
        "report/summary.csv": {"shape": True}}


def test_nan_against_number_is_infinite(runs):
    a, b = runs
    _write(b, {"lrcp/grid.csv": "region,rank,r,category,flag\n3,1,0.25,both,\n4,2,0.1,neither,undefined\n"})
    grid = compare_runs.compare_runs(a, b)["differ"]["lrcp/grid.csv"]
    assert grid["max_rel"] == grid["max_rel_col"] == float("inf")


def test_meta_keys_added_removed_and_changed(runs, capsys):
    a, b = runs
    _write(a, {"embed/NOR_AD/tsne_L3.meta": "iters=300\nlr=200.0\nold=1\n",
               "embed/NOR_AD/latent.lat": "LSLAT1\n"})
    _write(b, {"embed/NOR_AD/tsne_L3.meta":
               "iters=300\nkl_every=50\nkl_history=1.5;0.25\nlr=100.0\n",
               "embed/NOR_AD/latent.lat": "LSLAT1\n\x00"})
    differ = compare_runs.compare_runs(a, b)["differ"]
    assert differ == {
        "embed/NOR_AD/latent.lat": None,
        "embed/NOR_AD/tsne_L3.meta": {"only_a": ["old"],
                                      "only_b": ["kl_every", "kl_history"],
                                      "changed": ["lr"]}}
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("differs    embed/NOR_AD/tsne_L3.meta  keys only in A: old"
            "  only in B: kl_every,kl_history  changed: lr") in out
    assert "differs    embed/NOR_AD/latent.lat\n" in out


def test_closed_pipe_leaves_quietly(tmp_path):
    """A reader that stops early (`compare_runs.py A B | head -1`) ends the
    script without a traceback. The listing, over 100 KB, is larger than a
    pipe holds, so the script is still writing when the reader closes."""
    a, b = tmp_path / "a", tmp_path / "b"
    b.mkdir()
    _write(a, {f"f{i:04d}_{'x' * 240}.csv": "" for i in range(400)})
    proc = subprocess.Popen([sys.executable, str(_SCRIPT), str(a), str(b)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"only in A  f0000_")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
