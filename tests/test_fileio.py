"""Artifact file formats: volumes, atlases, cohort manifests, CSV."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentscope.data import AtlasMap, Volume
from latentscope.errors import DependencyError, FormatError, LatentScopeError
from latentscope.fileio import (StoredVolume, load_atlas, load_cohort,
                                load_latent, load_volume, read_table,
                                save_atlas, save_cohort, save_latent,
                                save_volume, write_csv)


def _random_volume(seed, dims=(4, 5, 6)):
    rng = np.random.default_rng(seed)
    return Volume(rng.uniform(0, 1, size=dims).astype(np.float32))


def test_volume_round_trip_is_bit_exact(tmp_path):
    vol = _random_volume(0)
    path = str(tmp_path / "v.vol")
    save_volume(vol, path)
    back = load_volume(path)
    assert back.dims == vol.dims
    assert np.array_equal(back.voxels, vol.voxels)


def test_zero_volume_payload_layout(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    path = tmp_path / "z.vol"
    save_volume(vol, str(path))
    data = path.read_bytes()
    assert data.startswith(b"LSVOL1\n")
    rest = data[len(b"LSVOL1\n"):]
    header, payload = rest.split(b"\n", 1)
    assert header == b"2 2 2"
    assert payload == b"\x00" * 32  # 8 voxels x 4 bytes


def test_volume_payload_is_x_fastest(tmp_path):
    voxels = np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 32
    path = tmp_path / "o.vol"
    save_volume(Volume(voxels), str(path))
    payload = path.read_bytes().split(b"\n", 2)[2]
    assert payload == voxels.transpose(2, 1, 0).astype("<f4").tobytes()


def test_magic_mismatch_raises_format_error(tmp_path):
    path = tmp_path / "bad.vol"
    path.write_bytes(b"NOTMAG\n2 2 2\n" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_volume(str(path))


def test_truncated_payload_raises_format_error(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    path = tmp_path / "t.vol"
    save_volume(vol, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(FormatError):
        load_volume(str(path))


def test_malformed_dims_line_raises_format_error(tmp_path):
    path = tmp_path / "d.vol"
    path.write_bytes(b"LSVOL1\n2 x 2\n" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_volume(str(path))


def test_atlas_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    labels = rng.integers(1, 4, size=(3, 4, 3)).astype(np.uint32)
    labels.flat[:3] = [1, 2, 3]
    atlas = AtlasMap(labels=labels, region_count=3)
    path = str(tmp_path / "a.atl")
    save_atlas(atlas, path)
    back = load_atlas(path)
    assert back.region_count == 3
    assert np.array_equal(back.labels, atlas.labels)


def test_atlas_magic_differs_from_volume(tmp_path):
    vol = _random_volume(2)
    path = str(tmp_path / "v.vol")
    save_volume(vol, path)
    with pytest.raises(FormatError):
        load_atlas(path)


def _headed(magic: bytes, dims, payload: bytes) -> bytes:
    """A grid file as `_write_grid` lays it out: magic, shape line, payload."""
    return magic + " ".join(map(str, dims)).encode() + b"\n" + payload


def _grid_bytes(magic: bytes, values: np.ndarray, dtype: str) -> bytes:
    """The grid file of `values`, which no constructor need accept."""
    return _headed(magic, values.shape, values.astype(dtype).tobytes(order="F"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 1.5])
def test_volume_with_invalid_voxels_raises_format_error(tmp_path, value):
    voxels = np.full((2, 2, 2), 0.5, dtype=np.float32)
    voxels[1, 0, 1] = value
    path = tmp_path / "v.vol"
    path.write_bytes(_grid_bytes(b"LSVOL1\n", voxels, "<f4"))
    with pytest.raises(FormatError, match="v.vol"):
        load_volume(str(path))


def test_atlas_missing_a_region_id_raises_format_error(tmp_path):
    labels = np.array([0, 1, 3, 3, 1, 0, 3, 1], dtype=np.uint32).reshape(2, 2, 2)
    path = tmp_path / "a.atl"
    path.write_bytes(_grid_bytes(b"LSATL1\n", labels, "<u4"))
    with pytest.raises(FormatError, match=r"a.atl: region ids missing from atlas: \[2\]"):
        load_atlas(str(path))


def test_atlas_with_a_huge_label_allocates_nothing_of_its_size(tmp_path):
    # one label 2^32 - 1 names 4e9 regions; checking them must not allocate
    # an id array that large
    labels = np.full((4, 4, 4), 2**32 - 1, dtype=np.uint32)
    path = tmp_path / "a.atl"
    path.write_bytes(_grid_bytes(b"LSATL1\n", labels, "<u4"))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="exceeds the atlas's 64 voxels"):
            load_atlas(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _grid_blobs(magic: bytes, itemsize: int):
    """Arbitrary bytes, bytes after the magic, and valid headers followed
    by payloads of arbitrary content, of the right length or not."""
    dims = st.tuples(*[st.integers(1, 3)] * 3)
    exact = dims.flatmap(lambda d: st.binary(
        min_size=itemsize * int(np.prod(d)), max_size=itemsize * int(np.prod(d))
    ).map(lambda payload: _headed(magic, d, payload)))
    return st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda tail: magic + tail),
        st.tuples(dims, st.binary(max_size=120)).map(lambda t: _headed(magic, *t)),
        exact,
    )


@settings(max_examples=200, deadline=None)
@given(_grid_blobs(b"LSVOL1\n", 4))
def test_volume_loader_total_on_arbitrary_bytes(tmp_path_factory, blob):
    """Any file content gives a valid volume or a package error."""
    path = tmp_path_factory.getbasetemp() / "arbitrary.vol"
    path.write_bytes(blob)
    try:
        volume = load_volume(str(path))
    except LatentScopeError:
        return
    assert np.isfinite(volume.voxels).all()
    assert volume.voxels.min() >= 0.0 and volume.voxels.max() <= 1.0
    assert blob.endswith(volume.voxels.astype("<f4").tobytes(order="F"))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _grid_blobs(b"LSATL1\n", 4),
    # valid headers whose labels are small, so that some atlases are valid
    st.tuples(*[st.integers(1, 3)] * 3).flatmap(lambda d: st.lists(
        st.integers(0, 4), min_size=int(np.prod(d)), max_size=int(np.prod(d))
    ).map(lambda v: _grid_bytes(b"LSATL1\n", np.array(v).reshape(d), "<u4"))),
))
def test_atlas_loader_total_on_arbitrary_bytes(tmp_path_factory, blob):
    """Any file content gives a valid atlas or a package error."""
    path = tmp_path_factory.getbasetemp() / "arbitrary.atl"
    path.write_bytes(blob)
    try:
        atlas = load_atlas(str(path))
    except LatentScopeError:
        return
    ids = np.unique(atlas.labels)
    assert ids[-1] == atlas.region_count
    assert set(ids[ids > 0]) == set(range(1, atlas.region_count + 1))
    assert blob.endswith(atlas.labels.astype("<u4").tobytes(order="F"))


def test_cohort_round_trip(tmp_path, small_cohort):
    directory = str(tmp_path / "cohort")
    save_cohort(directory, small_cohort)
    back = load_cohort(directory)
    assert back.subject_ids == small_cohort.subject_ids
    assert list(back.class_labels) == list(small_cohort.class_labels)
    assert np.array_equal(back.atlas.labels, small_cohort.atlas.labels)
    for sa, sb in zip(back.subjects, small_cohort.subjects):
        assert np.array_equal(sa.volume.voxels, sb.volume.voxels)


def _saved_cohort(directory, dims=(32, 32, 32), n=8):
    from latentscope.phantom import PhantomConfig, generate_phantom_cohort

    cohort = generate_phantom_cohort(PhantomConfig(
        dims=dims, region_count=4, class_counts={0: n // 2, 3: n - n // 2},
        effect_spec=[], noise_sigma=0.05, smoothness=1.0, seed=2))
    save_cohort(str(directory), cohort)
    return cohort


def test_load_cohort_keeps_no_voxel_array(tmp_path):
    """A loaded cohort keeps each subject's path and dims, not its voxels:
    what stays allocated is the atlas (the size of one volume) and
    bookkeeping, against 8 volumes' worth when the voxels were kept."""
    _saved_cohort(tmp_path)
    one_volume = 32 ** 3 * 4
    tracemalloc.start()
    try:
        loaded = load_cohort(str(tmp_path))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * one_volume
    for s in loaded.subjects:
        assert isinstance(s.volume, StoredVolume)
        assert not any(isinstance(v, np.ndarray) for v in vars(s.volume).values())
        assert s.volume.dims == (32, 32, 32)


def test_stored_volume_reads_its_file_on_every_use(tmp_path):
    cohort = _saved_cohort(tmp_path, dims=(8, 9, 10), n=2)
    loaded = load_cohort(str(tmp_path))
    stored = loaded.subjects[0].volume
    first = stored.voxels
    assert first.tobytes() == cohort.subjects[0].volume.voxels.tobytes()
    assert stored.voxels is not first  # read again, not cached
    save_volume(Volume(np.full((8, 9, 10), 0.25)), stored.path)
    assert (stored.voxels == np.float32(0.25)).all()


@pytest.mark.parametrize("damage,error", [
    ("truncate", FormatError), ("other dims", FormatError),
    ("delete", DependencyError)])
def test_stored_volume_damaged_after_loading(tmp_path, damage, error):
    _saved_cohort(tmp_path, dims=(8, 9, 10), n=2)
    stored = load_cohort(str(tmp_path)).subjects[0].volume
    if damage == "truncate":
        with open(stored.path, "r+b") as f:
            f.truncate(os.path.getsize(stored.path) - 4)
    elif damage == "other dims":
        save_volume(Volume(np.zeros((10, 9, 8))), stored.path)
    else:
        os.unlink(stored.path)
    with pytest.raises(error, match=os.path.basename(stored.path)):
        stored.voxels


def test_csv_round_trip_with_comments(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    write_csv(path, ["a", "b"], rows, comments=("config_hash=deadbeef",))
    back = read_table(path, ["a", "b"])
    assert back == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]
    with open(path, encoding="utf-8") as f:
        first = f.readline()
    assert first.startswith("#") and "deadbeef" in first


def test_csv_float_formatting_is_round_trippable(tmp_path):
    path = str(tmp_path / "f.csv")
    value = 0.1234567890123456789
    write_csv(path, ["v"], [{"v": value}])
    back = float(read_table(path, ["v"])[0]["v"])
    assert back == pytest.approx(value, rel=0, abs=0) or back == float(
        np.float64(value))


def test_csv_missing_or_unreadable_is_package_error(tmp_path):
    with pytest.raises(DependencyError, match="absent.csv"):
        read_table(str(tmp_path / "absent.csv"), ["a", "b"])
    with pytest.raises(DependencyError):
        read_table(str(tmp_path), ["a", "b"])  # a directory, not a file
    path = tmp_path / "binary.csv"
    path.write_bytes(b"a,b\n\xff\xfe,1\n")
    with pytest.raises(DependencyError):
        read_table(str(path), ["a", "b"])


def test_table_needs_exact_header_and_full_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [{"a": 1, "b": "x"}], comments=("c=1",))
    assert read_table(str(path), ["a", "b"]) == [{"a": "1", "b": "x"}]
    for columns in (["b", "a"], ["a"], ["a", "b", "c"]):
        with pytest.raises(FormatError, match="header"):
            read_table(str(path), columns)
    for row in ("1", "1,x,2"):
        path.write_text(f"a,b\n{row}\n")
        with pytest.raises(FormatError, match="1 has"):
            read_table(str(path), ["a", "b"])
    path.write_text("")
    with pytest.raises(FormatError, match="header"):
        read_table(str(path), ["a", "b"])
    with pytest.raises(DependencyError, match="absent.csv"):
        read_table(str(tmp_path / "absent.csv"), ["a", "b"])


def test_field_over_the_csv_limit_raises_format_error(tmp_path):
    # the csv module refuses fields over 131072 characters; that used to
    # escape as _csv.Error
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "x" * 200_000 + ",1\n")
    with pytest.raises(FormatError, match="t.csv: field larger"):
        read_table(str(path), ["a", "b"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda tail: b"a,b\n" + tail),
    # one field on either side of the csv module's size limit
    st.integers(0, 200_000).map(lambda n: b"a,b\n" + b"x" * n + b",1\n"),
))
def test_read_table_total_on_arbitrary_bytes(tmp_path_factory, blob):
    """Any file content gives rows of exactly the asked columns or a
    package error."""
    path = tmp_path_factory.getbasetemp() / "arbitrary.csv"
    path.write_bytes(blob)
    try:
        rows = read_table(str(path), ["a", "b"])
    except LatentScopeError:
        return
    for row in rows:
        assert list(row) == ["a", "b"]
        assert all(isinstance(v, str) for v in row.values())


def test_grid_missing_or_unreadable_is_dependency_error(tmp_path):
    with pytest.raises(DependencyError, match="absent.vol"):
        load_volume(str(tmp_path / "absent.vol"))
    with pytest.raises(DependencyError, match="absent.atl"):
        load_atlas(str(tmp_path / "absent.atl"))
    with pytest.raises(DependencyError):
        load_volume(str(tmp_path))  # a directory, not a file


HASH = "ab" * 32
LATENT = np.arange(2 * 3 * 2 * 1 * 2, dtype=np.float64).reshape(2, 3, 2, 1, 2) / 7


def _latent_bytes(tmp_path) -> bytes:
    path = tmp_path / "latent.lat"
    save_latent(LATENT, HASH, str(path))
    return path.read_bytes()


def test_latent_round_trip_and_layout(tmp_path):
    data = _latent_bytes(tmp_path)
    head = b"LSLAT1\nparams_sha256=" + HASH.encode() + b"\n2 3 2 1 2\n"
    assert data == head + LATENT.astype("<f8").tobytes()  # C order
    back, params_sha256 = load_latent(str(tmp_path / "latent.lat"))
    assert params_sha256 == HASH
    assert back.shape == LATENT.shape and back.tobytes() == LATENT.tobytes()


def test_latent_array_is_written_without_a_copy(tmp_path):
    """A C-contiguous float64 latent is written from its own memory: the
    write's traced peak stays far below the array."""
    import tracemalloc

    latent = np.random.default_rng(0).uniform(size=(16, 8, 4, 4, 4))
    tracemalloc.start()
    try:
        save_latent(latent, HASH, str(tmp_path / "latent.lat"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    back, _ = load_latent(str(tmp_path / "latent.lat"))
    assert back.tobytes() == latent.tobytes()
    assert peak < latent.nbytes / 4


@pytest.mark.parametrize("edit", [
    lambda d: d[:-3],                                        # truncated
    lambda d: d + b"\x00",                                   # trailing byte
    lambda d: b"LSVOL1" + d[6:],                             # wrong magic
    lambda d: d.replace(b"params_sha256=", b"params_sha25=", 1),
    lambda d: d.replace(b"\n2 3 2 1 2\n", b"\n2 3 2 2\n", 1),  # four dims
    lambda d: d.replace(b"\n2 3 2 1 2\n", b"\n2 3 2 1 1\n", 1),  # payload too long
    lambda d: d.replace(b"\n2 3 2 1 2\n", b"\n65536 65536 65536 1 1\n", 1),
], ids=["truncated", "trailing", "magic", "hash_key", "ndim", "shape",
        "over_budget"])
def test_malformed_latent_raises_format_error(tmp_path, edit):
    path = tmp_path / "latent.lat"
    path.write_bytes(edit(_latent_bytes(tmp_path)))
    with pytest.raises(FormatError):
        load_latent(str(path))


def test_missing_latent_is_dependency_error(tmp_path):
    with pytest.raises(DependencyError, match="absent.lat"):
        load_latent(str(tmp_path / "absent.lat"))


_VALID_LATENT = (b"LSLAT1\nparams_sha256=" + HASH.encode() + b"\n1 2 1 1 2\n"
                 + np.arange(4.0).astype("<f8").tobytes())


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda tail: b"LSLAT1\n" + tail),
    st.tuples(st.integers(0, len(_VALID_LATENT)), st.binary(max_size=40)).map(
        lambda t: _VALID_LATENT[:t[0]] + t[1]),
    st.tuples(st.integers(0, len(_VALID_LATENT) - 1), st.integers(0, 255)).map(
        lambda t: _VALID_LATENT[:t[0]] + bytes([t[1]]) + _VALID_LATENT[t[0] + 1:]),
))
def test_latent_loader_total_on_arbitrary_bytes(tmp_path_factory, blob):
    """Any file content gives a 5-d float64 array or a package error."""
    path = tmp_path_factory.getbasetemp() / "arbitrary.lat"
    path.write_bytes(blob)
    try:
        latent, params_sha256 = load_latent(str(path))
    except LatentScopeError:
        return
    assert latent.ndim == 5 and latent.dtype == np.float64
    assert blob.endswith(latent.astype("<f8").tobytes())
