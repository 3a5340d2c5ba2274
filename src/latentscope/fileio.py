"""Artifact file formats.

Raw volume: magic "LSVOL1\\n", ASCII line "dx dy dz\\n", then dx*dy*dz
little-endian float32 values in x-fastest order (stream index
p = x + dx*(y + dy*z)). Atlas: same layout with magic "LSATL1\\n" and
little-endian uint32 labels. Latent: magic "LSLAT1\\n", ASCII lines
"params_sha256=<hex>\\n" (the hash of the model that computed it) and
"n C x y z\\n", then little-endian float64 values in C order (z fastest),
so each subject's row is contiguous and `LatentFile` reads a slice of rows.
Model: magic "LSAE2\\n", ASCII line "P\\n", then the P parameters of the
fixed autoencoder architecture as little-endian float64, its arrays in
`AEParams.all_arrays` order, each flattened in C order (see
autoencoder.save_model).
Cohort manifest: CSV id,class_label,volume_path, with no comment line, and
volume paths relative to the manifest's directory. `load_cohort` reads
and checks every volume, then keeps only its path and dims
(`StoredVolume`): a stage reads a subject's voxels from its file each time
it uses them, one batch or one subject at a time.

CSV writers emit floats via repr() of the Python float (shortest round-trip
form) so artifact bytes are reproducible across runs. Leading '#' lines are
reserved for metadata comments and skipped by the reader.
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

from .data import AtlasMap, Cohort, Subject, Volume
from .errors import DependencyError, FormatError, ShapeError

VOLUME_MAGIC = b"LSVOL1\n"
ATLAS_MAGIC = b"LSATL1\n"
LATENT_MAGIC = b"LSLAT1\n"
# bytes of latent rows that save_latent writes at a time
LATENT_CHUNK_BYTES = 4 << 20

# refuse grids beyond this value count when parsing headers
_MAX_VALUES = 2**31

_MANIFEST_COLUMNS = ["id", "class_label", "volume_path"]


def _read_line(f: io.BufferedReader, what: str, limit: int = 64) -> bytes:
    line = f.readline(limit)
    if not line.endswith(b"\n"):
        raise FormatError(f"malformed {what} line")
    return line


def _parse_shape(line: bytes, ndim: int) -> tuple[int, ...]:
    parts = line.decode("ascii", errors="replace").split()
    if len(parts) != ndim:
        raise FormatError(f"expected {ndim} dims, got {parts!r}")
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"non-integer dims {parts!r}") from exc
    if any(d <= 0 for d in shape):
        raise FormatError(f"non-positive dims {shape}")
    if math.prod(shape) > _MAX_VALUES:
        raise FormatError(f"dims {shape} overflow the value budget")
    return shape


def _write_head(f, magic: bytes, shape, header: dict[str, str] | None) -> None:
    f.write(magic)
    for key, value in (header or {}).items():
        f.write(f"{key}={value}\n".encode("ascii"))
    f.write((" ".join(str(d) for d in shape) + "\n").encode("ascii"))


def _write_values(f, arr: np.ndarray, dtype: str, order: str) -> None:
    """arr's values as `dtype` in `order`: written from arr's own memory
    where it already has that dtype and layout, else from one copy."""
    data = np.asarray(arr, dtype=dtype)
    # F order of data is C order of its transpose
    data = data.T if order == "F" else data
    f.write(data if data.flags.c_contiguous else data.tobytes())


def _write_grid(path: str, magic: bytes, arr: np.ndarray, dtype: str,
                order: str = "F", header: dict[str, str] | None = None) -> None:
    """Magic, one `key=value` line per header entry, the shape line, then
    the values in `order` ("F": first axis fastest; "C": last axis fastest)."""
    with open(path, "wb") as f:
        _write_head(f, magic, arr.shape, header)
        _write_values(f, arr, dtype, order)


def _read_header(f, magic: bytes, dtype: str, ndim: int,
                 keys: tuple[str, ...]) -> tuple[dict[str, str], tuple[int, ...]]:
    """The header of a `_write_grid` file open at its start: checks the
    magic, each header key in turn, the shape line and that the payload
    left is exactly as long as the shape says, reading no payload; `f` is
    left at the payload's first byte."""
    got = f.read(len(magic))
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    header = {}
    for key in keys:
        line = _read_line(f, key, limit=128)
        text = line[:-1].decode("ascii", errors="replace")
        name, sep, value = text.partition("=")
        if name != key or not sep:
            raise FormatError(f"expected a {key}= line, got {line!r}")
        header[key] = value
    shape = _parse_shape(_read_line(f, "dims"), ndim)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    # sized from the file first: a forged shape line must not make a read
    # allocate more than the file holds
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < nbytes:
        raise FormatError(f"truncated payload: expected {nbytes} bytes, got {left}")
    if left > nbytes:
        raise FormatError("trailing bytes after payload")
    return header, shape


def _read_grid(path: str, magic: bytes, dtype: str, ndim: int = 3,
               order: str = "F", keys: tuple[str, ...] = ()):
    """Inverse of `_write_grid`: returns (array, {key: value}) after
    `_read_header`'s checks."""
    try:
        with open(path, "rb") as f:
            header, shape = _read_header(f, magic, dtype, ndim, keys)
            payload = f.read(math.prod(shape) * np.dtype(dtype).itemsize)
    except OSError as exc:  # missing or unreadable
        raise DependencyError(f"cannot read artifact {path}: {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    flat = np.frombuffer(payload, dtype=dtype)
    return np.array(flat.reshape(shape, order=order), order="C"), header


def save_volume(volume: Volume, path: str) -> None:
    _write_grid(path, VOLUME_MAGIC, volume.voxels, "<f4")


def load_volume(path: str) -> Volume:
    voxels, _ = _read_grid(path, VOLUME_MAGIC, "<f4")
    try:
        return Volume(voxels)
    except ValueError as exc:  # non-finite or outside [0, 1]
        raise FormatError(f"{path}: {exc}") from exc


class StoredVolume(Volume):
    """A volume file that has been read and checked once: only its path and
    dims are kept, and `voxels` reads and checks the file again on every
    call. A file gone since is a DependencyError; one truncated, corrupted
    or on other dims since, a FormatError. A float32 file read again gives
    the same bits."""

    def __init__(self, path: str, dims: tuple[int, int, int]):
        self.path = path
        self._dims = dims

    @property
    def voxels(self) -> np.ndarray:
        voxels = load_volume(self.path).voxels
        if voxels.shape != self._dims:
            raise FormatError(f"{self.path}: dims {voxels.shape} changed from "
                              f"{self._dims} since the cohort was loaded")
        return voxels

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._dims


def save_atlas(atlas: AtlasMap, path: str) -> None:
    _write_grid(path, ATLAS_MAGIC, atlas.labels, "<u4")


def load_atlas(path: str) -> AtlasMap:
    labels, _ = _read_grid(path, ATLAS_MAGIC, "<u4")
    if labels.max() == 0:
        raise FormatError(f"{path}: atlas has no foreground labels")
    try:
        return AtlasMap(labels=labels, region_count=int(labels.max()))
    except ValueError as exc:  # not every id in 1..max present
        raise FormatError(f"{path}: {exc}") from exc


def save_latent(latent, params_sha256: str, path: str) -> None:
    """Bottleneck activations (n, C, x, y, z) of the model with hash
    `params_sha256`. `latent` has that `shape`, and `latent[a:b]` gives
    rows a to b as an array: an array itself, or rows read from elsewhere
    (`ActivationSet.bottleneck`). It is written `LATENT_CHUNK_BYTES` of rows
    at a time, so the write holds one chunk of rows, never the latent."""
    n, row_bytes = latent.shape[0], math.prod(latent.shape[1:]) * 8
    step = max(1, LATENT_CHUNK_BYTES // max(row_bytes, 1))
    with open(path, "wb") as f:
        _write_head(f, LATENT_MAGIC, latent.shape, {"params_sha256": params_sha256})
        for start in range(0, n, step):
            _write_values(f, latent[start:start + step], "<f8", "C")


class LatentFile:
    """A latent file as `save_latent` wrote it, read a slice of rows at a
    time: `latent[a:b]` is rows a to b, (b - a, C, x, y, z), read from the
    file, and `len(latent)` the row count. Opening it checks the magic, the
    header, the shape and the file size, and reads no values; a file
    missing or unreadable is a DependencyError, one malformed or truncated
    a FormatError."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, "rb") as f:
                header, self.shape = _read_header(f, LATENT_MAGIC, "<f8", 5,
                                                  ("params_sha256",))
                self._offset = f.tell()
            self._row_bytes = math.prod(self.shape[1:]) * 8
        except OSError as exc:
            raise DependencyError(f"cannot read artifact {path}: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        self.params_sha256 = header["params_sha256"]

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("latent rows are read as a contiguous slice")
        out = np.empty((max(stop - start, 0), *self.shape[1:]), dtype="<f8")
        try:
            with open(self.path, "rb") as f:
                f.seek(self._offset + start * self._row_bytes)
                got = f.readinto(out)
        except OSError as exc:
            raise DependencyError(f"cannot read artifact {self.path}: {exc}") from exc
        if got != out.nbytes:
            raise FormatError(f"{self.path}: file ends inside rows {start}:{stop}")
        return out


def load_latent(path: str) -> tuple[np.ndarray, str]:
    """(latent, params_sha256) as `save_latent` wrote them."""
    latent = LatentFile(path)
    return latent[:], latent.params_sha256


def fmt_value(v) -> str:
    """Deterministic scalar formatting for CSV artifacts."""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def write_csv(path: str, fieldnames: list[str], rows, comments=()) -> None:
    with open(path, "w", newline="") as f:
        for c in comments:
            f.write(f"# {c}\n")
        writer = csv.writer(f)
        writer.writerow(fieldnames)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([fmt_value(row[k]) for k in fieldnames])
            else:
                writer.writerow([fmt_value(v) for v in row])


def _data_lines(path: str) -> list[str]:
    try:
        with open(path, "r", newline="") as f:
            return [ln for ln in f if not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:  # missing or unreadable
        raise DependencyError(f"cannot read artifact {path}: {exc}") from exc


def read_table(path: str, columns: list[str]) -> list[dict[str, str]]:
    """Rows of a CSV artifact whose header must be exactly `columns`, with one
    field per column in every row; anything else is a FormatError."""
    try:
        rows = [row for row in csv.reader(_data_lines(path)) if row]
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise FormatError(f"{path}: {exc}") from exc
    header = rows[0] if rows else []
    if header != columns:
        raise FormatError(f"{path}: header {','.join(header)!r}, "
                          f"expected {','.join(columns)!r}")
    for i, row in enumerate(rows[1:], 1):
        if len(row) != len(columns):
            raise FormatError(f"{path}: data row {i} has {len(row)} fields, "
                              f"expected {len(columns)}")
    return [dict(zip(columns, row)) for row in rows[1:]]


def save_cohort(directory: str, cohort: Cohort) -> None:
    """Write manifest.csv, atlas.atl, and one volume file per subject."""
    os.makedirs(os.path.join(directory, "volumes"), exist_ok=True)
    save_atlas(cohort.atlas, os.path.join(directory, "atlas.atl"))
    rows = []
    for s in cohort.subjects:
        rel = os.path.join("volumes", f"{s.id}.vol")
        save_volume(s.volume, os.path.join(directory, rel))
        rows.append((s.id, s.class_label, rel))
    write_csv(os.path.join(directory, "manifest.csv"), _MANIFEST_COLUMNS, rows)


def load_cohort(directory: str) -> Cohort:
    """The cohort `save_cohort` wrote: every volume is read and checked,
    but only its path and dims are kept (`StoredVolume`)."""
    manifest = os.path.join(directory, "manifest.csv")
    if not os.path.exists(manifest):
        raise FormatError(f"missing manifest {manifest}")
    atlas = load_atlas(os.path.join(directory, "atlas.atl"))
    subjects = []
    try:
        for row in read_table(manifest, _MANIFEST_COLUMNS):
            path = os.path.join(directory, row["volume_path"])
            vol = StoredVolume(path, load_volume(path).dims)
            subjects.append(
                Subject(id=row["id"], class_label=int(row["class_label"]), volume=vol)
            )
        return Cohort(subjects=subjects, atlas=atlas)
    except ValueError as exc:  # a class label that is no int, a repeated id
        raise FormatError(f"malformed manifest {manifest}: {exc!r}") from exc
    except ShapeError as exc:  # a volume on another grid than the atlas
        raise FormatError(f"cohort {directory}: {exc}") from exc
