"""Artifact file formats.

Raw volume: magic "LSVOL1\\n", ASCII line "dx dy dz\\n", then dx*dy*dz
little-endian float32 values in x-fastest order (stream index
p = x + dx*(y + dy*z)). Atlas: same layout with magic "LSATL1\\n" and
little-endian uint32 labels. Latent: magic "LSLAT1\\n", ASCII lines
"params_sha256=<hex>\\n" (the hash of the model that computed it) and
"n C x y z\\n", then little-endian float64 values in C order (z fastest).
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


def _write_grid(path: str, magic: bytes, arr: np.ndarray, dtype: str,
                order: str = "F", header: dict[str, str] | None = None) -> None:
    """Magic, one `key=value` line per header entry, the shape line, then
    the values in `order` ("F": first axis fastest; "C": last axis fastest)."""
    with open(path, "wb") as f:
        f.write(magic)
        for key, value in (header or {}).items():
            f.write(f"{key}={value}\n".encode("ascii"))
        f.write((" ".join(str(d) for d in arr.shape) + "\n").encode("ascii"))
        f.write(np.asarray(arr, dtype=dtype).tobytes(order=order))


def _read_grid(path: str, magic: bytes, dtype: str, ndim: int = 3,
               order: str = "F", keys: tuple[str, ...] = ()):
    """Inverse of `_write_grid`: returns (array, {key: value}) after checking
    the magic, each header key in turn, the shape line and that the payload
    is exactly as long as the shape says."""
    itemsize = np.dtype(dtype).itemsize
    try:
        with open(path, "rb") as f:
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
            nbytes = math.prod(shape) * itemsize
            # sized from the file first: a forged shape line must not make
            # the read allocate more than the file holds
            left = os.fstat(f.fileno()).st_size - f.tell()
            if left < nbytes:
                raise FormatError(
                    f"truncated payload: expected {nbytes} bytes, got {left}")
            if left > nbytes:
                raise FormatError("trailing bytes after payload")
            payload = f.read(nbytes)
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


def save_latent(latent: np.ndarray, params_sha256: str, path: str) -> None:
    """Bottleneck activations (n, C, x, y, z) of the model with hash
    `params_sha256`."""
    _write_grid(path, LATENT_MAGIC, latent, "<f8", order="C",
                header={"params_sha256": params_sha256})


def load_latent(path: str) -> tuple[np.ndarray, str]:
    """(latent, params_sha256) as `save_latent` wrote them."""
    latent, header = _read_grid(path, LATENT_MAGIC, "<f8", ndim=5, order="C",
                                keys=("params_sha256",))
    return latent, header["params_sha256"]


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
