"""JSON schemas for models, setups, configs, and states; CSV emission; and
the run manifest that makes every output reproducible.

A complex matrix has two spellings. Model files written by `save_model`
store each matrix (the hamiltonian and every jump) packed: one
base64 string of its n*n little-endian complex128 entries, row-major, so
the values round-trip bit for bit without float text. Everything else the
tool writes (states, report.json) uses nested arrays of [re, im] pairs,
and `decode_complex_matrix` reads both spellings wherever a matrix is
expected, so hand-written and older model files still load. Floats in CSV
output use the shortest round-trip decimal representation.
"""

from __future__ import annotations

import binascii
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import ValidationError, density_matrix
from .lindblad import GeneratorContext, Lindbladian, lindbladian_from_channel, stationary_state


PACKED_DTYPE = np.dtype("<c16")
# Bytes _digest reads at a time: a d = 64 model file is about 360 MB.
DIGEST_CHUNK = 1 << 20


def encode_complex_matrix(m) -> list:
    """The nested spelling: an (n, n) list of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _pack_complex_matrix(m) -> str:
    """The packed spelling: base64 of the little-endian complex128 entries."""
    raw = np.ascontiguousarray(m, dtype=PACKED_DTYPE).tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _unpack_complex_matrix(text: str, where: str) -> np.ndarray:
    # Strict without a2b_base64's strict_mode (Python >= 3.11 only): the text
    # must be exactly what _pack_complex_matrix writes for the decoded bytes.
    try:
        raw = binascii.a2b_base64(text)
        canonical = binascii.b2a_base64(raw, newline=False) == text.encode("ascii")
    except (binascii.Error, ValueError) as exc:
        raise ValidationError(f"{where}: not a base64 packed matrix ({exc})") from None
    if not canonical:
        raise ValidationError(f"{where}: not a canonical base64 packed matrix")
    n = math.isqrt(len(raw) // PACKED_DTYPE.itemsize)
    if n < 1 or len(raw) != PACKED_DTYPE.itemsize * n * n:
        raise ValidationError(f"{where}: packed matrix of {len(raw)} bytes is not "
                              f"{PACKED_DTYPE.itemsize}*n^2 bytes with n >= 1")
    # astype copies: frombuffer alone gives a read-only view of the bytes.
    return np.frombuffer(raw, dtype=PACKED_DTYPE).reshape(n, n).astype(complex)


def decode_complex_matrix(data, where: str = "matrix") -> np.ndarray:
    """Read a complex matrix in either spelling; every entry must be finite."""
    if isinstance(data, str):
        arr = _unpack_complex_matrix(data, where)
    else:
        try:
            arr = np.asarray(data, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: not a nested [re, im] array ({exc})")
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValidationError(f"{where}: expected shape (n, n, 2), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{where}: matrix entries must be finite")
    if arr.ndim == 2:
        return arr
    # Assigned, not summed: re + 1j * im would turn a real part of -0.0 into +0.0.
    out = np.empty(arr.shape[:2], dtype=complex)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]
    return out


def _require(data: dict, field: str, where: str):
    if field not in data:
        raise ValidationError(f"{where}: missing field '{field}'")
    return data[field]


def require_int(data: dict, field: str, where: str) -> int:
    """A mandatory integer field: an integer or an integral float (3 and 3.0
    load as 3); a boolean or anything else is an exit-1 validation error."""
    value = _require(data, field, where)
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValidationError(f"{where}: field '{field}' must be an integer, got {value!r}")
    return int(value)


def _matrix_field(data: dict, field: str, where: str) -> np.ndarray:
    """A mandatory square complex matrix in either spelling; errors name where:field."""
    m = decode_complex_matrix(_require(data, field, where), f"{where}:{field}")
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{where}:{field}: expected shape (n, n, 2), got {(*m.shape, 2)}")
    return m


def load_json(path):
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{p}: malformed JSON ({exc})")


def load_object(path) -> dict:
    """load_json for the files whose top level must be a JSON object: models,
    setups, states, configs, manifests and lattices."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object, "
                              f"not {type(doc).__name__}")
    return doc


def load_real_array(path) -> np.ndarray:
    """load_json for the files whose top level is a rectangular array of
    finite numbers: rate matrices and rate grids."""
    doc = load_json(path)
    if not isinstance(doc, list):
        raise ValidationError(f"{path}: top level must be a JSON array, not {type(doc).__name__}")
    try:
        arr = np.asarray(doc, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: expected a rectangular array of numbers ({exc})") from None
    if not np.isfinite(arr).all():
        raise ValidationError(f"{path}: array entries must be finite")
    return arr


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def save_model(path, *, hamiltonian, jumps, template: str | None = None):
    """Write a jump-form model file: the hamiltonian and the jumps."""
    h = np.asarray(hamiltonian, dtype=complex)
    doc = {
        "kind": "lindblad",
        "dim": int(h.shape[0]),
        "hamiltonian": _pack_complex_matrix(h),
        "jumps": [_pack_complex_matrix(l) for l in jumps],
    }
    if template:
        doc["template"] = template
    Path(path).write_text(json.dumps(doc))


@dataclass(frozen=True, eq=False)
class LoadedModel:
    context: GeneratorContext
    template: str | None


def load_model(path) -> LoadedModel:
    """Load and validate a model file, solving for its stationary context.

    The parsed document is gone before the solve starts, so its text never
    sits in memory beside the generator."""
    lind, template = _read_model(path)
    return LoadedModel(stationary_state(lind), template)


def _read_model(path) -> tuple[Lindbladian, str | None]:
    """The generator of a model file and its template. A file of kind
    channel_difference holds the d^2 x d^2 Heisenberg matrix of a unital
    channel Psi, whose generator Psi - id is decoded to jump form."""
    doc = load_object(path)
    kind = doc.get("kind", "lindblad")
    dim = require_int(doc, "dim", str(path))
    if kind == "lindblad":
        h = _matrix_field(doc, "hamiltonian", str(path))
        if h.shape[0] != dim:
            raise ValidationError(f"{path}: hamiltonian dim {h.shape[0]} != declared dim {dim}")
        jumps = _require(doc, "jumps", str(path))
        if not isinstance(jumps, list):
            raise ValidationError(f"{path}: jumps must be a list of matrices")
        # Each jump is decoded into its slice of the one stack the generator keeps.
        stack = np.empty((len(jumps), dim, dim), dtype=complex)
        for i, j in enumerate(jumps):
            jump = decode_complex_matrix(j, f"{path}:jumps[{i}]")
            if jump.shape != (dim, dim):
                raise ValidationError(f"{path}: jumps[{i}] has shape {jump.shape}, declared dim {dim}")
            stack[i] = jump
        lind = Lindbladian(h, stack)
    elif kind == "channel_difference":
        channel = _matrix_field(doc, "channel", str(path))
        if channel.shape[0] != dim * dim:
            raise ValidationError(f"{path}: channel matrix must be dim^2 x dim^2")
        lind = lindbladian_from_channel(channel, f"{path}:channel")
    else:
        raise ValidationError(f"{path}: unknown model kind {kind!r}")
    return lind, doc.get("template")


def load_lattice(path):
    """A commuting Hamiltonian from a lattice file: {"n_sites", "local_dim",
    "beta", "terms": [{"support": [site, ...], "matrix"}, ...]}."""
    from .models import CommutingHamiltonian

    doc = load_object(path)
    terms = _require(doc, "terms", str(path))
    if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
        raise ValidationError(f"{path}: terms must be a list of objects")
    decoded = []
    for i, term in enumerate(terms):
        where = f"{path}:terms[{i}]"
        support = _require(term, "support", where)
        if not isinstance(support, list) or not all(type(s) is int for s in support):
            raise ValidationError(f"{where}: support must be a list of site indices")
        decoded.append((tuple(support), _matrix_field(term, "matrix", where)))
    try:
        beta = float(_require(doc, "beta", str(path)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: beta must be a number ({exc})") from None
    return CommutingHamiltonian(require_int(doc, "n_sites", str(path)),
                                require_int(doc, "local_dim", str(path)), decoded, beta)


def load_setup(path, ctx: GeneratorContext):
    from .deviation import MeasurementSetup

    doc = load_object(path)
    try:
        directions = np.asarray(_require(doc, "directions", str(path)), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: directions must be an array of numbers ({exc})") from None
    return MeasurementSetup(ctx, directions, require_int(doc, "q", str(path)))


def load_state(path, dim: int) -> np.ndarray:
    """The state of a state file, validated as a density matrix; errors
    name path:rho."""
    doc = load_object(path)
    rho = _matrix_field(doc, "rho", str(path))
    if rho.shape[0] != dim:
        raise ValidationError(f"{path}: state dim {rho.shape[0]} != model dim {dim}")
    return density_matrix(rho, f"{path}:rho")


def load_config(path, seed_override: int | None = None):
    """A trajectory config: an object whose keys are TrajectoryConfig's
    fields; any other key is an error."""
    from .trajectories import TrajectoryConfig

    doc = load_object(path)
    unknown = sorted(set(doc) - {f.name for f in fields(TrajectoryConfig)})
    if unknown:
        raise ValidationError(f"{path}: unknown config key {unknown[0]!r}")
    if seed_override is None and doc.get("base_seed") is None:
        raise ValidationError(f"{path}: base_seed is mandatory (or pass --seed / QDEV_SEED)")
    base_seed = seed_override if seed_override is not None else require_int(doc, "base_seed", str(path))
    n_paths = require_int(doc, "n_paths", str(path))
    checkpoints = doc.get("checkpoints")
    try:
        dt = float(_require(doc, "dt", str(path)))
        t_max = float(_require(doc, "t_max", str(path)))
        checkpoints = tuple(float(t) for t in checkpoints) if checkpoints else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: dt, t_max and checkpoints must be numbers ({exc})") from None
    return TrajectoryConfig(dt=dt, t_max=t_max, n_paths=n_paths, base_seed=base_seed,
                            checkpoints=checkpoints)


# ---------------------------------------------------------------------------
# CSV / JSON reports
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])


def read_csv(path) -> tuple[list[str], list[dict]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            return list(reader.fieldnames or []), list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read CSV {path}: {exc}") from None


def emit_report(path, header: list[str], rows: list[list], fmt: str,
                command: list[str], input_paths: list, parameters: dict,
                base_seed: int | None = None):
    """Write a tabular report as CSV (manifest alongside) or as a JSON
    mirror with the manifest embedded."""
    if fmt == "csv":
        write_csv(path, header, rows)
        write_manifest(path, command, input_paths, parameters, base_seed=base_seed)
    elif fmt == "json":
        doc = {
            "columns": list(header),
            "rows": [[_json_cell(cell) for cell in row] for row in rows],
            "manifest": _manifest(command, input_paths, parameters, base_seed),
        }
        Path(path).write_text(json.dumps(doc, indent=1))
    else:
        raise ValidationError(f"unknown report format {fmt!r}")


def _json_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return str(value)


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def _digest(path) -> str:
    """SHA-256 of a file, read DIGEST_CHUNK bytes at a time."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(DIGEST_CHUNK):
            sha.update(chunk)
    return sha.hexdigest()


def _manifest(command: list[str], input_paths: list, parameters: dict,
              base_seed: int | None) -> dict:
    return {
        "tool": "qdev",
        "version": __version__,
        "command": list(command),
        "inputs": {str(p): _digest(p) for p in input_paths},
        "base_seed": base_seed,
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "parameters": parameters,
    }


def write_manifest(output_path, command: list[str], input_paths: list, parameters: dict,
                   base_seed: int | None = None) -> str:
    """Write <output>.manifest.json next to an output file."""
    mpath = str(output_path) + ".manifest.json"
    Path(mpath).write_text(json.dumps(_manifest(command, input_paths, parameters, base_seed),
                                      indent=1))
    return mpath


def emit_error(code: str, message: str, context: dict | None = None):
    sys.stderr.write(json.dumps({"code": code, "message": message, "context": context or {}}) + "\n")
