"""JSON schemas for models, setups, configs, and states; CSV emission; and
the run manifest that makes every output reproducible.

Complex matrices serialize as nested arrays of [re, im] pairs; this format
is shared by every file the tool reads or writes. Floats in CSV output use
the shortest round-trip decimal representation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import SuperOperator, ValidationError
from .lindblad import GeneratorContext, Lindbladian, context_from_channel, stationary_state


def encode_complex_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def decode_complex_matrix(data, where: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: not a nested [re, im] array ({exc})")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(f"{where}: expected shape (n, n, 2), got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _require(data: dict, field: str, where: str):
    if field not in data:
        raise ValidationError(f"{where}: missing field '{field}'")
    return data[field]


def load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{p}: malformed JSON ({exc})")


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def save_model(path, *, hamiltonian=None, jumps=None, channel=None, template: str | None = None):
    """Write a model file; either jump form (hamiltonian + jumps) or
    channel-difference form (a unital channel whose generator is Psi - id)."""
    if (hamiltonian is None) == (channel is None):
        raise ValidationError("model is either jump-form or channel-difference, not both")
    if hamiltonian is not None:
        h = np.asarray(hamiltonian, dtype=complex)
        doc = {
            "kind": "lindblad",
            "dim": int(h.shape[0]),
            "hamiltonian": encode_complex_matrix(h),
            "jumps": [encode_complex_matrix(l) for l in jumps],
        }
    else:
        ch = np.asarray(channel, dtype=complex)
        dim = int(round(np.sqrt(ch.shape[0])))
        doc = {"kind": "channel_difference", "dim": dim, "channel": encode_complex_matrix(ch)}
    if template:
        doc["template"] = template
    # Compact: with an indent, json falls back to its pure-Python encoder,
    # twice as slow and 40 % larger on a d = 24 model.
    Path(path).write_text(json.dumps(doc))


@dataclass(frozen=True, eq=False)
class LoadedModel:
    context: GeneratorContext
    template: str | None
    path: str


def load_model(path) -> LoadedModel:
    """Load and validate a model file, solving for its stationary context."""
    doc = load_json(path)
    kind = doc.get("kind", "lindblad")
    dim = int(_require(doc, "dim", str(path)))
    if kind == "lindblad":
        h = decode_complex_matrix(_require(doc, "hamiltonian", str(path)), f"{path}:hamiltonian")
        if h.shape[0] != dim:
            raise ValidationError(f"{path}: hamiltonian dim {h.shape[0]} != declared dim {dim}")
        jumps = [decode_complex_matrix(j, f"{path}:jumps[{i}]")
                 for i, j in enumerate(_require(doc, "jumps", str(path)))]
        ctx = stationary_state(Lindbladian(h, jumps))
    elif kind == "channel_difference":
        ch = decode_complex_matrix(_require(doc, "channel", str(path)), f"{path}:channel")
        if ch.shape[0] != dim * dim:
            raise ValidationError(f"{path}: channel matrix must be dim^2 x dim^2")
        ctx = context_from_channel(SuperOperator(ch))
    else:
        raise ValidationError(f"{path}: unknown model kind {kind!r}")
    return LoadedModel(ctx, doc.get("template"), str(path))


def load_setup(path, ctx: GeneratorContext):
    from .deviation import MeasurementSetup

    doc = load_json(path)
    directions = np.asarray(_require(doc, "directions", str(path)), dtype=float)
    q = int(_require(doc, "q", str(path)))
    return MeasurementSetup(ctx, directions, q)


def load_state(path, dim: int) -> np.ndarray:
    doc = load_json(path)
    rho = decode_complex_matrix(_require(doc, "rho", str(path)), f"{path}:rho")
    if rho.shape[0] != dim:
        raise ValidationError(f"{path}: state dim {rho.shape[0]} != model dim {dim}")
    return rho


def save_state(path, rho):
    Path(path).write_text(json.dumps({"dim": int(np.asarray(rho).shape[0]),
                                      "rho": encode_complex_matrix(rho)}, indent=1))


def load_config(path, seed_override: int | None = None):
    from .trajectories import TrajectoryConfig

    doc = load_json(path)
    base_seed = seed_override if seed_override is not None else doc.get("base_seed")
    if base_seed is None:
        raise ValidationError(f"{path}: base_seed is mandatory (or pass --seed / QDEV_SEED)")
    # Euler-Maruyama is the only scheme; older files may still name it.
    scheme = doc.get("scheme", "euler_maruyama")
    if scheme != "euler_maruyama":
        raise ValidationError(f"{path}: unknown scheme {scheme!r} (only 'euler_maruyama')")
    checkpoints = doc.get("checkpoints")
    return TrajectoryConfig(
        dt=float(_require(doc, "dt", str(path))),
        t_max=float(_require(doc, "t_max", str(path))),
        n_paths=int(_require(doc, "n_paths", str(path))),
        base_seed=int(base_seed),
        positivity_clip=float(doc.get("positivity_clip", 1e-10)),
        checkpoints=tuple(float(t) for t in checkpoints) if checkpoints else None,
    )


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
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


def verify_manifest(path) -> bool:
    """Recompute input digests recorded in a manifest; True when all match."""
    doc = load_json(path)
    for input_path, recorded in _require(doc, "inputs", str(path)).items():
        if not Path(input_path).exists():
            raise ValidationError(f"manifest input missing: {input_path}")
        if _digest(input_path) != recorded:
            return False
    return True


def emit_error(code: str, message: str, context: dict | None = None):
    sys.stderr.write(json.dumps({"code": code, "message": message, "context": context or {}}) + "\n")
