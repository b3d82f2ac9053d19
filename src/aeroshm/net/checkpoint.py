"""Versioned binary checkpoint container.

Byte layout (little-endian; see docs/formats.md):

    offset 0   8 bytes   magic b"ASHMCKPT"
    offset 8   u32       format version (currently 1)
    offset 12  u64       header length H in bytes
    offset 20  H bytes   UTF-8 JSON header (sorted keys, no whitespace)
    offset 20+H          concatenated float64 LE array data, in the order
                         declared by header["arrays"]

The header holds the architecture name, input shape, RNG seed, the layer
configs needed to rebuild the stack, the array directory (label + shape),
and free-form training metadata. Identical training runs produce
bit-identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError
from .stack import LayerStack

MAGIC = b"ASHMCKPT"
FORMAT_VERSION = 1


def save_checkpoint(stack: LayerStack, path: Path, metadata: dict | None = None) -> str:
    """Write the stack to path; returns the file's sha256 hex digest."""
    arrays = stack.state_arrays()
    header = {
        "arch": stack.arch,
        "input_shape": list(stack.input_shape),
        "seed": stack.seed,
        "layers": stack.layer_configs(),
        "arrays": [{"label": label, "shape": list(arr.shape)} for label, arr in arrays],
        "metadata": metadata or {},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for _, arr in arrays:
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def load_checkpoint(path: Path) -> tuple[LayerStack, dict]:
    """Rebuild a stack (weights, buffers, layer configs) from a checkpoint
    file; returns (stack, metadata)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing checkpoint file {path}")
    blob = path.read_bytes()
    if len(blob) < 20 or blob[:8] != MAGIC:
        raise DataError(f"{path} is not a checkpoint file (bad magic)")
    version = struct.unpack("<I", blob[8:12])[0]
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    header_len = struct.unpack("<Q", blob[12:20])[0]
    try:
        header = json.loads(blob[20:20 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from exc

    required = ("layers", "input_shape", "arrays")
    missing = [k for k in required if k not in header] if isinstance(header, dict) else required
    if missing:
        raise DataError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    try:
        stack = LayerStack.from_configs(
            header["layers"], tuple(header["input_shape"]),
            seed=header.get("seed", 0), arch=header.get("arch", "custom"))
        directory = [(e["label"], tuple(int(d) for d in e["shape"])) for e in header["arrays"]]
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    offset = 20 + header_len
    state: dict[str, np.ndarray] = {}
    for label, shape in directory:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise DataError(f"{path}: truncated checkpoint data")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        state[label] = arr.reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes after array data")
    try:
        stack.load_state(state)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return stack, header.get("metadata", {})
