"""Versioned binary checkpoint container.

Byte layout (little-endian; see docs/formats.md):

    offset 0   8 bytes   magic b"ASHMCKPT"
    offset 8   u32       format version (currently 1)
    offset 12  u64       header length H in bytes
    offset 20  H bytes   UTF-8 JSON header (sorted keys, no whitespace)
    offset 20+H          concatenated float64 LE array data, in the order
                         declared by header["arrays"]

The header is a `Header`. Identical training runs produce bit-identical
files.

Arrays are stored as float64 whatever the stack computes in; a float32
value widens to float64 and back exactly. The header's `dtype` names the
compute dtype of a float32 stack and is left out for a float64 one, so
that files written before the key existed load, and save again, as they
are.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError
from ..records import from_json, json_object
from .stack import LayerStack

MAGIC = b"ASHMCKPT"
FORMAT_VERSION = 1
DTYPES = ("float32", "float64")  # the compute dtypes a header may name


@dataclass
class ArrayEntry:
    """One stored array: its state label and shape."""

    label: str
    shape: tuple[int, ...]


@dataclass
class Header:
    """The JSON header of a checkpoint file."""

    arch: str
    input_shape: tuple[int, ...]
    seed: int
    layers: list[dict]  # layer configs, in stack order
    arrays: list[ArrayEntry]  # in the order of the array data
    metadata: dict  # free-form training metadata
    dtype: str  # compute dtype; left out of a float64 stack's file


def save_checkpoint(stack: LayerStack, path: Path, metadata: dict | None = None) -> str:
    """Write the stack to path; returns the file's sha256 hex digest.
    Arrays in metadata are stored as lists."""
    arrays = stack.state_arrays()
    header = Header(
        arch=stack.arch, input_shape=tuple(stack.input_shape), seed=stack.seed,
        layers=stack.layer_configs(),
        arrays=[ArrayEntry(label, arr.shape) for label, arr in arrays],
        metadata=metadata or {}, dtype=stack.dtype.name)
    fields = asdict(header)
    if header.dtype == "float64":
        del fields["dtype"]
    header_bytes = json.dumps(fields, sort_keys=True, separators=(",", ":"),
                              default=lambda a: a.tolist()).encode()
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
    file; returns (stack, metadata). The header's array table must list
    each of the stack's state labels exactly once."""
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
    what = f"checkpoint header of {path}"
    try:
        raw = json.loads(blob[20:20 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"malformed {what}: {exc}") from exc
    raw = {"dtype": "float64", **json_object(raw, DataError, what)}
    header = from_json(Header, raw, DataError, what)
    if header.dtype not in DTYPES:
        raise DataError(f"{what} field dtype must be one of {', '.join(DTYPES)}, "
                        f"got {header.dtype!r}")
    try:
        stack = LayerStack.from_configs(header.layers, header.input_shape,
                                        seed=header.seed, arch=header.arch)
    except (ConfigError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what}: {exc}") from exc
    stack.astype(header.dtype)
    offset = 20 + header_len
    labels = {label for label, _ in stack.state_arrays()}
    state: dict[str, np.ndarray] = {}
    for entry in header.arrays:
        label, shape = entry.label, entry.shape
        if label in state:
            raise DataError(f"{path}: checkpoint header lists array {label!r} twice")
        if label not in labels:
            raise DataError(f"{path}: checkpoint header lists array {label!r}, "
                            f"which the stack does not hold")
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
    for i, layer in enumerate(stack.layers):
        fault = layer.fault()
        if fault:
            raise DataError(f"{path}: array {i}.buffer.{fault}")
    return stack, header.metadata
