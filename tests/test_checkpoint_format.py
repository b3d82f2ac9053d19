"""The ASHMCKPT v1 container read as docs/formats.md specifies it.

tests/data/conv_v1.ckpt is a frozen file: a conv1d 3->4 (k=3), batchnorm
with warmed running statistics and a non-trivial affine, relu,
global-avg-pool, dense 4->6 and softmax stack on (3, 12) inputs, saved by
an engine that computed its convolutions channels-first.
tests/data/conv_v1_logits.json holds a fixed (3, 3, 12) input batch and
the logits that engine gave for it. The file must load and reproduce them
whatever layout the engine computes in, save back to the same bytes, and
parse field by field as the format document states.

tests/data/mlp_v1.ckpt is a frozen mean-mlp checkpoint that `aeroshm
retrain --baseline mvb --window-count 2 --epochs 1` wrote on the dataset
of `aeroshm generate --seed 0 --duration 55 --aoa 0` before the mean-mlp
held its input statistics in a standardize layer: they are in its
metadata key `mean_stats`, and its first layer is the input dropout.
tests/data/mlp_v1_logits.json holds five of that dataset's channel-mean
vectors, raw, and the logits that engine gave for them once standardised.
`load_model` must read the statistics as a leading standardize layer that
reproduces those logits bit for bit, and the stack then saves in the
layout a checkpoint has now.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from aeroshm.harness import load_model
from aeroshm.net import load_checkpoint, save_checkpoint
from aeroshm.surrogate import PROFILES, generate_campaign

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "conv_v1.ckpt"
MLP_FIXTURE = DATA / "mlp_v1.ckpt"


@pytest.fixture(scope="module")
def expected():
    ref = json.loads((DATA / "conv_v1_logits.json").read_text())
    return np.array(ref["input"]), np.array(ref["logits"])


def parse(blob: bytes):
    """Split a checkpoint into its header and its arrays, one field at a
    time, checking each against the format document."""
    assert blob[0:8] == b"ASHMCKPT"  # offset 0, 8 bytes: magic
    (version,) = struct.unpack("<I", blob[8:12])  # offset 8: u32 LE version
    assert version == 1
    (header_len,) = struct.unpack("<Q", blob[12:20])  # offset 12: u64 LE length
    raw = blob[20:20 + header_len]
    header = json.loads(raw.decode("utf-8"))
    # sorted keys, separators "," and ":" with no whitespace
    assert raw == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    offset = 20 + header_len
    arrays = {}
    for entry in header["arrays"]:  # float64 LE, C order, in header order
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arrays[entry["label"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    assert offset == len(blob)  # no trailing bytes
    return header, arrays


def plain_logits(arrays, x):
    """The stack's infer-mode logits from the parsed arrays with direct
    sums, reading the conv weight as (filters, in_channels, kernel_size)."""
    w, b = arrays["0.param.weight"], arrays["0.param.bias"]
    f, c, k = w.shape
    n, _, t = x.shape
    pl = (k - 1) // 2
    conv = np.zeros((n, f, t))
    for fi in range(f):
        for s in range(t):
            acc = np.full(n, b[fi])
            for ci in range(c):
                for j in range(k):
                    if 0 <= s + j - pl < t:
                        acc = acc + w[fi, ci, j] * x[:, ci, s + j - pl]
            conv[:, fi, s] = acc
    scale = arrays["1.param.gamma"] / np.sqrt(arrays["1.buffer.running_var"] + 1e-5)
    bn = ((conv - arrays["1.buffer.running_mean"][:, None]) * scale[:, None]
          + arrays["1.param.beta"][:, None])
    pooled = np.maximum(bn, 0.0).mean(axis=2)
    return pooled @ arrays["4.param.weight"] + arrays["4.param.bias"]


def test_fixture_loads_and_reproduces_its_logits(expected, tmp_path):
    x, logits = expected
    stack, metadata = load_checkpoint(FIXTURE)
    assert metadata == {"fixture": "conv-v1"}
    np.testing.assert_allclose(stack.logits(x), logits, rtol=1e-12)
    # saving it again writes the same bytes
    save_checkpoint(stack, tmp_path / "again.ckpt", metadata)
    assert (tmp_path / "again.ckpt").read_bytes() == FIXTURE.read_bytes()


def test_fixture_parses_as_the_format_document_states(expected):
    header, arrays = parse(FIXTURE.read_bytes())
    assert set(header) == {"arch", "input_shape", "seed", "layers", "arrays", "metadata"}
    assert header["input_shape"] == [3, 12]
    assert [layer["kind"] for layer in header["layers"]] == [
        "conv1d", "batchnorm", "relu", "global-avg-pool", "dense", "softmax"]
    # by layer, then params before buffers, each group sorted by name
    assert list(arrays) == [
        "0.param.bias", "0.param.weight",
        "1.param.beta", "1.param.gamma", "1.buffer.running_mean", "1.buffer.running_var",
        "4.param.bias", "4.param.weight"]
    assert arrays["0.param.weight"].shape == (4, 3, 3)  # (filters, in_channels, k)
    assert arrays["4.param.weight"].shape == (4, 6)  # (in_dim, out_dim)
    # warmed statistics, so infer mode is not the identity
    assert not np.allclose(arrays["1.buffer.running_mean"], 0.0)
    assert not np.allclose(arrays["1.buffer.running_var"], 1.0)
    x, logits = expected
    np.testing.assert_allclose(plain_logits(arrays, x), logits, rtol=1e-12)
    # the loader puts each array where its label says
    state = dict(load_checkpoint(FIXTURE)[0].state_arrays())
    assert list(state) == list(arrays)
    for label, arr in arrays.items():
        np.testing.assert_array_equal(state[label], arr)


def test_mlp_fixture_loads_its_mean_stats_as_a_standardize_layer(tmp_path):
    ref = json.loads((DATA / "mlp_v1_logits.json").read_text())
    means, logits = np.array(ref["input"]), np.array(ref["logits"])
    old_header, old_arrays = parse(MLP_FIXTURE.read_bytes())
    stats = old_header["metadata"]["mean_stats"]
    assert old_header["layers"][0] == {"kind": "dropout", "rate": 0.2}
    campaign = generate_campaign(PROFILES["static-dominant"](), seed=0, aoa_deg=0.0,
                                 duration_s=55.0)
    stack, data, config, _ = load_model(MLP_FIXTURE, campaign)
    assert config.arch == "mean-mlp" and data.inputs.shape[1:] == (37,)
    np.testing.assert_array_equal(stack.logits(means), logits)

    # saved again: the standardize layer leads, the other arrays move up one
    # layer as they are, and the metadata no longer holds mean_stats
    metadata = {k: v for k, v in old_header["metadata"].items() if k != "mean_stats"}
    path = tmp_path / "again.ckpt"
    save_checkpoint(stack, path, metadata)
    header, arrays = parse(path.read_bytes())
    assert header["layers"] == [{"kind": "standardize", "channels": 37},
                                *old_header["layers"]]
    assert header["metadata"] == metadata
    assert list(arrays) == ["0.buffer.mean", "0.buffer.std"] + [
        f"{int(label.split('.')[0]) + 1}.{label.split('.', 1)[1]}" for label in old_arrays]
    np.testing.assert_array_equal(arrays["0.buffer.mean"], stats["mean"])
    np.testing.assert_array_equal(arrays["0.buffer.std"], stats["std"])
    for label, arr in old_arrays.items():
        index, rest = label.split(".", 1)
        np.testing.assert_array_equal(arrays[f"{int(index) + 1}.{rest}"], arr)
    again, _, _, _ = load_model(path, campaign)
    np.testing.assert_array_equal(again.logits(means), logits)
