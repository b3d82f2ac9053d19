"""docs/formats.md lists the keys of each record as the code declares them."""

import re
from dataclasses import fields
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from aeroshm.baselines import BaselineKind
from aeroshm.data import RawRun
from aeroshm.harness import RETIRED_CONFIG_KEYS, TrainingRecord
from aeroshm.models import ARCHITECTURES, build_cnn, build_mlp
from aeroshm.net.checkpoint import Header
from aeroshm.net.layers import LAYER_KINDS
from aeroshm.net.stack import GRADIENT_TARGETS

DOC = Path(__file__).parents[1] / "docs" / "formats.md"


def table_rows(heading: str) -> list[list[str]]:
    """The cells of each row of the first table under a heading (or any
    other whole line), up to the next heading."""
    section = DOC.read_text().split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = list(takewhile(lambda line: line.startswith("|"), lines[start:]))[2:]
    return [[cell.strip() for cell in row.split("|")[1:-1]] for row in rows]


def table_keys(heading: str) -> list[str]:
    """The first-column keys of the first table under a heading."""
    return [row[0].strip("`") for row in table_rows(heading)]


RUN = RawRun(values=np.zeros((2, 3)), test_series=1, damage_class=0, run_index=1,
             aoa_deg=0.0, excitation_hz=1.0, wind_speed=1.0)


@pytest.mark.parametrize("heading,keys", [
    ("### Header", [f.name for f in fields(Header)]),
    ("### Metadata", [f.name for f in fields(TrainingRecord)]),
    ("### `meta.json`", list(RUN.meta_dict())),
], ids=["checkpoint-header", "checkpoint-metadata", "meta-json"])
def test_doc_table_lists_the_record_keys(heading, keys):
    assert sorted(table_keys(heading)) == sorted(keys)


def test_doc_lists_the_enumerated_config_values():
    documented = {row[0].strip("`"): re.findall(r'`"([^"]+)"`', row[1])
                  for row in table_rows("## Experiment config (`--config`)")}
    assert documented == {
        "arch": list(ARCHITECTURES),
        "baseline": [kind.value for kind in BaselineKind],
        "ig_target": list(GRADIENT_TARGETS),
    }


def test_doc_lists_the_retired_config_keys_with_their_values():
    documented = {row[0].strip("`"): row[1] for row in table_rows("### Retired config keys")}
    assert documented == {key: "any value" if value is None else f'`"{value}"`'
                          for key, value in RETIRED_CONFIG_KEYS.items()}


def test_doc_layer_table_lists_every_kind_with_its_config_keys_and_buffers():
    layers = {layer.kind: layer for layer in build_cnn(2, 16).layers + build_mlp(2).layers}
    assert sorted(layers) == sorted(LAYER_KINDS)

    def names(cell):
        return sorted(re.findall(r"`([^`]+)`", cell))

    documented = {}
    for kinds, keys, buffers in table_rows(
            "A layer config is `{\"kind\": ...}` plus its constructor's arguments:"):
        for kind in names(kinds):
            documented[kind] = (names(keys), names(buffers))
    assert documented == {
        kind: (sorted(set(layer.config()) - {"kind"}), sorted(layer.buffers))
        for kind, layer in layers.items()}
