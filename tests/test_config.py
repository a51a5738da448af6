"""Config parsing, validation, overrides, and round-trip serialization."""

import dataclasses
import re
from pathlib import Path

import pytest

from caliblab import config
from caliblab.config import (
    ConfigError,
    LossWeights,
    ModelSpec,
    OptimizerSpec,
    TrainingConfig,
    apply_override,
    config_digest,
    dump_config,
    load_config,
)

MINIMAL = """\
[model]
hidden = 8, 8

[optimizer]
lr = 0.01

[run]
epochs = 3
batch_size = 16
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_fills_defaults(tmp_path):
    loaded = load_config(write(tmp_path, MINIMAL))
    t = loaded.training
    assert t.model.hidden == (8, 8)
    assert t.model.head == "softmax"
    assert t.model.spectral_norm is False
    assert t.loss == LossWeights()
    assert t.optimizer.kind == "adam"
    assert t.epochs == 3 and t.batch_size == 16 and t.seed == 0
    assert loaded.data.kind == "blobs"
    assert loaded.grid is None


def test_full_config_parses_every_section(tmp_path):
    text = """\
[model]
hidden = 16, 8
head = enn
spectral_norm = false

[loss]
evidential_kl = 40
avuc = 0.6

[optimizer]
kind = adam
lr = 1e-4
beta1 = 0.9

[run]
epochs = 5
batch_size = 10
seed = 42
augment = true

[data]
kind = blobs
samples = 120
classes = 2
noise = 0.6
label_noise = 0.1
seed = 7
"""
    loaded = load_config(write(tmp_path, text))
    t = loaded.training
    assert t.model.head == "enn"
    assert t.loss.evidential_kl == 40.0
    assert t.loss.avuc == 0.6
    assert t.optimizer.lr == 1e-4
    assert t.seed == 42 and t.augment is True
    assert loaded.data.samples == 120 and loaded.data.label_noise == 0.1


def test_unknown_section_is_named(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[surprise]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"\[surprise\]"):
        load_config(path)


def test_unknown_key_is_named(tmp_path):
    path = write(tmp_path, MINIMAL + "\n[loss]\ntemperature = 2\n")
    with pytest.raises(ConfigError, match="temperature"):
        load_config(path)


def test_missing_required_key_is_named(tmp_path):
    text = "[model]\nhidden = 4\n\n[optimizer]\nlr = 0.1\n\n[run]\nepochs = 1\n"
    with pytest.raises(ConfigError, match="batch_size.*\\[run\\]"):
        load_config(write(tmp_path, text))


def test_unparseable_value_names_key_and_section(tmp_path):
    text = MINIMAL.replace("epochs = 3", "epochs = three")
    with pytest.raises(ConfigError, match="'epochs' in section \\[run\\]"):
        load_config(write(tmp_path, text))


def test_evidential_weight_requires_enn_head(tmp_path):
    text = MINIMAL + "\n[loss]\nevidential_kl = 10\n"
    with pytest.raises(ConfigError, match="evidential_kl.*head = enn"):
        load_config(write(tmp_path, text))


def test_prototype_weights_require_dm_head(tmp_path):
    text = MINIMAL + "\n[loss]\ndm_entropy = 0.5\n"
    with pytest.raises(ConfigError, match="dm_entropy.*head = dm"):
        load_config(write(tmp_path, text))


def test_dm_head_with_its_weights_is_accepted(tmp_path):
    text = """\
[model]
hidden = 8
head = dm

[loss]
dm_entropy = 0.9
proto_dispersion = 2
uncertainty_bce = 4

[optimizer]
lr = 1e-3

[run]
epochs = 1
batch_size = 8
"""
    loaded = load_config(write(tmp_path, text))
    assert loaded.training.loss.proto_dispersion == 2.0


def test_bad_data_section_is_prefixed(tmp_path):
    text = MINIMAL + "\n[data]\nclasses = 1\n"
    with pytest.raises(ConfigError, match=r"section \[data\]"):
        load_config(write(tmp_path, text))


def test_grid_section_parses_typed_lists(tmp_path):
    text = MINIMAL + "\n[grid]\nloss.mmce = 0, 5, 25\noptimizer.lr = 1e-2, 1e-3\n"
    loaded = load_config(write(tmp_path, text))
    assert loaded.grid == {
        "loss.mmce": [0.0, 5.0, 25.0],
        "optimizer.lr": [0.01, 0.001],
    }


def test_grid_rejects_unknown_and_unsupported_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown grid key"):
        load_config(write(tmp_path, MINIMAL + "\n[grid]\nloss.banana = 1, 2\n"))
    with pytest.raises(ConfigError, match="hidden"):
        load_config(write(tmp_path, MINIMAL + "\n[grid]\nmodel.hidden = 4, 8\n"))
    with pytest.raises(ConfigError, match="no candidate values"):
        load_config(write(tmp_path, MINIMAL + "\n[grid]\nloss.mmce = ,\n"))


def test_duplicate_key_is_a_parse_error(tmp_path):
    text = MINIMAL + "\n[loss]\nmmce = 1\nmmce = 2\n"
    with pytest.raises(ConfigError, match="malformed"):
        load_config(write(tmp_path, text))


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


def test_validation_catches_bad_field_values():
    with pytest.raises(ConfigError, match="head"):
        ModelSpec(hidden=(4,), head="tanh").validate()
    with pytest.raises(ConfigError, match="widths"):
        ModelSpec(hidden=(0,)).validate()
    with pytest.raises(ConfigError, match="non-negative"):
        LossWeights(mmce=-1.0).validate()
    with pytest.raises(ConfigError, match="kernel_width"):
        LossWeights(kernel_width=0.0).validate()
    with pytest.raises(ConfigError, match="lr"):
        OptimizerSpec(lr=0.0).validate()
    with pytest.raises(ConfigError, match="momentum"):
        OptimizerSpec(lr=0.1, momentum=1.5).validate()


def _training():
    return TrainingConfig(
        model=ModelSpec(hidden=(4,)),
        loss=LossWeights(),
        optimizer=OptimizerSpec(lr=0.01),
        epochs=2,
        batch_size=8,
    )


def test_apply_override_reaches_nested_fields():
    t = _training()
    t2 = apply_override(t, "loss.mmce", 5.0)
    assert t2.loss.mmce == 5.0 and t.loss.mmce == 0.0
    t3 = apply_override(t, "optimizer.lr", 0.5)
    assert t3.optimizer.lr == 0.5
    t4 = apply_override(t, "run.epochs", 9)
    assert t4.epochs == 9
    with pytest.raises(ConfigError, match="unknown override"):
        apply_override(t, "loss.banana", 1.0)
    with pytest.raises(ConfigError, match="unknown override"):
        apply_override(t, "kitchen.sink", 1.0)


def test_dump_config_round_trips(tmp_path):
    text = """\
[model]
hidden = 16, 8
head = dm
spectral_norm = true
sn_coeff = 0.9

[loss]
dm_entropy = 0.2
proto_dispersion = 1.2
uncertainty_bce = 5
avuc = 0.4

[optimizer]
kind = sgd-momentum
lr = 1e-6
momentum = 0.8

[run]
epochs = 2
batch_size = 4
seed = 3
augment = true

[data]
kind = blobs
samples = 60
classes = 2
noise = 0.4
"""
    loaded = load_config(write(tmp_path, text))
    dumped = dump_config(loaded.training, loaded.data)
    reloaded = load_config(write(tmp_path, dumped, name="dumped.ini"))
    assert reloaded.training == loaded.training
    assert reloaded.data == loaded.data


def test_config_digest_is_stable_and_sensitive(tmp_path):
    loaded = load_config(write(tmp_path, MINIMAL))
    d1 = config_digest(loaded.training, loaded.data)
    d2 = config_digest(loaded.training, loaded.data)
    assert d1 == d2 and len(d1) == 16
    bumped = apply_override(loaded.training, "run.seed", 1)
    assert config_digest(bumped, loaded.data) != d1


# -- schema derived from the spec dataclasses ------------------------------------


@pytest.mark.parametrize(
    "section, key, text",
    [
        ("optimizer", "lr", "nan"),
        ("optimizer", "lr", "inf"),
        ("optimizer", "lr", "-Infinity"),
        ("data", "noise", "nan"),
        ("loss", "avuc", "nan"),
        ("loss", "kernel_width", "1e999"),
    ],
)
def test_non_finite_floats_are_rejected(tmp_path, section, key, text):
    if key == "lr":
        body = MINIMAL.replace("lr = 0.01", f"lr = {text}")
    else:
        body = MINIMAL + f"\n[{section}]\n{key} = {text}\n"
    with pytest.raises(ConfigError, match=rf"bad value for '{key}' in section \[{section}\]"):
        load_config(write(tmp_path, body))


def test_non_finite_grid_values_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bad grid value for 'loss.mmce'"):
        load_config(write(tmp_path, MINIMAL + "\n[grid]\nloss.mmce = 1, nan\n"))


def test_invalid_grid_candidate_fails_at_load_naming_its_overrides(tmp_path):
    text = MINIMAL + "\n[grid]\noptimizer.lr = 0.1, 0.2\nloss.mmce = 1, -1\n"
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, text))
    message = str(info.value)
    assert "'optimizer.lr': 0.1" in message and "'loss.mmce': -1.0" in message
    assert "loss weight 'mmce' must be non-negative" in message


def test_grid_candidates_are_validated_in_combination(tmp_path):
    enn = MINIMAL.replace("hidden = 8, 8", "hidden = 8, 8\nhead = enn")
    text = enn + "\n[loss]\nevidential_kl = 1\n\n[grid]\nmodel.head = enn, softmax\n"
    with pytest.raises(ConfigError, match="'model.head': 'softmax'.*head = enn"):
        load_config(write(tmp_path, text))
    valid = MINIMAL + "\n[grid]\nmodel.head = enn, softmax\nrun.seed = 1, 2\n"
    assert load_config(write(tmp_path, valid)).grid == {
        "model.head": ["enn", "softmax"],
        "run.seed": [1, 2],
    }


def test_required_keys_are_the_fields_without_defaults(tmp_path):
    lines = MINIMAL.splitlines()
    for required in ("hidden", "lr", "epochs", "batch_size"):
        text = "\n".join(line for line in lines if not line.startswith(required))
        with pytest.raises(ConfigError, match=f"missing required key '{required}'"):
            load_config(write(tmp_path, text + "\n"))


def test_a_new_spec_field_needs_no_other_edit(tmp_path, monkeypatch):
    extended = dataclasses.make_dataclass(
        "ExtendedLoss",
        [
            ("temperature", "float", dataclasses.field(default=1.0)),
            ("anneal_epochs", "int", dataclasses.field(kw_only=True)),
        ],
        bases=(LossWeights,),
        frozen=True,
    )
    monkeypatch.setitem(config._SPECS, "loss", extended)
    monkeypatch.setattr(config, "_SCHEMA", config._build_schema(config._SPECS))

    # Required, because it has no default.
    with pytest.raises(ConfigError, match=r"missing required key 'anneal_epochs' in section \[loss\]"):
        load_config(write(tmp_path, MINIMAL))
    # Parseable, by its annotation.
    text = MINIMAL + "\n[loss]\nanneal_epochs = 4\ntemperature = 2.5\n"
    loaded = load_config(write(tmp_path, text))
    assert loaded.training.loss.temperature == 2.5
    assert loaded.training.loss.anneal_epochs == 4
    # Overridable.
    bumped = apply_override(loaded.training, "loss.temperature", 0.5)
    assert bumped.loss.temperature == 0.5
    # Griddable.
    gridded = load_config(write(tmp_path, text + "\n[grid]\nloss.temperature = 1, 3\n"))
    assert gridded.grid == {"loss.temperature": [1.0, 3.0]}
    # Dumped, and the dump loads back to the same config.
    dumped = dump_config(loaded.training, loaded.data)
    assert "temperature = 2.5\nanneal_epochs = 4\n" in dumped
    reloaded = load_config(write(tmp_path, dumped, name="dumped.ini"))
    assert reloaded.training == loaded.training
    assert config_digest(bumped, loaded.data) != config_digest(loaded.training, loaded.data)


def test_an_annotation_without_a_parser_is_rejected():
    odd = dataclasses.make_dataclass("Odd", [("weights", "dict[str, float]")])
    with pytest.raises(TypeError, match=r"no config parser for Odd\.weights"):
        config._build_schema({"odd": odd})


def test_readme_lists_every_schema_key_in_its_section():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Config sections", 1)[1].split("\n\n", 2)[1]
    bullets = {
        match.group(1): match.group(2)
        for match in re.finditer(r"^- `\[(\w+)\]` — (.*?)(?=^- |\Z)", block, re.M | re.S)
    }
    assert set(bullets) == set(config._SCHEMA)
    missing = [
        f"[{section}] {key}"
        for section, keys in config._SCHEMA.items()
        for key in keys
        if f"`{key}`" not in bullets[section]
    ]
    assert not missing, f"README 'Config sections' does not list: {missing}"
