"""Checkpoint storage: float arrays as base64 little-endian float64 inside the JSON files.

Both checkpoints (the embedding table and the model) are refused with a
`DataError` naming the file whenever their stored floats are damaged.
"""

import base64
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emocnn.corpus import DataError, decode_floats, encode_floats, synth_corpus
from emocnn.embedding import build_vocab, init_random_embeddings, load_embeddings, save_embeddings
from emocnn.functions import Activation
from emocnn.network import NetworkConfig, backward, forward, init_params, load_model, save_model, sgd_step


def small_config():
    return NetworkConfig(filter_widths=(2, 3), maps_per_width=2, embedding_dim=3, num_classes=2,
                         dropout_rate=0.0, activation=Activation("mlrelu-continuous"), seed=5)


def save_small_embeddings(path):
    vocab = build_vocab(synth_corpus(2, 8, 5, 1.0, seed=1), min_count=1)
    table = init_random_embeddings(vocab, dim=3, seed=2)
    save_embeddings(path, vocab, table)
    return vocab, table


# name -> (file name, float field, previous schema version, save, load)
CHECKPOINTS = {
    "embeddings": ("embeddings.json", "vectors", 1, save_small_embeddings, load_embeddings),
    "model": ("model.json", "params", 2, lambda path: save_model(path, init_params(small_config())),
              load_model),
}


@pytest.fixture(params=sorted(CHECKPOINTS))
def checkpoint(request, tmp_path):
    """(path, float field, previous version, load) of a freshly saved checkpoint."""
    name, field, old_version, save, load = CHECKPOINTS[request.param]
    path = tmp_path / name
    save(path)
    return path, field, old_version, lambda: load(path)


def rewrite(path, **fields):
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.update(fields)
    path.write_text(json.dumps(payload), encoding="utf-8")


def stored_bytes(path, field):
    return base64.b64decode(json.loads(path.read_text(encoding="utf-8"))[field])


def test_a_file_cut_in_half_is_refused(checkpoint):
    path, _, _, load = checkpoint
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataError, match=re.escape(str(path))):
        load()


@pytest.mark.parametrize("change", [-1, 1], ids=["one-short", "one-long"])
def test_one_entry_short_or_long_is_refused(checkpoint, change):
    path, field, _, load = checkpoint
    raw = stored_bytes(path, field)
    count = len(raw) // 8
    edited = raw[:-8] if change < 0 else raw + raw[:8]
    rewrite(path, **{field: base64.b64encode(edited).decode("ascii")})
    with pytest.raises(DataError, match=re.escape(f"{path}: {field}: expected {count} entries")):
        load()


@pytest.mark.parametrize("bad", ["$", "-", " ", "\n", "é"])
def test_a_non_base64_character_is_refused(checkpoint, bad):
    path, field, _, load = checkpoint
    text = json.loads(path.read_text(encoding="utf-8"))[field]
    mid = len(text) // 2
    # inserted, not replaced: a lenient decoder would skip it and return the same floats
    rewrite(path, **{field: text[:mid] + bad + text[mid:]})
    with pytest.raises(DataError, match=re.escape(f"{path}: {field} is not valid base64")):
        load()


@pytest.mark.parametrize("value", [[0.0, 1.0], 1.5, True, {"a": 1}],
                         ids=["list", "number", "bool", "object"])
def test_a_non_string_float_field_is_refused(checkpoint, value):
    path, field, _, load = checkpoint
    rewrite(path, **{field: value})
    with pytest.raises(DataError, match=re.escape(f"{path}: {field} must be a base64 string")):
        load()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_is_refused(checkpoint, value):
    path, field, _, load = checkpoint
    floats = np.frombuffer(stored_bytes(path, field), dtype="<f8").copy()
    floats[len(floats) // 2] = value
    rewrite(path, **{field: encode_floats(floats)})
    with pytest.raises(DataError, match=re.escape(f"{path}: {field} holds a non-finite value")):
        load()


def test_the_previous_list_of_floats_format_is_refused(checkpoint):
    # embedding version 1 and model version 2 stored a JSON list of numbers
    path, field, old_version, load = checkpoint
    floats = np.frombuffer(stored_bytes(path, field), dtype="<f8").tolist()
    rewrite(path, version=old_version, **{field: floats})
    with pytest.raises(DataError, match=re.escape(str(path)) + ": unsupported .* checkpoint version"):
        load()


def test_loaded_arrays_are_writable_and_leave_the_file_alone(tmp_path):
    emb_path, model_path = tmp_path / "embeddings.json", tmp_path / "model.json"
    vocab, table = save_small_embeddings(emb_path)
    params = init_params(small_config())
    save_model(model_path, params)
    before = emb_path.read_bytes(), model_path.read_bytes()

    _, loaded_table = load_embeddings(emb_path)
    loaded = load_model(model_path)
    for array in (loaded_table.vectors, loaded.vector):
        owner = array if array.base is None else array.base
        assert array.flags.writeable
        assert isinstance(owner, np.ndarray) and owner.flags.owndata

    sentence = loaded_table.vectors[[1, 2, 3, 4]]
    grads = backward(loaded, forward(loaded, sentence), target=1)
    stepped = sgd_step(loaded, grads, 0.5)
    loaded.vector -= 0.5 * grads.vector  # the same step, written into the loaded vector
    loaded_table.vectors[1] -= 0.25
    np.testing.assert_array_equal(loaded.vector, stepped.vector)
    assert not np.array_equal(loaded.vector, params.vector)
    assert loaded.filters[2].base is not None and np.shares_memory(loaded.filters[2], loaded.vector)

    assert (emb_path.read_bytes(), model_path.read_bytes()) == before
    np.testing.assert_array_equal(load_embeddings(emb_path)[1].vectors, table.vectors)
    np.testing.assert_array_equal(load_model(model_path).vector, params.vector)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)))
def test_encode_decode_round_trips_every_bit(array):
    text = encode_floats(array)
    back = decode_floats(text, array.size, "x.json", "params")
    assert back.view(np.uint64).tolist() == array.ravel().view(np.uint64).tolist()
    assert back.flags.owndata and back.flags.writeable


def test_encode_is_little_endian_whatever_the_input_order():
    big = np.array([[1.0, -0.0], [2.5, 5e-324]], dtype=">f8")
    assert encode_floats(big) == encode_floats(big.astype("<f8"))
    assert encode_floats(big.T) == encode_floats(np.ascontiguousarray(big.T, dtype="<f8"))
    assert base64.b64decode(encode_floats(np.array([1.0])))[::-1].hex() == "3ff0000000000000"


@pytest.mark.parametrize("words, message", [
    (["a", "<unk>"], "words must start with <unk>"),
    (["<unk>", 3], "words must be a list of strings"),
], ids=["unk-not-first", "non-string"])
def test_a_bad_word_list_is_refused(tmp_path, words, message):
    path = tmp_path / "embeddings.json"
    save_small_embeddings(path)
    rewrite(path, words=words, dim=1, vectors=encode_floats(np.zeros(len(words))))
    with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
        load_embeddings(path)


def test_a_dim_that_is_not_a_positive_int_is_refused(tmp_path):
    path = tmp_path / "embeddings.json"
    save_small_embeddings(path)
    for dim in (0, -1, 1.0, True, "3"):
        rewrite(path, dim=dim, vectors="")
        with pytest.raises(DataError, match=re.escape(f"{path}: dim must be a positive integer")):
            load_embeddings(path)


MISSING = object()


@pytest.mark.parametrize("where, key, value", [
    ("config", "maps_per_width", 4.7),
    ("config", "maps_per_width", 0),
    ("config", "seed", 1.9),
    ("config", "dropout_rate", "0.4"),
    ("activation", "a", "0.03"),
    ("activation", "a", True),
    ("config", "seed", MISSING),
    ("config", "momentum", 0.9),
    ("activation", "a", MISSING),
    ("activation", "slope", 0.03),
], ids=["maps-4.7", "maps-0", "seed-1.9", "dropout-str", "a-str", "a-bool",
        "config-missing-key", "config-extra-key", "activation-missing-key", "activation-extra-key"])
def test_a_stored_config_is_checked_field_by_field(tmp_path, where, key, value):
    # A model of 4 maps, so that a loader coercing 4.7 to 4 would find the stored parameters.
    path = tmp_path / "model.json"
    save_model(path, init_params(replace(small_config(), maps_per_width=4)))
    payload = json.loads(path.read_text(encoding="utf-8"))
    stored = payload["config"] if where == "config" else payload["config"]["activation"]
    if value is MISSING:
        del stored[key]
    else:
        stored[key] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_model(path)
