"""The package's public names: the library the README documents."""

import importlib

import pytest

import duostego
from duostego import grammar

INTERNAL = {
    "Grammar": "duostego.grammar",
    "DEFAULT_GRAMMAR": "duostego.grammar",
    "GridGeometry": "duostego.sample_grid",
    "geometry": "duostego.sample_grid",
    "decode_sentence": "duostego.pipeline",
}


@pytest.mark.parametrize("name", sorted(INTERNAL))
def test_per_sentence_internals_not_exported(name):
    assert name not in duostego.__all__
    assert not hasattr(duostego, name)
    assert hasattr(importlib.import_module(INTERNAL[name]), name)


def test_every_exported_name_resolves():
    assert all(hasattr(duostego, name) for name in duostego.__all__)


def test_grammar_has_no_decoder():
    # decoding is Lexicon.digits_of, which never consults the grammar
    assert not hasattr(grammar, "decode_sentence")
