"""The benchmark's pinned copies of program code must still match it.

bench/layers.py rebuilds `cover`, `uncover` and the CLI commands stage by
stage from copies of program functions, each pinned by a digest of its
tokens. When one of those functions changes, the traced benchmark calls
it whole and its per-layer metrics go missing, which fails the benchmark.
"""

import ast
from pathlib import Path

from duostego import pipeline
from duostego.lexicon import Lexicon

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_pinned_functions_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    stale = layers.stale()
    assert stale == [], (
        f"{', '.join(stale)} changed since bench/layers.py copied them. Changing a "
        "pinned function needs a separate benchmark change that updates its copy "
        "in bench/layers.py and the digests in layers.DIGESTS."
    )


def test_names_the_rebuild_imports_resolve():
    # layers.py imports these inside the rebuilt stages, so a missing one
    # would fail only a `--trace 1` benchmark run, not the digest check.
    tree = ast.parse((BENCH / "layers.py").read_text("utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "duostego.pipeline"
        for alias in node.names
    ]
    assert "decode_sentence" in names and "DEFAULT_GRAMMAR" in names
    assert [name for name in names if not hasattr(pipeline, name)] == []
    assert pipeline.decode_sentence is Lexicon.digits_of
