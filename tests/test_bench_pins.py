"""The benchmark's pinned copies of program code must still match it.

bench/layers.py rebuilds `cover`, `uncover` and the CLI commands stage by
stage from copies of program functions, each pinned by a digest of its
tokens. When one of those functions changes, the traced benchmark calls
it whole and its per-layer metrics go missing, which fails the benchmark.
"""

from pathlib import Path

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
