"""The package's public names: the library the README documents."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import duostego
from duostego import grammar, pipeline

INTERNAL = {
    "DEFAULT_GRAMMAR": "duostego.pipeline",
    "generate_sentence": "duostego.grammar",
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


def test_sentence_generator_is_a_plain_function():
    # The pinned cover loop still calls DEFAULT_GRAMMAR.generate_sentence,
    # so pipeline binds that name to the grammar module itself.
    assert not hasattr(grammar, "Grammar") and not hasattr(grammar, "DEFAULT_GRAMMAR")
    assert pipeline.DEFAULT_GRAMMAR.generate_sentence is grammar.generate_sentence


def fresh_modules(script, cwd):
    """sorted(sys.modules) after script runs in a fresh interpreter in cwd."""
    root = Path(__file__).resolve().parent.parent
    script += "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    pythonpath = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
        cwd=root / cwd,
        capture_output=True,
        text=True,
        encoding="utf-8",
        check=True,
    )
    return json.loads(proc.stdout)


def test_setup_loads_no_thread_pool():
    # The benchmark's setup_s times a fresh interpreter that runs
    # bench/child.py's set-up; concurrent.futures would add about 2 ms.
    modules = fresh_modules("import child\nassert child.main(['setup']) == 0\n", "bench")
    assert "duostego.pipeline" in modules and "threading" in modules
    assert "concurrent.futures" not in modules


def test_one_span_report_loads_no_thread_pool():
    # Only a clip of two spans or more needs the pool; concurrent.futures
    # and the logging it loads would cost a one-span inspect 2-3 ms.
    script = (
        "import numpy as np\n"
        "import duostego, duostego.cli\n"
        "clip = duostego.AudioClip(8000, 1, np.zeros(1 << 16, np.uint16))\n"
        "assert duostego.distortion_report(clip, clip).samples_changed == 0\n"
    )
    modules = fresh_modules(script, ".")
    assert "duostego.cli" in modules and "duostego.pipeline" in modules
    assert "concurrent.futures" not in modules and "logging" not in modules
