"""The package's public names: the library the README documents."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duostego
from duostego import cli, grammar, pipeline

INTERNAL = {
    "DEFAULT_GRAMMAR": "duostego.pipeline",
    "generate_sentence": "duostego.grammar",
    "GridGeometry": "duostego.sample_grid",
    "geometry": "duostego.sample_grid",
    "decode_sentence": "duostego.pipeline",
    "secrets": "duostego.pipeline",
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


def test_cli_path_overrides_only_read_bytes():
    # The pinned readers call Path(...).read_bytes(), so cli binds Path to a
    # pathlib subclass that reads bytes through wav_codec.read_file; the text
    # reader and the writers stay pathlib's own.
    assert issubclass(cli.Path, Path)
    assert [name for name in vars(cli.Path) if not name.startswith("__")] == ["read_bytes"]
    for name in ("read_text", "write_bytes", "write_text"):
        assert getattr(cli.Path, name) is getattr(Path, name)


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


SETUP = "import child\nassert child.main(['setup']) == 0\n"


def test_setup_loads_no_thread_pool():
    # The benchmark's setup_s times a fresh interpreter that runs
    # bench/child.py's set-up; concurrent.futures would add about 2 ms.
    modules = fresh_modules(SETUP, "bench")
    assert "duostego.pipeline" in modules and "threading" in modules
    assert "concurrent.futures" not in modules


# One block, and 2**21 + 1 samples: two spans of 2**20 samples and more, which
# a walk split across CPUs would put on a second thread.
@pytest.mark.parametrize("n", [1 << 16, (1 << 21) + 1])
def test_report_loads_no_thread_pool(n):
    # The caller walks a clip of any length alone; concurrent.futures and
    # the logging it loads would cost an inspect 2-3 ms.
    script = (
        "import numpy as np\n"
        "import duostego, duostego.cli\n"
        f"clip = duostego.AudioClip(8000, 1, np.zeros({n}, np.uint16))\n"
        "assert duostego.distortion_report(clip, clip).samples_changed == 0\n"
    )
    modules = fresh_modules(script, ".")
    assert "duostego.cli" in modules and "duostego.pipeline" in modules
    assert "concurrent.futures" not in modules and "logging" not in modules


COMMANDS = {
    "cover-seed": ["cover", "carrier.wav", "payload.bin", "-o", "s.wav", "-t", "s.txt", "--seed", "7"],
    "cover": ["cover", "carrier.wav", "payload.bin", "-o", "r.wav", "-t", "r.txt"],
    "uncover": ["uncover", "stego.wav", "stego.txt", "-o", "out.bin"],
    "inspect": ["inspect", "carrier.wav", "stego.wav"],
    "capacity": ["capacity", "carrier.wav"],
}


@pytest.mark.parametrize("run", ["setup", *COMMANDS])
def test_start_up_loads_no_openssl(run, tmp_path, monkeypatch):
    # `import secrets` loads hashlib, which maps OpenSSL's libcrypto:
    # about 3.7 MB on the peak of every process, seedless cover or not.
    if run == "setup":
        modules = fresh_modules(SETUP, "bench")
    else:
        monkeypatch.chdir(tmp_path)
        samples = np.random.default_rng(0).integers(0, 1 << 16, size=4000, dtype=np.uint16)
        (tmp_path / "carrier.wav").write_bytes(duostego.write_wav(duostego.AudioClip(8000, 1, samples)))
        (tmp_path / "payload.bin").write_bytes(b"payload")
        assert cli.main(["cover", "carrier.wav", "payload.bin", "-o", "stego.wav", "-t", "stego.txt"]) == 0
        script = (
            "import contextlib, io\n"
            "from duostego import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({COMMANDS[run]!r}) == 0\n"
        )
        modules = fresh_modules(script, tmp_path)
        assert "duostego.cli" in modules
    assert "duostego.pipeline" in modules
    assert not {"_hashlib", "hashlib", "hmac", "secrets"} & set(modules)
