import argparse
import gc
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duostego import cli, errors
from duostego.cli import main
from duostego.wav_codec import AudioClip, parse_wav, write_wav

from conftest import make_lexicon_text, pcm_fmt_body, raw_wav_bytes, ref_wav_bytes


@pytest.fixture
def carrier_path(tmp_path):
    rng = np.random.default_rng(1234)
    samples = rng.integers(0, 1 << 16, size=2000, dtype=np.uint16).tolist()
    path = tmp_path / "carrier.wav"
    path.write_bytes(ref_wav_bytes(samples, rate=16000))
    return path


def run_cover(tmp_path, carrier_path, payload=b"meet me at noon", seed="271828"):
    payload_path = tmp_path / "payload.bin"
    payload_path.write_bytes(payload)
    stego = tmp_path / "stego.wav"
    text = tmp_path / "sentences.txt"
    code = main(
        [
            "cover",
            str(carrier_path),
            str(payload_path),
            "-o",
            str(stego),
            "-t",
            str(text),
            "--seed",
            seed,
        ]
    )
    return code, stego, text, payload


def damage_first_word(text_path):
    """Replace the location text's first word by one no lexicon holds."""
    lines = text_path.read_text(encoding="utf-8").splitlines()
    lines[0] = "xyzzy " + lines[0].split(" ", 1)[1]
    text_path.write_text("\n".join(lines), encoding="utf-8")


class TestCoverUncover:
    def test_end_to_end(self, tmp_path, carrier_path, capsys):
        code, stego, text, payload = run_cover(tmp_path, carrier_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "271828" in out

        recovered = tmp_path / "out.bin"
        code = main(["uncover", str(stego), str(text), "-o", str(recovered)])
        assert code == 0
        assert recovered.read_bytes() == payload

    def test_text_format(self, tmp_path, carrier_path):
        _, _, text, _ = run_cover(tmp_path, carrier_path)
        lines = text.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            words = line.split(" ")
            assert words == line.split()  # single spaces only
            assert all(w == w.lower() and w.isalpha() for w in words)

    def test_custom_lexicon(self, tmp_path, carrier_path):
        lex_path = tmp_path / "lex.txt"
        lex_path.write_text(make_lexicon_text(cell_size=3), encoding="utf-8")
        payload_path = tmp_path / "p.bin"
        payload_path.write_bytes(b"custom")
        stego = tmp_path / "s.wav"
        text = tmp_path / "t.txt"
        args = ["--lexicon", str(lex_path)]
        assert (
            main(
                ["cover", str(carrier_path), str(payload_path), "-o", str(stego), "-t", str(text), "--seed", "5"]
                + args
            )
            == 0
        )
        recovered = tmp_path / "r.bin"
        assert main(["uncover", str(stego), str(text), "-o", str(recovered)] + args) == 0
        assert recovered.read_bytes() == b"custom"

    def test_stego_wav_is_valid_pcm(self, tmp_path, carrier_path):
        _, stego, _, _ = run_cover(tmp_path, carrier_path)
        clip = parse_wav(stego.read_bytes())
        assert clip.sample_count == 2000
        assert clip.sample_rate == 16000


class TestReporting:
    def test_capacity(self, carrier_path, capsys):
        assert main(["capacity", str(carrier_path)]) == 0
        out = capsys.readouterr().out
        assert "746 payload bytes" in out  # (3*2000 - 32) // 8
        assert "18.75%" in out

    def test_inspect(self, tmp_path, carrier_path, capsys):
        _, stego, _, _ = run_cover(tmp_path, carrier_path)
        assert main(["inspect", str(carrier_path), str(stego)]) == 0
        out = capsys.readouterr().out
        assert "samples changed" in out
        assert "dB" in out


class TestReadingFiles:
    """The CLI reads each WAV and payload file through wav_codec.read_file."""

    @pytest.mark.parametrize("make", [lambda path: None, Path.mkdir], ids=["missing", "directory"])
    def test_unreadable_wav_fails_as_before(self, tmp_path, carrier_path, capsys, make):
        bad = tmp_path / "bad.wav"
        make(bad)
        with pytest.raises(OSError) as expected:
            bad.read_bytes()  # pathlib's own read, which the CLI used before
        assert main(["inspect", str(bad), str(carrier_path)]) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert str(expected.value).startswith("[Errno ")

    def test_cover_over_its_own_carrier_writes_the_same_files(self, tmp_path, carrier_path):
        _, fresh, fresh_text, _ = run_cover(tmp_path, carrier_path)
        own = tmp_path / "own.wav"
        own.write_bytes(carrier_path.read_bytes())
        argv = ["cover", str(own), str(tmp_path / "payload.bin"), "-o", str(own), "-t", str(tmp_path / "own.txt")]
        assert main([*argv, "--seed", "271828"]) == 0
        assert own.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "own.txt").read_bytes() == fresh_text.read_bytes()

    def test_inspect_of_a_file_against_itself_changes_nothing(self, carrier_path, capsys):
        assert main(["inspect", str(carrier_path), str(carrier_path)]) == 0
        assert "samples changed: 0\n" in capsys.readouterr().out

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_stego_read_through_a_pipe(self, tmp_path, carrier_path, capsys):
        _, stego, text, payload = run_cover(tmp_path, carrier_path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(stego.read_bytes()), daemon=True)
        writer.start()
        assert main(["uncover", str(pipe), str(text), "-o", str(tmp_path / "out.bin")]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (tmp_path / "out.bin").read_bytes() == payload
        capsys.readouterr()


class TestExitCodes:
    def test_capacity_exceeded_is_3(self, tmp_path, carrier_path, capsys):
        big = tmp_path / "big.bin"
        big.write_bytes(b"\x00" * 4000)  # capacity is 746 bytes
        code = main(
            ["cover", str(carrier_path), str(big), "-o", str(tmp_path / "s.wav"), "-t", str(tmp_path / "t.txt")]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_bad_lexicon_is_4(self, tmp_path, carrier_path, capsys):
        lex_path = tmp_path / "broken.txt"
        lex_path.write_text("0|noun|door\n", encoding="utf-8")  # nearly all cells missing
        payload = tmp_path / "p.bin"
        payload.write_bytes(b"x")
        code = main(
            [
                "cover", str(carrier_path), str(payload),
                "-o", str(tmp_path / "s.wav"), "-t", str(tmp_path / "t.txt"),
                "--lexicon", str(lex_path),
            ]
        )
        assert code == 4
        capsys.readouterr()

    def test_not_a_wav_is_5(self, tmp_path, capsys):
        fake = tmp_path / "fake.wav"
        fake.write_bytes(b"definitely not audio")
        assert main(["capacity", str(fake)]) == 5
        capsys.readouterr()

    def test_dangling_bytes_after_last_chunk_is_5(self, tmp_path, capsys):
        # RIFF size 42: "WAVE", fmt (24 bytes), data (10), then 4 bytes, too few for a chunk header
        carrier = tmp_path / "dangling.wav"
        carrier.write_bytes(raw_wav_bytes([(b"fmt ", pcm_fmt_body()), (b"data", b"\x00\x00")], riff_size=42) + bytes(4))
        assert main(["capacity", str(carrier)]) == 5
        assert "dangling bytes" in capsys.readouterr().err

    def test_short_fmt_chunk_is_5(self, tmp_path, capsys):
        carrier = tmp_path / "short.wav"
        carrier.write_bytes(raw_wav_bytes([(b"fmt ", pcm_fmt_body()[:14]), (b"data", b"\x00\x00")]))
        assert main(["capacity", str(carrier)]) == 5
        assert "fmt chunk is 14 bytes, need at least 16" in capsys.readouterr().err

    @pytest.mark.parametrize("channels,rate", [(2, 3_000_000_000), (40_000, 8000)])
    def test_fmt_the_writer_cannot_hold_is_5(self, tmp_path, capsys, channels, rate):
        # write_wav could not write such a clip back, so parse_wav refuses it
        # before cover does any work
        carrier = tmp_path / "odd.wav"
        fmt = pcm_fmt_body(channels, rate)
        carrier.write_bytes(raw_wav_bytes([(b"fmt ", fmt), (b"data", bytes(range(256)) * 16)]))
        code, stego, text, _ = run_cover(tmp_path, carrier, payload=b"x")
        assert code == 5
        assert "channels" in capsys.readouterr().err
        assert not stego.exists() and not text.exists()

    def test_extraction_failure_is_6(self, tmp_path, carrier_path, capsys):
        _, stego, text, _ = run_cover(tmp_path, carrier_path)
        damage_first_word(text)
        code = main(["uncover", str(stego), str(text), "-o", str(tmp_path / "o.bin")])
        assert code == 6
        capsys.readouterr()

    def test_zero_sample_audio(self, tmp_path, capsys):
        # cover's capacity check and uncover's empty-audio check refuse it
        empty = tmp_path / "empty.wav"
        empty.write_bytes(ref_wav_bytes([]))
        code, stego, text, _ = run_cover(tmp_path, empty, payload=b"")
        assert code == 3
        assert "needs 32 bits but the carrier holds 0" in capsys.readouterr().err
        text.write_text("eat\n", encoding="utf-8")
        assert main(["uncover", str(empty), str(text), "-o", str(tmp_path / "o.bin")]) == 6
        assert "stego audio has no samples" in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()

    def test_truncated_text_is_6(self, tmp_path, carrier_path, capsys):
        _, stego, text, _ = run_cover(tmp_path, carrier_path)
        lines = text.read_text(encoding="utf-8").splitlines()
        text.write_text("\n".join(lines[:-2]), encoding="utf-8")
        code = main(["uncover", str(stego), str(text), "-o", str(tmp_path / "o.bin")])
        assert code == 6
        capsys.readouterr()

    def test_duplicated_line_is_6(self, tmp_path, carrier_path, capsys):
        _, stego, text, _ = run_cover(tmp_path, carrier_path)
        lines = text.read_text(encoding="utf-8").splitlines()
        lines.insert(3, lines[3])
        lines.pop()
        text.write_text("\n".join(lines), encoding="utf-8")
        code = main(["uncover", str(stego), str(text), "-o", str(tmp_path / "o.bin")])
        assert code == 6
        assert "sentences 3 and 4" in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_1(self, tmp_path, carrier_path, capsys, seed):
        code, stego, text, _ = run_cover(tmp_path, carrier_path, seed=seed)
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not stego.exists() and not text.exists()

    def test_missing_file_is_1(self, tmp_path, capsys):
        assert main(["capacity", str(tmp_path / "absent.wav")]) == 1
        capsys.readouterr()

    def test_non_utf8_text_is_1(self, tmp_path, carrier_path, capsys):
        _, stego, text, _ = run_cover(tmp_path, carrier_path)
        text.write_bytes(b"\xff\xfe not utf-8\n")
        code = main(["uncover", str(stego), str(text), "-o", str(tmp_path / "o.bin")])
        assert code == 1
        assert "utf-8" in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()

    def test_non_utf8_lexicon_is_1(self, tmp_path, carrier_path, capsys):
        lex_path = tmp_path / "lex.txt"
        lex_path.write_bytes(make_lexicon_text().encode() + b"0|noun|caf\xe9\n")  # Latin-1
        payload = tmp_path / "p.bin"
        payload.write_bytes(b"x")
        code = main(
            [
                "cover", str(carrier_path), str(payload),
                "-o", str(tmp_path / "s.wav"), "-t", str(tmp_path / "t.txt"),
                "--lexicon", str(lex_path),
            ]
        )
        assert code == 1
        assert "utf-8" in capsys.readouterr().err
        assert not (tmp_path / "s.wav").exists()


# 11 bytes and the 32-bit header fill 40 chunks: 40 four-word sentences.
READ_PAYLOAD = b"eleven byte"


@pytest.fixture(scope="module")
def covered(tmp_path_factory):
    """(folder, stego path, location text bytes) of one cover of a 4,000-sample carrier."""
    folder = tmp_path_factory.mktemp("covered")
    rng = np.random.default_rng(4000)
    carrier = folder / "carrier.wav"
    carrier.write_bytes(ref_wav_bytes(rng.integers(0, 1 << 16, size=4000, dtype=np.uint16).tolist()))
    code, stego, text, _ = run_cover(folder, carrier, payload=READ_PAYLOAD, seed="7")
    assert code == 0
    data = text.read_bytes()
    assert [len(line.split()) for line in data.splitlines()] == [4] * 40
    return folder, stego, data


def _line_break(separator: str):
    """A transform that breaks the text's lines at `separator` instead of \\n."""
    return lambda text: text.replace(b"\n", separator.encode())


def _per_line(edit):
    """A transform that applies `edit` to each line of the text."""
    return lambda text: b"\n".join(map(edit, text.splitlines())) + b"\n"


def _bad_byte_on_line_3(text: bytes) -> bytes:
    lines = text.split(b"\n")
    lines[2] = b"\xff" + lines[2]
    return b"\n".join(lines)


def _mixed_whitespace_and_case(text: bytes) -> bytes:
    """Blank lines, indents, tabs and upper case at once."""
    return b"\n\n".join(b"   " + line.upper().replace(b" ", b"\t  ") for line in text.splitlines())


class TestReadingLocationText:
    """Known answers for how uncover reads the location text, and a byte fuzz.

    They pin today's reader, so a rewrite of it shows every answer it changes.
    """

    @pytest.mark.parametrize(
        "transform, code, fragment",
        [
            pytest.param(_line_break("\r\n"), 0, "", id="crlf"),
            pytest.param(_line_break("\r"), 0, "", id="lone-cr"),
            pytest.param(_line_break("\n\n"), 0, "", id="blank-lines"),
            pytest.param(_line_break("\n \t \n"), 0, "", id="whitespace-only-lines"),
            pytest.param(lambda text: text.replace(b" ", b"\t"), 0, "", id="tabs"),
            pytest.param(_per_line(lambda line: b"  " + line + b" \t"), 0, "", id="leading-and-trailing-spaces"),
            pytest.param(bytes.title, 0, "", id="title-case"),
            pytest.param(bytes.upper, 0, "", id="upper-case"),
            pytest.param(lambda text: text.rstrip(b"\n"), 0, "", id="no-final-newline"),
            *(
                pytest.param(_line_break(separator), 0, "", id=f"separator-u{ord(separator):04x}")
                for separator in "\u2028\u2029\x85\f\v\x1c"
            ),
            pytest.param(lambda text: text.replace(b" ", "\u00a0".encode()), 0, "", id="nbsp-between-words"),
            pytest.param(_mixed_whitespace_and_case, 0, "", id="blank-lines-indents-tabs-upper-case"),
            pytest.param(
                lambda text: "\u200b".encode() + text, 6, "unknown word '\\u200b", id="zero-width-space"
            ),
            pytest.param(
                lambda text: text.replace(b" ", b"\x00", 1), 6, "sentence 0: 3 words, expected 4", id="nul-byte"
            ),
            pytest.param(lambda text: b"", 6, "0 sentences supply only 0 bits", id="empty"),
            pytest.param(_bad_byte_on_line_3, 1, "{path}, line 3: not UTF-8 text", id="not-utf-8"),
            *(
                pytest.param(
                    lambda text, separator=separator: _line_break(separator)(_bad_byte_on_line_3(text)),
                    1,
                    "{path}, line 3: not UTF-8 text",
                    id=f"not-utf-8-{name}",
                )
                for name, separator in [("lone-cr", "\r"), ("u2028", "\u2028")]
            ),
            pytest.param(
                lambda text: b"\xef\xbb\xbf" + text,
                0,
                "",
                id="leading-bom",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the BOM is read as part of the first word until the text is read as "
                    "utf-8-sig (ROADMAP item 3)",
                ),
            ),
        ],
    )
    def test_known_answers(self, tmp_path, covered, capsys, transform, code, fragment):
        _, stego, data = covered
        text, recovered = tmp_path / "text.txt", tmp_path / "out.bin"
        text.write_bytes(transform(data))
        assert main(["uncover", str(stego), str(text), "-o", str(recovered)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert recovered.read_bytes() == READ_PAYLOAD
        else:
            assert fragment.format(path=text) in err
            assert not recovered.exists()

    @given(
        st.lists(
            st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 1 << 16), st.integers(0, 255)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_bytes_exit_with_a_known_code(self, covered, mutations):
        folder, stego, data = covered
        data = bytearray(data)
        for kind, pos, value in mutations:
            pos %= len(data) + 1
            if kind == "insert":
                data.insert(pos, value)
            elif pos < len(data):
                if kind == "set":
                    data[pos] = value
                else:
                    del data[pos]
        # A fresh folder per example: no example rewrites another's files.
        example = Path(tempfile.mkdtemp(dir=folder))
        (example / "text.txt").write_bytes(bytes(data))
        argv = ["uncover", str(stego), str(example / "text.txt"), "-o", str(example / "out.bin")]
        assert main(argv) in {0, 1, 4, 5, 6}


class TestUndecodableFileIsNamed:
    """A file that is not UTF-8 exits 1 naming that file and the line."""

    @pytest.fixture
    def files(self, tmp_path, carrier_path):
        _, stego, text, _ = run_cover(tmp_path, carrier_path)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(make_lexicon_text().encode() + b"0|noun|caf\xe9\n")  # Latin-1
        line = make_lexicon_text().count("\n") + 1
        return stego, text, bad, line

    def check(self, capsys, code, bad, line, good=()):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}, line {line}: not UTF-8 text (")
        assert "'utf-8' codec can't decode byte 0xe9" in err
        assert all(str(path) not in err for path in good)

    def test_cover_lexicon(self, tmp_path, carrier_path, files, capsys):
        _, _, bad, line = files
        payload = tmp_path / "p.bin"
        payload.write_bytes(b"x")
        code = main(
            [
                "cover", str(carrier_path), str(payload),
                "-o", str(tmp_path / "s.wav"), "-t", str(tmp_path / "t.txt"),
                "--lexicon", str(bad),
            ]
        )
        self.check(capsys, code, bad, line, good=[carrier_path, payload])

    def test_uncover_text(self, tmp_path, files, capsys):
        stego, _, bad, line = files
        code = main(["uncover", str(stego), str(bad), "-o", str(tmp_path / "o.bin")])
        self.check(capsys, code, bad, line, good=[stego])

    def test_uncover_lexicon(self, tmp_path, files, capsys):
        stego, text, bad, line = files
        out = tmp_path / "o.bin"
        code = main(["uncover", str(stego), str(text), "-o", str(out), "--lexicon", str(bad)])
        self.check(capsys, code, bad, line, good=[stego, text])
        assert not out.exists()

    def test_bundled_lexicon(self, tmp_path, carrier_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "load_default_lexicon", lambda: b"ok\n\xff".decode("utf-8"))
        code, stego, text, _ = run_cover(tmp_path, carrier_path)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: duostego/data/default_lexicon.txt, line 2: not UTF-8 text (")
        assert "None" not in err
        assert not stego.exists() and not text.exists()


# The exit codes README.md lists, for every error class in duostego.errors.
README_EXIT_CODES = {
    "DuostegoError": 1,
    "WavError": 5,
    "NotRiffError": 5,
    "UnsupportedDepthError": 5,
    "UnsupportedCodecError": 5,
    "TruncatedError": 5,
    "MissingChunkError": 5,
    "OversizeError": 1,
    "LengthMismatchError": 1,
    "OutOfRangeError": 1,
    "CapacityExceededError": 3,
    "LexiconError": 4,
    "LexiconParseError": 4,
    "DuplicateWordError": 4,
    "IncompleteCategoryError": 4,
    "UnknownWordError": 6,  # raised only while location text is decoded
    "ExtractionError": 6,
    "BadSentenceLengthError": 6,
    "CoordinateOutOfRangeError": 6,
    "HeaderCorruptError": 6,
    "RepeatedPositionError": 6,
}
ERROR_ARGS = {
    "DuplicateWordError": ("walk", 0, 9),
    "UnknownWordError": ("xyzzy", 0),
    "RepeatedPositionError": (3, 4, 17),
}


def test_exit_code_table_covers_every_error():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.DuostegoError)
    }
    assert classes == README_EXIT_CODES.keys()


@pytest.mark.parametrize("name,code", README_EXIT_CODES.items())
def test_error_exit_code(monkeypatch, capsys, name, code):
    exc = getattr(errors, name)(*ERROR_ARGS.get(name, ("boom",)))

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_capacity", fail)
    assert main(["capacity", "unused.wav"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


class TestParser:
    """cli.PARSER is built once, at import, and every main() call parses with it."""

    def test_main_builds_no_parser(self, carrier_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert main(["capacity", str(carrier_path)]) == 0
        assert main(["capacity", str(carrier_path)]) == 0
        with pytest.raises(SystemExit):
            main(["cover", str(carrier_path)])
        assert built == []
        capsys.readouterr()

    def test_usage_error_exits_2(self, carrier_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cover", str(carrier_path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: duostego cover ")
        assert main(["capacity", str(carrier_path)]) == 0
        assert capsys.readouterr().out.startswith("746 payload bytes (2000 samples")


@pytest.fixture
def restore_collector():
    """Put the collector back as the test found it, whatever the test set."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """main() pauses the cyclic collector for the command and restores the caller's state."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", ["success", "exit-6", "escapes"])
    def test_collector_state_restored(
        self, tmp_path, carrier_path, monkeypatch, capsys, restore_collector, enabled, outcome
    ):
        _, stego, text, _ = run_cover(tmp_path, carrier_path)
        damage_first_word(text)
        seen = []

        def spy(name, body):
            def handler(args):
                seen.append(gc.isenabled())
                return body(args)

            monkeypatch.setattr(cli, name, handler)

        def escape(args):
            raise RuntimeError("boom")

        (gc.enable if enabled else gc.disable)()
        if outcome == "success":
            spy("cmd_capacity", cli.cmd_capacity)
            assert main(["capacity", str(carrier_path)]) == 0
        elif outcome == "exit-6":
            spy("cmd_uncover", cli.cmd_uncover)
            assert main(["uncover", str(stego), str(text), "-o", str(tmp_path / "o.bin")]) == 6
        else:
            spy("cmd_capacity", escape)
            with pytest.raises(RuntimeError, match="boom"):
                main(["capacity", str(carrier_path)])
        assert seen == [False]
        assert gc.isenabled() is enabled
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["cover", "uncover", "inspect", "capacity", "uncover-unknown-word"])
    def test_commands_leave_no_cyclic_garbage(self, tmp_path, carrier_path, capsys, restore_collector, command):
        # With no cycles, reference counting frees everything, so pausing the
        # collector cannot raise a command's peak memory.
        _, stego, text, _ = run_cover(tmp_path, carrier_path)
        failing = command == "uncover-unknown-word"
        if failing:
            damage_first_word(text)
        argv = {
            "cover": ["cover", str(carrier_path), str(tmp_path / "payload.bin"), "-o", str(tmp_path / "s2.wav"),
                      "-t", str(tmp_path / "t2.txt"), "--seed", "9"],
            "inspect": ["inspect", str(carrier_path), str(stego)],
            "capacity": ["capacity", str(carrier_path)],
        }.get(command, ["uncover", str(stego), str(text), "-o", str(tmp_path / "o.bin")])
        args = cli.PARSER.parse_args(argv)
        gc.collect()
        gc.disable()
        try:
            getattr(cli, f"cmd_{args.command}")(args)
        except errors.UnknownWordError:
            assert failing
        else:
            assert not failing
        gc.enable()
        assert gc.collect() == 0
        capsys.readouterr()
