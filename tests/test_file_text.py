"""The package's one reader and writer of files, errors.read_text and
errors.write_text, and run_tomo's string paths, each against the text-mode
open and the pathlib code it replaced, kept here as the oracles."""

import codecs
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton
from biphoton import cli, pipeline, states, tomography
from biphoton.errors import ParseError, data_lines, read_text, write_text


def read_text_mode(path):
    """read_text as it read through a text-mode open, universal newlines on."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeEncodeError as exc:
        raise ParseError(f"{path}: name cannot be encoded in the filesystem encoding "
                         f"{exc.encoding!r}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def lines_or_error(read, path):
    """data_lines of read(path) as a list, else the ParseError's message."""
    try:
        return list(data_lines(read(path)))
    except ParseError as exc:
        return str(exc)


LINE_ENDS = ["\n", "\r\n", "\r", "\x85", "\u2028"]
# bytes no UTF-8 text holds: a stray continuation, an invalid start, a truncated
# sequence, an encoded surrogate, and part of a byte-order mark
BAD_BYTES = [b"\x80", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb"]


@st.composite
def file_bytes(draw):
    """UTF-8 lines, '#' comments and blanks among them, with mixed line ends, perhaps
    behind a byte-order mark, and perhaps with bytes that do not decode spliced in."""
    rows = draw(st.lists(st.tuples(
        st.one_of(st.text(alphabet="HV,#01. \t", max_size=8), st.text(max_size=4)),
        st.sampled_from(LINE_ENDS)), max_size=8))
    data = "".join(row + end for row, end in rows).encode("utf-8")
    for bad in draw(st.lists(st.sampled_from(BAD_BYTES), max_size=2)):
        offset = draw(st.integers(0, len(data)))
        data = data[:offset] + bad + data[offset:]
    return codecs.BOM_UTF8 + data if draw(st.booleans()) else data


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("text") / "file.txt"


class TestReadText:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(file_bytes(), st.binary(max_size=12)))
    def test_lines_and_errors_are_the_text_mode_read(self, scratch, data):
        if len(data) < 3 and codecs.BOM_UTF8.startswith(data) and data:
            return  # a file of part of a byte-order mark: test_partial_byte_order_mark
        scratch.write_bytes(data)
        assert lines_or_error(read_text, scratch) == lines_or_error(read_text_mode, scratch)

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
    def test_partial_byte_order_mark(self, tmp_path, data):
        # text mode's decoder waits for the rest of a mark that never comes and reads
        # such a file as empty; the bytes do not decode, and read_text says so
        path = tmp_path / "bom.txt"
        path.write_bytes(data)
        assert read_text_mode(path) == ""
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: not UTF-8 text (unexpected end of data at byte 0)")):
            read_text(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_count_file_line_ends(self, tmp_path, end):
        probs = tomography.expected_probabilities(states.werner(0.3))
        path = tmp_path / "counts.txt"
        pipeline.write_counts(probs * 1e6, path)
        expected = tomography.read_counts(path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes().replace(b"\n", end.encode()))
        assert tomography.read_counts(path).counts.tolist() == expected.counts.tolist()


@pytest.mark.skipif(os.name != "posix", reason="text mode writes '\\n' as is only on POSIX")
@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_write_text_is_the_text_mode_write(scratch, text):
    write_text(scratch, text)
    written = scratch.read_bytes()
    with open(scratch, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert written == scratch.read_bytes()


NAMES = ["a.", "a..", "..x", ".hidden", "a.tar.gz", "./a.txt", "a//b.txt", "x/", "x/.",
         "..", ".", "", "/", "a/..", "dir.d/", "dir.d/b", "/abs/c.txt", "\udcff.txt"]


class TestTomoPaths:
    @pytest.mark.parametrize("name", NAMES)
    def test_names(self, name):
        assert pipeline._stem(name) == Path(name).stem

    def test_trailing_dot_stays(self):
        assert [pipeline._stem(n) for n in ("a.", "a..", "..x")] == ["a.", "a..", "."]

    @given(name=st.text(alphabet=st.sampled_from("ab./\\ é\udcff"), max_size=10))
    def test_generated_names(self, name):
        assert pipeline._stem(name) == Path(name).stem

    def test_directory_argument_keeps_its_exit_code(self, tmp_path, capsys, monkeypatch):
        # each is an I/O error of its own, not a repeat of the other's empty stem
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        assert cli.main(["tomo", "x/", "y/.", "--out", "out"]) == cli.EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:2] for line in err] == [["I/O error", "x/"],
                                                           ["I/O error", "y/."]]

    def test_empty_out_is_the_current_directory(self, tmp_path, monkeypatch):
        # as Path("") is
        monkeypatch.chdir(tmp_path)
        probs = tomography.expected_probabilities(states.werner(0.3))
        pipeline.write_counts(probs * 1e6, "w.txt")
        (record,), errors = pipeline.run_tomo(["w.txt"], "")
        assert (record.label, errors) == ("w", [])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "summary.csv", "w.txt", "w_report.txt"]


def test_open_only_in_errors():
    package = Path(biphoton.__file__).parent
    opening = sorted(p.name for p in package.glob("*.py") if "open(" in p.read_text("utf-8"))
    assert opening == ["errors.py"]
