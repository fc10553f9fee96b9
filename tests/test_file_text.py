"""The package's one reader and writer of files, errors.read_text and
errors.write_text, and run_tomo's string paths, each against the text-mode
open and the pathlib code it replaced, kept here as the oracles."""

import codecs
import errno
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
    """read_text as it read through a text-mode open, universal newlines on, with a
    decode error's offset moved past a byte-order mark, which text mode counted from."""
    bom = len(codecs.BOM_UTF8) if Path(path).read_bytes().startswith(codecs.BOM_UTF8) else 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeEncodeError as exc:
        raise ParseError(f"{path}: name cannot be encoded in the filesystem encoding "
                         f"{exc.encoding!r}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {bom + exc.start})"
                         ) from exc


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

    @pytest.mark.parametrize("data, offset, reason", [
        (b"ab\xff", 2, "invalid start byte"),
        (codecs.BOM_UTF8 + b"ab\xff", 5, "invalid start byte"),
        (codecs.BOM_UTF8 + b"\xc3", 3, "unexpected end of data"),
        (codecs.BOM_UTF8 + codecs.BOM_UTF8 + b"\x80", 6, "invalid start byte"),
    ], ids=["plain", "bom", "bom-truncated", "two-boms"])
    def test_decode_error_gives_the_file_offset(self, tmp_path, data, offset, reason):
        # the offset counts a leading byte-order mark, as a hex dump of the file does
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: not UTF-8 text ({reason} at byte {offset})")):
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


@st.composite
def sized_text(draw, size):
    """Text whose UTF-8 bytes number exactly size: drawn text cut to at most size
    bytes at a character boundary, then padded with ASCII."""
    text = draw(st.text(max_size=size))
    while len(text.encode("utf-8")) > size:
        text = text[:-1]
    return text + "x" * (size - len(text.encode("utf-8")))


LENGTHS = {"shorter": lambda n: st.integers(0, n - 1), "same": st.just,
           "longer": lambda n: st.integers(n + 1, 2 * n + 8)}


class TestWriteText:
    """write_text writes over the old file and cuts it to length: the oracles are
    the bytes a truncating open(path, "wb") leaves, and its mode and errors."""

    @pytest.mark.parametrize("relation", LENGTHS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_rewrite_holds_only_its_bytes(self, scratch, relation, data):
        first = data.draw(st.text(min_size=1))
        size = data.draw(LENGTHS[relation](len(first.encode("utf-8"))))
        second = data.draw(sized_text(size))
        write_text(scratch, first)
        write_text(scratch, second)
        assert scratch.read_bytes() == second.encode("utf-8")

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_a_failed_write_leaves_the_bytes_it_wrote(self, tmp_path, monkeypatch, k):
        # old bytes never follow new ones: the file is cut at the k written
        path = tmp_path / "out.txt"
        write_text(path, "old," * 20)
        real_write = os.write
        calls = []

        def write(fd, data):
            calls.append(len(data))
            if len(calls) > 1 or not k:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data[:k])

        monkeypatch.setattr(os, "write", write)
        with pytest.raises(OSError, match="No space left on device"):
            write_text(path, "new," * 10)
        monkeypatch.undo()
        assert path.read_bytes() == b"new,new,"[:k]

    def test_short_writes_continue_where_they_stopped(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:3]))
        write_text(path, "0123456789\n")
        assert path.read_bytes() == b"0123456789\n"

    def test_the_file_is_not_inherited(self, tmp_path, monkeypatch):
        real_write = os.write
        inheritable = []

        def write(fd, data):
            inheritable.append(os.get_inheritable(fd))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)
        write_text(tmp_path / "out.txt", "text")
        assert inheritable == [False]

    def test_an_unencodable_name_fails_as_open_does(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        name = "\ud800.txt"  # no surrogate escape of a byte: UTF-8 cannot encode it
        outcomes = []
        for write in (lambda: open(name, "wb").close(), lambda: write_text(name, "x")):
            try:
                write()
            except (UnicodeEncodeError, ValueError) as exc:
                outcomes.append(repr(exc))
            else:
                outcomes.append(sorted(os.listdir()))
        assert outcomes[0] == outcomes[1]


@pytest.mark.skipif(os.name != "posix", reason="inodes, links, modes and /dev/null")
class TestWriteTextPosix:
    def test_an_existing_file_keeps_its_inode_and_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, "old text, longer than the new\n")
        path.chmod(0o640)
        before = path.stat()
        write_text(path, "new\n")
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_bytes() == b"new\n"

    def test_a_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.txt"
        write_text(target, "old text\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_text(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"

    def test_a_hard_link_sees_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, "old text\n")
        other = tmp_path / "other.txt"
        os.link(path, other)
        write_text(path, "new\n")
        assert other.read_bytes() == b"new\n"

    @pytest.mark.parametrize("umask", [0o000, 0o022, 0o077])
    def test_a_new_file_gets_the_text_mode_mode(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_text(tmp_path / "new.txt", "text")
            with open(tmp_path / "oracle.txt", "w", encoding="utf-8") as fh:
                fh.write("text")
        finally:
            os.umask(old)
        assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "oracle.txt").stat().st_mode

    def test_dev_null_accepts_a_write(self):
        # a char device: ftruncate fails there with EINVAL
        write_text(os.devnull, "text\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_dev_full_raises_its_write_error(self):
        # a char device that fails every write: the error is the write's, as for
        # open(path, "wb"), not an EINVAL from cutting a device to length
        with pytest.raises(OSError) as raised:
            write_text("/dev/full", "text\n")
        assert raised.value.errno == errno.ENOSPC


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
