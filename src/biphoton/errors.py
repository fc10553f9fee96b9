"""Exception types shared across the package, and the file text that every
reader and writer shares: read_text and write_text, the only places the package
opens a file, and data_lines for the line ends and the comment rule.

write_text writes each output over the old file, then cuts it to length, so an
existing file keeps its inode, mode and links. A write is not atomic: a reader
may see it part-way, and a failed write leaves only the new bytes it wrote."""

import codecs
import os


class BiphotonError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BiphotonError):
    """An input file or config does not match its expected format."""


class ValidationError(BiphotonError):
    """A state or input failed a physicality check."""


class DegenerateInputError(BiphotonError):
    """Input is formally valid but carries no usable information
    (e.g. all-zero counts, zero coincidence rates)."""


class ConfigError(BiphotonError):
    """A run configuration is unusable (missing keys, bad values, bad
    grids)."""


class ConvergenceError(BiphotonError):
    """The likelihood optimizer did not converge.

    Carries the last state reached and its certificate gap, an exact bound on
    how far its objective lies above the optimum per unit N (the counts'
    total_scale), so callers can inspect or accept the partial result.
    """

    def __init__(self, message, best_state=None, gap=None):
        super().__init__(message)
        self.best_state = best_state
        self.gap = gap


def read_text(path):
    """Contents of a UTF-8 file, its bytes read in one call and decoded less a leading
    byte-order mark; line ends stay as they are, for data_lines to split. Bytes that
    do not decode, a file of only part of a byte-order mark among them, are a
    ParseError giving the offset in the file of the first, and so is a name that the
    filesystem encoding cannot encode."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except UnicodeEncodeError as exc:
        raise ParseError(f"{path}: name cannot be encoded in the filesystem encoding "
                         f"{exc.encoding!r}") from exc
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = len(data) - len(body) + exc.start
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {offset})") from exc


# open(path, "wb") less O_TRUNC: os.open adds close-on-exec, and 0o666 less the
# umask is the mode of a new file
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_text(path, text):
    """Write text to path as its UTF-8 bytes, so each '\\n' stays '\\n' on every platform.

    The bytes go over the old file, which is then cut to their length if it was
    longer: a truncate to zero first costs more than the write on ext4, as the
    close after it starts writeback. An existing file keeps its inode, mode and
    links, and a new one gets the mode of open(path, "w"). A write is not
    atomic, and one that fails part-way cuts the file at the new bytes it wrote
    before it raises, so old bytes never follow new ones."""
    data = text.encode("utf-8")
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            # a char device such as /dev/null has size 0, and ftruncate fails on it
            if os.fstat(fd).st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def data_lines(text):
    """(lineno from 1, stripped line) of each line neither blank nor a '#' comment. A line
    ends at '\\n', '\\r\\n', '\\r' or another break of str.splitlines, so the lines and
    their numbers are those of a text-mode read."""
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return ((lineno, line) for lineno, line in lines if line and not line.startswith("#"))
