"""Exception types shared across the package, and the file text that every
reader and writer shares: read_text and write_text, the only places the package
opens a file, and data_lines for the line ends and the comment rule."""


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
    """Contents of a UTF-8 file, its bytes read in one call and decoded as utf-8-sig,
    so less a leading byte-order mark; line ends stay as they are, for data_lines to
    split. Bytes that do not decode, a file of only part of a byte-order mark among
    them, and a name that the filesystem encoding cannot encode are a ParseError."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig")
    except UnicodeEncodeError as exc:
        raise ParseError(f"{path}: name cannot be encoded in the filesystem encoding "
                         f"{exc.encoding!r}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def write_text(path, text):
    """Write text to path as its UTF-8 bytes, so each '\\n' stays '\\n' on every platform."""
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def data_lines(text):
    """(lineno from 1, stripped line) of each line neither blank nor a '#' comment. A line
    ends at '\\n', '\\r\\n', '\\r' or another break of str.splitlines, so the lines and
    their numbers are those of a text-mode read."""
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return ((lineno, line) for lineno, line in lines if line and not line.startswith("#"))
