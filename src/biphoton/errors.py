"""Exception types shared across the package, and the text reading that
every parser shares: read_text, and data_lines for the comment rule."""


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
    """Contents of a UTF-8 text file, read through open in one call, less a
    leading byte-order mark; bytes that do not decode, and a name that the
    filesystem encoding cannot encode, are a ParseError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeEncodeError as exc:
        raise ParseError(f"{path}: name cannot be encoded in the filesystem encoding "
                         f"{exc.encoding!r}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def data_lines(text):
    """(lineno from 1, stripped line) of each line neither blank nor a '#' comment."""
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return ((lineno, line) for lineno, line in lines if line and not line.startswith("#"))
