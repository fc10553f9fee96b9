"""Test-side reader of the pipeline's tables, kept out of the package,
which only writes them."""

from biphoton.errors import ParseError, read_text


def read_table(path):
    """Parse a table written by write_table: (header, rows of strings)."""
    header = None
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} columns")
        rows.append(cells)
    if header is None:
        raise ParseError(f"{path}: no header row")
    return header, rows
