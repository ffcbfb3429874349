"""File formats and pretty-printing.

Matrix files: a line "d n", then d rows of n space-separated integers.
Ideal files: one generator per line as n nonnegative integers (the
exponent vector).  '#' starts a comment in both; blank lines are skipped.
Monomials print with variable names a, b, c, ... when n <= 26, x1, x2,
... otherwise.
"""

import string

from .errors import FormatError
from .grading import validate_grading
from .monomials import minimalize


def _content_lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_integers(text, sep=None):
    """The integers of a separated list; FormatError on any other token."""
    try:
        return [int(tok) for tok in text.split(sep)]
    except ValueError as exc:
        raise FormatError(f"not a list of integers: {text!r}") from exc


def parse_matrix(text):
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty matrix file")
    header = parse_integers(lines[0])
    if len(header) != 2:
        raise FormatError(f"bad header line {lines[0]!r}")
    d, n = header
    if len(lines) != d + 1:
        raise FormatError(f"expected {d} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        row = parse_integers(line)
        if len(row) != n:
            raise FormatError(f"row {line!r} does not have {n} entries")
        rows.append(row)
    return rows


def read_text(path):
    """The text of a UTF-8 file; FormatError if its bytes are not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_matrix(path):
    return validate_grading(parse_matrix(read_text(path)))


def parse_ideal(text, n):
    gens = []
    for line in _content_lines(text):
        exps = parse_integers(line)
        if len(exps) != n:
            raise FormatError(f"generator {line!r} does not have {n} exponents")
        if any(e < 0 for e in exps):
            raise FormatError(f"negative exponent in {line!r}")
        gens.append(tuple(exps))
    return minimalize(gens)


def load_ideal(path, n):
    return parse_ideal(read_text(path), n)


def format_ideal(ideal):
    return "".join(" ".join(str(e) for e in g) + "\n" for g in ideal.gens)


def variable_names(n):
    if n <= 26:
        return list(string.ascii_lowercase[:n])
    return [f"x{i + 1}" for i in range(n)]


def monomial_str(exps, names=None):
    if names is None:
        names = variable_names(len(exps))
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "".join(parts) if parts else "1"


def binomial_str(lead, trail, coeff=1, names=None):
    if coeff == 1:
        return f"{monomial_str(lead, names)} - {monomial_str(trail, names)}"
    return f"{monomial_str(lead, names)} - {coeff} {monomial_str(trail, names)}"


def pair_str(pair, names=None):
    return binomial_str(pair[0], pair[1], 1, names)
