"""Slot laws over angular slots, plus their file formats.

Slot k (zero-based) covers the half-open arc [2*pi*k/M, 2*pi*(k+1)/M).
A slot law is a tuple of M floats, slot k's mass at index k, and M is
its length.  It is the common currency between the exact distributions,
the Monte Carlo simulator, the diagnostics, and the CLI.  A law the
package computes is not checked again; a law given to it is checked where
it enters, a file's in _slot_pmf and compare's qs.

The package's three input rules live here.  The number rule, _KINDS: an
int is an integer, a float an integer or a float, never a bool or str,
and a subclass of int or float (np.float64, not np.float32) is its base;
check_number applies it to a parameter, with the parameter's least value
if it has one, and a table column holds finite numbers by it.  The count
rule, check_counts: a count is an integer >= 0, and a numpy integer
counts as its int, a float or bool never does.  The law rule, check_law:
a law's masses are nonnegative and sum to 1 within SUM_TOL.

A table (table_csv, table_json, read_table) holds what read_table reads
back, by the number rule: a writer raises a ValueError naming the column
for anything else.  The writers work column by column, and a column that
repeats formats each distinct number once, so a lattice of thousands of
pegs formats a few hundred.  Zeros are never shared: 0.0 == -0.0, so each
is formatted on its own and -0.0 keeps its sign.  A JSON table holds its
rows' columns and its kind's head fields and nothing else: each reader
passes read_table's head to check_head (PMF_HEAD for pmf_from_json, no
head field for pmf_from_csv or a density).
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator

TWO_PI = 2.0 * math.pi

SUM_TOL = 1e-12

# Column name -> type, for the PMF table, and its JSON head (see check_head).
PMF_COLUMNS = {"slot": int, "theta_lo": float, "theta_hi": float, "prob": float}
PMF_HEAD = {"kind": "angular_pmf", "M": int}


class ParseError(ValueError):
    """Malformed data file; where, if given, names the CSV line or JSON row at fault."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(message if where is None else f"{where}: {message}")


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical range [0, 2*pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    out = math.fmod(theta, TWO_PI) + 0.0    # + 0.0: fmod keeps a zero's sign
    if out < 0.0:
        out += TWO_PI
    # fmod can land exactly on 2*pi after the correction
    return out if out < TWO_PI else 0.0


def wrap_to_pi(theta: float) -> float:
    """Reduce an angle to the centered range (-pi, pi]."""
    out = wrap_angle(theta)
    return out if out <= math.pi else out - TWO_PI


def tv_distance(a, b) -> float:
    """Total variation: half the L1 distance between probability vectors."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a, b))


# A law on M slots is also given by its DFT coefficients c(t), t = 0..M-1:
# slot k's mass is (1/M) sum_t c(t) e^{-2*pi*i*t*k/M}, and c(0) = 1.
# These two take numpy arrays and import numpy themselves, so that reading
# and writing tables, which the numpy-free commands do, loads none.

def spectral_masses(coef):
    """The slot masses of the coefficients coef, by one FFT."""
    import numpy as np
    return np.fft.fft(coef).real / coef.size


def spectral_tv(diff) -> list[float]:
    """TV between two laws whose coefficients differ by diff, for each row
    of the (rows, M) array diff: one FFT of every row, then one fsum per row.

    diff[:, 0], differences of two 1s, are left out, so each slot's
    difference is formed from the t != 0 coefficients alone and a tiny
    distance keeps its relative accuracy.
    """
    import numpy as np
    diff = diff.copy()
    diff[:, 0] = 0.0
    folded = np.abs(np.fft.fft(diff, axis=1).real)
    return [0.5 * math.fsum(row.tolist()) / diff.shape[1] for row in folded]


# The number rule (module docstring), per kind: its name in messages, and
# the number types it holds.
_KINDS = {int: ("an integer", (int,)), float: ("a number", (int, float))}


def _check(values, kind) -> set:
    """values' set of types, or a ValueError saying what one of them is not in
    a column of kind: the number rule, and a float column's values finite."""
    name, holds = _KINDS[kind]
    types = set(map(type, values))
    if not all(t is not bool and issubclass(t, holds) for t in types):
        raise ValueError(f"must be {name}")
    try:
        if kind is float and not all(map(math.isfinite, values)):
            raise ValueError("must be finite")
    except OverflowError:       # an int beyond a float
        raise ValueError(f"must be {name}") from None
    return types


def check_number(name: str, value, kind=float, least=None) -> None:
    """A ValueError naming name unless value is a number of kind (int or
    float) by the number rule, and >= least if least is given; a float
    with no least may still be nan or inf."""
    word, holds = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, holds):
        raise ValueError(f"{name} must be {word}, got {value!r}")
    if least is not None and not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def check_law(qs) -> None:
    """The law rule for qs, any sequence of slot masses: a ValueError naming
    the first mass that is nan or below 0, or the sum if it is not 1 within
    SUM_TOL (inf, if finite masses sum past the float range)."""
    for k, q in enumerate(qs):
        if not q >= 0.0:
            raise ValueError(f"slot {k} has negative probability {q!r}" if q < 0.0
                             else f"slot {k} has probability {q!r}, not a number")
    try:
        total = math.fsum(qs)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"slot probabilities sum to {total!r}, not 1")


def check_counts(counts) -> list[int]:
    """counts, any iterable, as a list of ints by the count rule, or a
    ValueError naming the first count that is not an integer, or the least
    one below 0."""
    counts = list(counts)       # the error names a count, so it reads them twice
    odd = {t for t in set(map(type, counts)) if t is bool or not hasattr(t, "__index__")}
    if odd:
        bad = next(c for c in counts if type(c) in odd)
        raise ValueError(f"counts must be integers, got {bad!r}")
    counts = list(map(operator.index, counts))
    if counts and min(counts) < 0:
        raise ValueError(f"counts must be >= 0, got {min(counts)}")
    return counts


class _Reprs(dict):
    """The texts of a column's distinct nonzero values; any other key, a
    zero above all, is formatted afresh (a stored zero would lend its sign)."""

    def __missing__(self, value):
        return repr(value)


def _column_texts(columns: dict, rows) -> list[Iterator[str]]:
    """Each column's texts, in the order of columns (name -> int or float):
    repr, the shortest text that reads back as the same number; [] for no
    rows.  A column of ints alone or floats alone (1 == 1.0) that repeats,
    at most half its values distinct, formats each distinct value once."""
    rows = list(rows)
    try:
        cells = list(zip(*rows, strict=True))
    except ValueError:
        raise ValueError("table rows differ in length") from None
    if rows and not 0 < len(cells) == len(columns):
        raise ValueError(f"table rows hold {len(cells)} fields for {len(columns)} columns")
    texts = []
    for (name, kind), column in zip(columns.items(), cells):
        try:
            types = _check(column, kind)
        except ValueError as exc:
            raise ValueError(f"column {name} {exc}") from None
        if not types <= {int, float}:   # as json.dumps: not 'np.float64(0.5)'
            column = [float(v) if isinstance(v, float) else int(v) for v in column]
        if len(types) == 1 and 2 * len(distinct := set(column)) <= len(column):
            distinct.discard(0)
            texts.append(map(_Reprs(zip(distinct, map(repr, distinct))).__getitem__, column))
        else:
            texts.append(map(repr, column))
    return texts


def table_csv(columns: dict, rows) -> str:
    """A header line of the column names, then one line per row."""
    lines = zip(*_column_texts(columns, rows))
    return "\n".join([",".join(columns), *map(",".join, lines)]) + "\n"


def table_json(head: dict, key: str, columns: dict, rows) -> str:
    """head's fields, then key: a list of one {column: value} object per row,
    as json.dumps(doc, indent=2) + "\n" writes it.  json.dumps writes the
    head, and the rows are table_csv's column texts.  A head that holds key
    is a ValueError."""
    if key in head:
        raise ValueError(f"the head holds the table key {key!r}")
    texts = _column_texts(columns, rows)
    text = json.dumps({**head, key: []}, indent=2)
    if not texts:
        return text + "\n"
    row_format = "    {\n" + ",\n".join(
        f"      {json.dumps(name).replace('%', '%%')}: %s" for name in columns) + "\n    }"
    body = ",\n".join(map(row_format.__mod__, zip(*texts)))
    # one join: a chain of + would make a copy of body at each step
    return "".join([text[:-len("[]\n}")], "[\n", body, "\n  ]\n}\n"])


def row_locator(text: str, key: str, row: int) -> str:
    """Where data row `row` (from 0) of a table document is: 'line N' or 'key[row]'."""
    if text.lstrip().startswith("{"):
        return f"{key}[{row}]"
    lines = [i for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
    return f"line {lines[row + 1]}"     # lines[0] is the header


def _typed(values, kind, is_json: bool) -> list:
    """values as kind, or a ValueError saying what one of them is not: a
    JSON field must be a number of its kind already, a CSV field is text."""
    try:
        column = values if is_json else list(map(kind, values))
    except ValueError:
        raise ValueError(f"must be {_KINDS[kind][0]}") from None
    _check(column, kind)
    return list(map(kind, column)) if is_json else column


def check_head(head: dict, fields: dict) -> None:
    """head, as read_table returns it, must hold exactly the fields a table
    kind names, each a number of the kind fields gives (int or float) or
    the one value it gives; else a ParseError."""
    for name in head:
        if name not in fields:
            raise ParseError(f"unknown field {name!r}")
    for name, want in fields.items():
        if name not in head:
            raise ParseError(f"missing field {name!r}")
        try:
            if want in _KINDS:
                _check([head[name]], want)
            elif head[name] != want:
                raise ValueError(f"must be {want!r}")
        except ValueError as exc:
            raise ParseError(f"{name} {exc}, got {head[name]!r}") from None


def read_table(text: str, columns: dict, key: str) -> tuple[dict, list[tuple]]:
    """Parse what table_csv or table_json wrote: (head, rows).

    Text starting with "{" is JSON, else CSV.  columns maps each name to
    int or float; a field breaking the module's rule, a CSV field that
    int() or float() does not take, or a JSON row field that is not a
    column, is a ParseError naming the CSV line or JSON row of the first.
    head is a JSON document's other fields, {} for CSV; the caller checks
    it (check_head).
    """
    is_json = text.lstrip().startswith("{")
    if is_json:
        try:
            head = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, f"line {exc.lineno}") from None
        except (ValueError, RecursionError) as exc:   # too long an int, too deep
            raise ParseError(str(exc)) from None
        rows = head.pop(key, None)
        if not isinstance(rows, list):
            raise ParseError(f"expected a {key!r} list", "line 1")
    else:
        head, lines = {}, text.splitlines()
        if not lines or lines[0].strip() != ",".join(columns):
            raise ParseError(f"expected header {','.join(columns)!r}", "line 1")
        rows = [line.split(",") for line in lines[1:] if line.strip()]
    if not rows:
        raise ParseError(f"no {key}", None if is_json else "line 2")
    try:
        if set(map(len, rows)) != {len(columns)}:
            raise ValueError
        cells = ([[row[name] for row in rows] for name in columns] if is_json
                 else list(zip(*rows)))
    except (KeyError, TypeError, ValueError):
        row = next(i for i, row in enumerate(rows) if not (
            isinstance(row, dict) and row.keys() == columns.keys() if is_json
            else len(row) == len(columns)))
        raise ParseError(f"expected the {len(columns)} fields {', '.join(columns)}",
                         row_locator(text, key, row)) from None
    try:
        # one converter per column: a read is a few loops in C per column
        typed = [_typed(values, kind, is_json)
                 for kind, values in zip(columns.values(), cells)]
    except ValueError:
        # the slow path: find the first bad field in file order
        for row in range(len(rows)):
            for (name, kind), values in zip(columns.items(), cells):
                try:
                    _typed(values[row:row + 1], kind, is_json)
                except ValueError as exc:
                    raise ParseError(f"{name} {exc}, got {values[row]!r}",
                                     row_locator(text, key, row)) from None
    return head, list(zip(*typed))


# The PMF table kind, one (slot, theta_lo, theta_hi, prob) row per slot.
# perfbench's per-layer spans are keyed on these four function names.

def _slot_rows(pmf, bounds) -> list[tuple[int, float, float, float]]:
    """(slot, theta_lo, theta_hi, prob) rows, each mass as a float; bounds
    default to each slot's arc [2*pi*k/M, 2*pi*(k+1)/M)."""
    M = len(pmf)
    if bounds is None:
        bounds = [(TWO_PI * k / M, TWO_PI * (k + 1) / M) for k in range(M)]
    elif len(bounds) != M:
        raise ValueError(f"expected {M} slot bounds, got {len(bounds)}")
    return [(k, lo, hi, float(q)) for k, ((lo, hi), q) in enumerate(zip(bounds, pmf))]


def pmf_to_csv(pmf, bounds=None) -> str:
    """A slot law, any sequence of M masses, as a CSV table.  bounds, one
    (theta_lo, theta_hi) pair per slot, relabels the slot arcs (e.g.
    centered ones); the default is each slot's own arc."""
    return table_csv(PMF_COLUMNS, _slot_rows(pmf, bounds))


def pmf_to_json_dict(pmf, bounds=None) -> str:
    """The slot law as a JSON table (text), M in its head; bounds as in pmf_to_csv."""
    head = {"kind": PMF_HEAD["kind"], "M": len(pmf)}
    return table_json(head, "slots", PMF_COLUMNS, _slot_rows(pmf, bounds))


def _slot_pmf(m: int, rows: list) -> tuple[float, ...]:
    """The slot law of M = m slots from its rows: slots 0..m-1 each once, in
    any order, with masses that keep the law rule (check_law)."""
    rows.sort()
    # the count first, so a claimed M builds nothing larger than the file
    if len(rows) != m or [row[0] for row in rows] != list(range(m)):
        raise ParseError(f"M={m} needs slots 0..M-1, each exactly once")
    probs = tuple(row[3] for row in rows)
    try:
        check_law(probs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return probs


def pmf_from_csv(text: str) -> tuple[float, ...]:
    """Parse what pmf_to_csv wrote: a table with no head field."""
    head, rows = read_table(text, PMF_COLUMNS, "slots")
    check_head(head, {})
    return _slot_pmf(len(rows), rows)


def pmf_from_json(text: str) -> tuple[float, ...]:
    """Parse what pmf_to_json_dict wrote; its M must count the slots."""
    head, rows = read_table(text, PMF_COLUMNS, "slots")
    check_head(head, PMF_HEAD)
    return _slot_pmf(head["M"], rows)
