"""The one table codec: what table_csv and table_json write, read_table reads back."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cylgalton.angular import (PMF_COLUMNS, ParseError, check_head,
                               pmf_from_csv, pmf_from_json, pmf_to_csv,
                               pmf_to_json_dict, read_table, table_csv,
                               table_json)
from cylgalton.cli import DENSITY_COLUMNS
from cylgalton.diagnostics import SWEEP_COLUMNS
from cylgalton.geometry import (PEG_COLUMNS, build_lattice, export_pegs, preset,
                                preset_names)
from cylgalton.walk_sim import HISTOGRAM_COLUMNS
from cylgalton.wrapped_binomial import WrappedBinomial, centered_angle, full_pmf
from cylgalton.wrapped_normal import WrappedNormal, density
from oracles import table_csv_ref

# every column set the package writes
COLUMN_SETS = {"pmf": PMF_COLUMNS, "density": DENSITY_COLUMNS, "pegs": PEG_COLUMNS,
               "histogram": HISTOGRAM_COLUMNS, "sweep": SWEEP_COLUMNS}

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
     1e308, -1e308, 1.7976931348623157e308])
INTS = st.integers(-2**70, 2**70) | st.sampled_from([2**53 + 1, -(2**53 + 1), 2**64])
KINDS = {int: INTS, float: FLOATS}


def exact(rows):
    """Rows by type and repr, so -0.0 and 0.0 and 1 and 1.0 differ."""
    return [[(type(v), repr(v)) for v in row] for row in rows]


@st.composite
def tables(draw):
    name = draw(st.sampled_from(sorted(COLUMN_SETS)))
    columns = COLUMN_SETS[name]
    row = st.tuples(*(KINDS[kind] for kind in columns.values()))
    return columns, draw(st.lists(row, min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_tables_round_trip_exactly(table):
    columns, rows = table
    head, back = read_table(table_csv(columns, rows), columns, "rows")
    assert head == {}
    assert exact(back) == exact(rows)
    head, back = read_table(table_json({"M": 7}, "rows", columns, rows), columns, "rows")
    assert head == {"M": 7}
    assert exact(back) == exact(rows)


# JSON spellings that no column accepts, and those only a float column accepts
NOT_NUMBERS = ["NaN", "Infinity", "-Infinity", "nan", "inf", "true", "false", "null",
               '"0.5"', '"1"', '"nan"']
NOT_INTEGERS = ["1.0", "1.5", "1e3"]


@settings(max_examples=200, deadline=None)
@given(table=tables(), data=st.data())
def test_json_rejects_what_is_not_a_number_of_its_kind(table, data):
    columns, rows = table
    row = data.draw(st.integers(0, len(rows) - 1))
    name = data.draw(st.sampled_from(sorted(columns)))
    spoiled = NOT_NUMBERS + (NOT_INTEGERS if columns[name] is int else [])
    token = data.draw(st.sampled_from(spoiled))
    cells = [list(r) for r in rows]
    cells[row][list(columns).index(name)] = "@SPOILED@"
    text = dumps({}, "rows", columns, cells).replace('"@SPOILED@"', token)
    with pytest.raises(ParseError) as caught:
        read_table(text, columns, "rows")
    if token in ("nan", "inf"):     # not JSON at all
        assert str(caught.value).startswith("line ")
    else:
        assert str(caught.value).startswith(f"rows[{row}]: {name} must be ")


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e400", "true", "", "0x1p3"])
def test_csv_rejects_a_non_finite_or_non_numeric_float(field):
    text = f"theta,f\n0.5,1.0\n0.25,{field}\n"
    with pytest.raises(ParseError, match=r"^line 3: f must be "):
        read_table(text, DENSITY_COLUMNS, "samples")


def test_csv_needs_its_header():
    with pytest.raises(ParseError, match=r"^line 1: expected header 'theta,f'$"):
        read_table("theta,g\n0.5,1.0\n", DENSITY_COLUMNS, "samples")


def test_json_integer_serves_as_a_float_but_not_beyond_its_range():
    doc = {"samples": [{"theta": 1, "f": 2}]}
    assert read_table(json.dumps(doc), DENSITY_COLUMNS, "samples") == ({}, [(1.0, 2.0)])
    doc["samples"][0]["f"] = 10**400
    with pytest.raises(ParseError, match=r"^samples\[0\]: f must be a number"):
        read_table(json.dumps(doc), DENSITY_COLUMNS, "samples")


@pytest.mark.parametrize("rows,message", [
    ('[{"theta": 0, "f": ' + "1" * 5000 + "}]", "digits"),
    ("[" * 100_000 + "]" * 100_000, "recursion"),
], ids=["int-too-long", "too-deep"])
def test_json_that_json_loads_cannot_hold_is_a_parse_error(rows, message):
    # json.loads raises a plain ValueError or a RecursionError here
    with pytest.raises(ParseError, match=message):
        read_table('{"samples": ' + rows + "}", DENSITY_COLUMNS, "samples")


@settings(max_examples=100, deadline=None)
@given(table=tables(), data=st.data())
def test_json_rejects_a_row_field_that_is_not_a_column(table, data):
    # the CSV reader rejects an extra column by its header; JSON names the row
    columns, rows = table
    row = data.draw(st.integers(0, len(rows) - 1))
    doc = {"rows": [dict(zip(columns, r)) for r in rows]}
    doc["rows"][row]["bogus"] = data.draw(st.sampled_from([0, 0.5, "x", None]))
    message = rf"^rows\[{row}\]: expected the {len(columns)} fields {', '.join(columns)}$"
    with pytest.raises(ParseError, match=message):
        read_table(json.dumps(doc), columns, "rows")


@pytest.mark.parametrize("head,doc,message", [
    ({}, {"kind": "x"}, "unknown field 'kind'"),
    ({"M": int}, {"M": 3, "N": 3}, "unknown field 'N'"),
    ({"M": int}, {}, "missing field 'M'"),
    ({"M": int}, {"M": 3.0}, "M must be an integer, got 3.0"),
    ({"M": int}, {"M": False}, "M must be an integer, got False"),
    ({"x": float}, {"x": "0.5"}, "x must be a number, got '0.5'"),
    ({"kind": "angular_pmf"}, {"kind": "density"},
     "kind must be 'angular_pmf', got 'density'"),
], ids=["unknown", "unknown-beside-known", "missing", "float-for-int", "bool-for-int",
        "string-for-float", "other-value"])
def test_a_table_kind_takes_only_its_own_head_fields(head, doc, message):
    text = json.dumps({**doc, "samples": [{"theta": 0.5, "f": 1.0}]})
    read, _ = read_table(text, DENSITY_COLUMNS, "samples")
    assert read == doc
    with pytest.raises(ParseError, match=f"^{message}$"):
        check_head(read, head)


def test_a_table_kind_reads_its_own_head_back():
    rows = [(0.5, 1.0)]
    text = table_json({"M": 3, "x": 0.5, "kind": "k"}, "samples", DENSITY_COLUMNS, rows)
    head, back = read_table(text, DENSITY_COLUMNS, "samples")
    assert (head, back) == ({"M": 3, "x": 0.5, "kind": "k"}, rows)
    check_head(head, {"M": int, "x": float, "kind": "k"})
    # a CSV table has no head
    assert read_table(table_csv(DENSITY_COLUMNS, rows), DENSITY_COLUMNS,
                      "samples") == ({}, rows)


@pytest.mark.parametrize("change,message", [
    ({"kind": "density"}, "kind must be 'angular_pmf', got 'density'"),
    ({"kind": None}, "kind must be 'angular_pmf', got None"),
    ({"extra": 1}, "unknown field 'extra'"),
], ids=["density-kind", "null-kind", "extra-field"])
def test_pmf_from_json_takes_only_a_pmf_head(change, message):
    doc = json.loads(pmf_to_json_dict((0.25, 0.75)))
    with pytest.raises(ParseError, match=f"^{message}$"):
        pmf_from_json(json.dumps({**doc, **change}))


@pytest.mark.parametrize("name", ["kind", "M"])
def test_pmf_from_json_needs_each_head_field(name):
    doc = json.loads(pmf_to_json_dict((0.25, 0.75)))
    del doc[name]
    with pytest.raises(ParseError, match=f"^missing field '{name}'$"):
        pmf_from_json(json.dumps(doc))


@pytest.mark.parametrize("change,message", [
    ({"kind": "density", "M": 99}, "unknown field 'kind'"),
    ({"M": 2}, "unknown field 'M'"),
], ids=["foreign-kind", "pmf-head"])
def test_pmf_from_csv_takes_no_head_field(change, message):
    # JSON text reaches read_table's JSON branch; a head is pmf_from_json's
    doc = {"slots": json.loads(pmf_to_json_dict((0.25, 0.75)))["slots"]}
    assert pmf_from_csv(json.dumps(doc)) == (0.25, 0.75)
    with pytest.raises(ParseError, match=f"^{message}$"):
        pmf_from_csv(json.dumps({**change, **doc}))


def test_the_first_bad_field_in_file_order_is_reported():
    text = "slot,theta_lo,theta_hi,prob\n0,0.0,0.1,oops\n1,abc,0.2,0.5\n"
    with pytest.raises(ParseError, match=r"^line 2: prob must be a number, got 'oops'"):
        read_table(text, PMF_COLUMNS, "slots")


# table_json lays out the rows itself; its text must be json.dumps's, byte for byte.

def dumps(head, key, columns, rows):
    return json.dumps({**head, key: [dict(zip(columns, row)) for row in rows]},
                      indent=2) + "\n"


@pytest.mark.parametrize("name", preset_names())
def test_table_json_writes_what_json_dumps_writes_for_every_preset(name):
    pegs = sorted(build_lattice(preset(name).spec), key=lambda p: (p.row, p.col))
    rows = [(p.row, p.col, p.theta, p.z, p.x, p.y) for p in pegs]
    assert export_pegs(pegs, "json") == dumps({"unit": "cm"}, "pegs", PEG_COLUMNS, rows)


def test_table_json_writes_what_json_dumps_writes_for_a_pmf_and_a_density():
    wb = WrappedBinomial(24, 24, 0.5)
    pmf = full_pmf(wb)
    bounds = [(a - math.pi / 24, a + math.pi / 24)
              for a in (centered_angle(wb, k) for k in range(24))]
    rows = [(k, lo, hi, q) for k, ((lo, hi), q) in enumerate(zip(bounds, pmf))]
    assert pmf_to_json_dict(pmf, bounds) == dumps(
        {"kind": "angular_pmf", "M": 24}, "slots", PMF_COLUMNS, rows)
    thetas = [2 * math.pi * i / 720 for i in range(720)]
    rows = list(zip(thetas, density(WrappedNormal(1.0, 0.5), np.array(thetas)).tolist()))
    assert table_json({}, "samples", DENSITY_COLUMNS, rows) == dumps(
        {}, "samples", DENSITY_COLUMNS, rows)


@pytest.mark.parametrize("law,floats", [
    ((0.25, 0.5, 0.25, 0.0),) * 2,
    ([0.25, 0.5, 0.25, 0.0], (0.25, 0.5, 0.25, 0.0)),
    (np.array([0.25, 0.5, 0.25, 0.0]), (0.25, 0.5, 0.25, 0.0)),
    ((1, 0), (1.0, 0.0)),
], ids=["tuple", "list", "numpy", "ints"])
def test_pmf_writers_take_any_sequence_of_masses(law, floats):
    # each mass is written as a float, and read back as a tuple of M floats
    for write, read in ((pmf_to_csv, pmf_from_csv), (pmf_to_json_dict, pmf_from_json)):
        text = write(law)
        assert text == write(floats)
        back = read(text)
        assert back == floats and list(map(type, back)) == [float] * len(floats)


@pytest.mark.parametrize("head", [{}, {"M": 3}], ids=["bare", "with-head"])
def test_table_json_writes_what_json_dumps_writes_for_an_empty_table(head):
    assert table_json(head, "rows", DENSITY_COLUMNS, []) == dumps(
        head, "rows", DENSITY_COLUMNS, [])


@settings(max_examples=25, deadline=None)
@given(table=tables())
def test_table_json_writes_what_json_dumps_writes(table):
    columns, rows = table
    assert table_json({"M": 7}, "rows", columns, rows) == dumps(
        {"M": 7}, "rows", columns, rows)


# A writer takes a value exactly when read_table takes it back from the JSON
# that json.dumps writes for it (json.dumps cannot write an np.int64), and
# what it takes reads back equal.  Anything else is a ValueError naming the
# column.
WRITER_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "True": True,
                 "None": None, "str": "x", "10**400": 10**400,
                 "np.float64": np.float64(0.5), "np.int64": np.int64(3),
                 "float": 0.25, "int": -3}


@pytest.mark.parametrize("value", WRITER_VALUES.values(), ids=WRITER_VALUES)
@pytest.mark.parametrize("kind", [int, float], ids=["int", "float"])
@settings(max_examples=5, deadline=None)
@given(table=tables(), data=st.data())
def test_writers_take_exactly_what_read_table_takes_back(kind, value, table, data):
    columns, rows = table
    names = [name for name in columns if columns[name] is kind]
    assume(names)       # the density table has no int column
    name = data.draw(st.sampled_from(names))
    row = data.draw(st.integers(0, len(rows) - 1))
    rows[row] = tuple(value if c == name else v for c, v in zip(columns, rows[row]))
    try:
        read_table(dumps({}, "rows", columns, rows), columns, "rows")
        takes = True
    except (TypeError, ParseError):
        takes = False
    for write in (lambda: table_csv(columns, rows),
                  lambda: table_json({}, "rows", columns, rows)):
        if takes:
            assert read_table(write(), columns, "rows") == ({}, rows)
        else:
            with pytest.raises(ValueError, match=f"^column {name} must be "):
                write()


def test_a_subclass_of_float_is_written_as_a_float():
    floats = [0.5, -0.0, 0.5, 0.0, 0.5, 0.5]
    for rows in ([(x,) for x in floats], [(np.float64(x),) for x in floats]):
        assert table_csv({"v": float}, rows) == "v\n0.5\n-0.0\n0.5\n0.0\n0.5\n0.5\n"


# table_csv writes column by column and formats each distinct value of a
# repeating column once; its text must be the row-by-row reference's.

# what a column of each kind holds: a float column also holds integers
VALUES = {int: INTS, float: FLOATS | INTS}


@st.composite
def columns_of_values(draw):
    """(columns, rows): each column of a drawn kind, its values drawn free,
    all distinct, or from a small pool of values so that it repeats."""
    width, count = draw(st.integers(1, 4)), draw(st.integers(0, 30))
    kinds, columns = [], []
    for _ in range(width):
        kinds.append(draw(st.sampled_from([int, float])))
        shape = draw(st.sampled_from(["free", "distinct", "repeats"]))
        if shape == "repeats":
            pool = draw(st.lists(VALUES[kinds[-1]], min_size=1, max_size=3))
            column = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
        else:
            column = draw(st.lists(VALUES[kinds[-1]], min_size=count, max_size=count,
                                   unique_by=(lambda v: (type(v), repr(v)))
                                   if shape == "distinct" else None))
        columns.append(column)
    return {f"c{k}": kind for k, kind in enumerate(kinds)}, list(zip(*columns))


@settings(max_examples=80, deadline=None)
@given(table=columns_of_values())
@example(table=({"z": float, "w": float},
                 [(0.0, 1.5), (-0.0, 1.5), (0.0, 1.5), (-0.0, 2.5)]))
@example(table=({"mixed": float}, [(1,), (1.0,), (1,), (1.0,), (1,), (1.0,)]))
@example(table=({"repeats": float, "distinct": float},
                [(k % 3 * 0.1, k / 7) for k in range(12)]))
@example(table=({"a": float, "b": int}, []))
def test_table_csv_writes_what_the_row_by_row_reference_writes(table):
    columns, rows = table
    assert table_csv(columns, rows) == table_csv_ref(columns, rows)
    assert table_csv(columns, iter(rows)) == table_csv_ref(columns, rows)
    assert table_csv(columns, (row for row in rows)) == table_csv_ref(columns, rows)
    assert table_json({"M": 7}, "rows", columns, rows) == dumps(
        {"M": 7}, "rows", columns, rows)


def test_table_csv_rejects_rows_of_different_lengths():
    with pytest.raises(ValueError, match="table rows differ in length"):
        table_csv(DENSITY_COLUMNS, [(0.0, 1.0), (0.5,)])
    with pytest.raises(ValueError, match="table rows differ in length"):
        table_json({}, "rows", DENSITY_COLUMNS, [(0.0, 1.0), (0.5,)])


@pytest.mark.parametrize("columns,rows", [
    (DENSITY_COLUMNS, [(0.5,), (0.25,)]),
    (DENSITY_COLUMNS, [(0.5, 1.0, 2.0)]),
    (DENSITY_COLUMNS, [(), ()]),
    ({}, [(), ()]),
], ids=["narrow", "wide", "empty-rows", "no-columns"])
def test_writers_reject_rows_that_do_not_fit_the_columns(columns, rows):
    # read_table could not give such rows back
    with pytest.raises(ValueError, match="^table rows hold "):
        table_csv(columns, rows)
    with pytest.raises(ValueError, match="^table rows hold "):
        table_json({}, "rows", columns, rows)


def test_table_json_rejects_a_head_that_holds_its_key():
    with pytest.raises(ValueError, match="^the head holds the table key 'rows'$"):
        table_json({"rows": 1}, "rows", DENSITY_COLUMNS, [(0.5, 1.0)])


@pytest.mark.parametrize("name", preset_names())
def test_export_pegs_writes_what_the_row_by_row_reference_writes(name):
    pegs = build_lattice(preset(name).spec)
    rows = sorted(pegs, key=lambda p: (p.row, p.col))
    assert export_pegs(pegs, "csv") == table_csv_ref(PEG_COLUMNS, rows)
