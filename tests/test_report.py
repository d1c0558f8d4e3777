"""Report emission: one JSON writer and tables rendered from columns, byte
for byte as json.

`cli._json_text` writes any JSON value and `cli._json_table` a list of
objects from blocks of columns (arrays, lists, or coded columns: distinct
values and each row's index); both must give exactly the text of
``json.dumps(..., sort_keys=True, indent=2, allow_nan=False)`` and raise the
same error, and a table must give the same bytes however its rows are split
into blocks.  `cli._csv_table` must give the keys as its header, then each
row's str cells (empty for None) joined by commas.  A sweep streams its
table in blocks of `cli.REPORT_ROWS` rows, so its memory does not grow with
the grid.
"""

from __future__ import annotations

import contextlib
import enum
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qecopt import InputError, cli, optimizer, scheme
from qecopt.gatesim import GateSpec
from qecopt.optimizer import STATUS_NO_ENCODING, STATUS_OPTIMUM, STATUS_UNBOUNDED

STATUSES = (STATUS_OPTIMUM, STATUS_UNBOUNDED, STATUS_NO_ENCODING)
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308,
               0.1, 1e-7, 1e16, 123456789.0)

floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
ints = st.integers(min_value=-10 ** 20, max_value=10 ** 20)
scalars = st.one_of(floats, ints, st.none(), st.booleans(), st.sampled_from(STATUSES),
                    st.text(max_size=5))
keys = st.lists(st.sampled_from(["B_eta0", "c", "k", "k_max", "log10_p", "n_L",
                                 "status", "a%s", "é", "a%%s", 'q"t', "b\\s", "t\x01",
                                 "ß"]),
                min_size=1, max_size=5, unique=True)


def decoded(column) -> list:
    """A column's values as json's rows hold them."""
    if isinstance(column, tuple):  # coded: distinct values, and each row's index
        values, index = decoded(column[0]), column[1].tolist()
        return [values[i] for i in index]
    return column.tolist() if isinstance(column, np.ndarray) else column


@st.composite
def tables(draw) -> tuple[dict, list[dict]]:
    """Columns keyed by name, and the same table as json's rows.  Each column
    is a float, int or bool array, a list of mixed scalars, or coded: a float
    array or a list of scalars, and an index into it for each row."""
    n = draw(st.integers(min_value=0, max_value=12))
    columns = {}
    for key in draw(keys):
        kind = draw(st.sampled_from(["float", "int", "bool", "list", "coded"]))
        if kind == "float":
            columns[key] = np.array(draw(st.lists(floats, min_size=n, max_size=n)), float)
        elif kind == "int":
            values = draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=n, max_size=n))
            columns[key] = np.array(values, dtype=np.int64)
        elif kind == "bool":
            columns[key] = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
        elif kind == "list":
            columns[key] = draw(st.lists(scalars, min_size=n, max_size=n))
        else:
            values = draw(st.one_of(st.lists(floats, min_size=1, max_size=4).map(np.array),
                                    st.lists(scalars, min_size=1, max_size=4)))
            index = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
            columns[key] = (values, np.array(index, dtype=np.int64))
    values = {k: decoded(c) for k, c in columns.items()}
    rows = [{k: values[k][i] for k in columns} for i in range(n)]
    return columns, rows


def blocks_of(columns: dict, cuts: list[int]) -> list[dict]:
    """The table split into blocks at the given row numbers."""
    n = len(decoded(next(iter(columns.values()))))
    edges = [0, *sorted(c % (n + 1) for c in cuts), n]
    return [{k: (c[0], c[1][lo:hi]) if isinstance(c, tuple) else c[lo:hi]
             for k, c in columns.items()} for lo, hi in zip(edges, edges[1:])]


def dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(st.integers(min_value=0, max_value=20), max_size=4),
       st.integers(min_value=0, max_value=3))
def test_table_text_is_json_text(table, cuts, depth):
    columns, rows = table
    blocks = blocks_of(columns, cuts)
    assert "".join(cli._json_table(blocks, 0)) == dump(rows)
    # Nested `depth` objects deep, between other members.
    payload: dict = {"rows": cli._TABLE, "a": 1.5, "z": [None, "x"]}
    expected: dict = {"rows": rows, "a": 1.5, "z": [None, "x"]}
    for _ in range(depth):
        payload, expected = {"m": payload, "n": 0}, {"m": expected, "n": 0}
    assert "".join(cli._report(payload, blocks)) == dump(expected) + "\n"


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(st.integers(min_value=0, max_value=20), max_size=4))
def test_csv_table_is_the_keys_then_each_rows_str_cells(table, cuts):
    columns, rows = table
    expected = [",".join(columns)] + [
        ",".join("" if value is None else str(value) for value in row.values()) for row in rows]
    assert "".join(cli._csv_table(blocks_of(columns, cuts))) == "\n".join(expected) + "\n"


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from([math.inf, -math.inf, math.nan]), st.data())
def test_non_finite_floats_raise_as_json_does(table, bad, data):
    columns, rows = table
    if not rows:
        return
    key = data.draw(st.sampled_from(sorted(columns)))
    row = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    column = columns[key]
    if isinstance(column, tuple):  # the row's value is bad, in every row that shares it
        values, index = column
        values = values.copy() if isinstance(values, np.ndarray) else list(values)
        values[index[row]] = bad
        columns = dict(columns, **{key: (values, index)})
        rows = [dict(r, **{key: v}) for r, v in zip(rows, decoded((values, index)))]
    else:
        if isinstance(column, np.ndarray):
            column = column.astype(float)
            rows = [dict(r, **{key: v}) for r, v in zip(rows, column.tolist())]
        else:
            column = list(column)
        column[row] = bad
        columns = dict(columns, **{key: column})
        rows[row][key] = bad
    with pytest.raises(ValueError) as expected:
        dump(rows)
    with pytest.raises(ValueError) as got:
        "".join(cli._json_table([columns], 2))
    assert str(got.value) == str(expected.value)


def test_empty_table_is_an_empty_list():
    assert "".join(cli._json_table([], 3)) == "[]"
    assert "".join(cli._json_table([{"k": np.arange(0)}], 0)) == dump([])


class Level(enum.IntEnum):
    ONE = 1


# Values json cannot write: non-finite floats (ValueError) and other types (TypeError).
UNWRITABLE = (math.inf, -math.inf, math.nan, np.float64(-math.inf), 1j, {1}, b"x",
              np.int64(3), np.bool_(True))
leaves = st.one_of(floats, floats.map(np.float64), st.integers(-2 ** 80, 2 ** 80),
                   st.booleans(), st.none(), st.text(), st.just(Level.ONE))
scalar_keys = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=False),
                        st.booleans(), st.none())
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(scalar_keys, children, max_size=3)),
    max_leaves=12)


def write(payload) -> str:
    return cli._json_text(payload, 0)


def outcome(function, payload):
    """function(payload), or the type and message of the error it raised."""
    try:
        return function(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(payloads, st.data())
def test_writer_text_is_json_text(payload, data):
    assert outcome(write, payload) == outcome(dump, payload)
    # One value json cannot write, alone or after or before the payload.
    bad = data.draw(st.sampled_from(UNWRITABLE))
    wrapped = data.draw(st.sampled_from([bad, [payload, bad], {"a": payload, "b": bad},
                                         (bad, payload)]))
    expected = outcome(dump, wrapped)
    assert isinstance(expected, tuple)
    assert outcome(write, wrapped) == expected


# Strings that hold what json's text must escape: a newline (the flat
# encoder's separators are newlines), U+2028 and NUL (the table's marker).
escaped_text = st.text(alphabet=st.sampled_from('a\n\u2028\x00"\\\xe9'), max_size=6)
flat_scalars = st.one_of(floats, ints, st.none(), st.booleans(), escaped_text)
flat_containers = st.one_of(st.lists(flat_scalars, max_size=5),
                            st.lists(flat_scalars, max_size=5).map(tuple),
                            st.dictionaries(escaped_text, flat_scalars, max_size=5))


def nested(payload, depth: int, data) -> object:
    """payload `depth` containers deep, between other members."""
    for _ in range(depth):
        payload = data.draw(st.sampled_from([[payload], (0, payload, "x"),
                                             {"k\n\x00": payload, "z": 1.5}]))
    return payload


@settings(max_examples=300, deadline=None)
@given(flat_containers, st.integers(min_value=3, max_value=6), st.data())
def test_flat_containers_deep_down_are_json_text(flat, depth, data):
    payload = nested(flat, depth, data)
    assert write(payload) == dump(payload)


@settings(max_examples=200, deadline=None)
@given(st.lists(flat_scalars, max_size=4), st.sampled_from([math.inf, -math.inf, math.nan]),
       st.integers(min_value=0, max_value=4), st.booleans(),
       st.integers(min_value=0, max_value=4), st.data())
def test_a_non_finite_float_in_a_flat_container_raises_json_error(members, bad, at, keyed,
                                                                  depth, data):
    members.insert(at % (len(members) + 1), bad)
    flat = {f"m{i}": value for i, value in enumerate(members)} if keyed else members
    payload = nested(flat, depth, data)
    with pytest.raises(ValueError) as expected:
        dump(payload)
    with pytest.raises(ValueError) as got:
        write(payload)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == f"Out of range float values are not JSON compliant: {bad!r}"


@pytest.mark.parametrize("bad, message", [
    (-math.inf, "Out of range float values are not JSON compliant"),
    (np.float64(math.nan), "Out of range float values are not JSON compliant"),
    ({math.inf: 1}, "Out of range float values are not JSON compliant"),
    (1j, "Object of type complex is not JSON serializable"),
    ({(1, 2): 0}, "keys must be str, int, float, bool or None"),
])
def test_writer_raises_json_errors(bad, message):
    error = ValueError if "range" in message else TypeError
    with pytest.raises(error) as expected:
        dump({"x": [bad]})
    with pytest.raises(error) as got:
        write({"x": [bad]})
    assert message in str(got.value) and str(got.value) == str(expected.value)


def invoke(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def csv_from_json(report: str, names: list[str]) -> str:
    """The CSV sweep text that a JSON sweep's rows stand for."""
    columns = names + ["k_max", "log10_p_min", "status"]
    lines = [",".join(columns)]
    for row in json.loads(report)["result"]["rows"]:
        lines.append(",".join(str(row[name]) for name in columns))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("axes", [
    ["c:0:10:13", "B_eta0:0.01:0.99:9"],
    ["eta0:1e-9:1e-4:11:log", "c:0:3:5"],
    ["beta:0:2:1"],
])
def test_sweep_bytes_do_not_depend_on_the_row_block(monkeypatch, axes):
    argv = ["sweep", "--model", "exp" if axes[0].startswith("beta") else "affine",
            "--kcap", "16"]
    names = [axis.split(":")[0] for axis in axes]
    if "eta0" not in names and "B_eta0" not in names:
        argv += ["--eta0", "1e-6"]
    for axis in axes:
        argv += ["--axis", axis]
    code, report, _ = invoke(*argv, "--format", "json")
    assert code == 0
    assert report == dump(json.loads(report)) + "\n"
    reports = {"json": report, "csv": csv_from_json(report, names)}
    for rows in (1, 7, cli.REPORT_ROWS):
        monkeypatch.setattr(cli, "REPORT_ROWS", rows)
        for fmt, text in reports.items():
            assert invoke(*argv, "--format", fmt) == (0, text, "")


# One JSON report per subcommand, as README invokes them.
README_REPORTS = [
    ["optimize", "--scheme", "aliferis2006", "--model", "affine", "--eta0", "5e-6", "--c", "1"],
    ["sweep", "--model", "shor", "--R", "1000", "--axis", "n_L:1e4:1e13:40:log",
     "--format", "json"],
    ["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1000"],
    ["longrange", "--lattice", "square", "--z", "1.1", "--N0", "250000", "--compare"],
    ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"],
    ["fit", "--samples", "0:1e-5,1:2e-5,2:3e-5", "--model", "affine"],
]


@pytest.mark.parametrize("argv", README_REPORTS, ids=lambda argv: argv[0])
def test_reports_do_not_use_the_pure_python_encoder(monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "_make_iterencode", refuse)
        code, report, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert report == dump(json.loads(report)) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("law", [
    # D = 1 and beta = 1e308: beta * k overflows to inf, and inf * log10 D is
    # NaN on every row from level 2 on.
    ("--beta", "1e308", "--axis", "eta0:1e-5:1e-4:3"),
    # Only the last row (beta = 1e308) has a NaN, above its levels 0 and 1.
    ("--eta0", "0.1", "--axis", "beta:1:1e308:3", "--kcap", "2"),
])
def test_undefined_curve_writes_no_file(tmp_path, fmt, law):
    out = tmp_path / "sweep.out"
    code, stdout, err = invoke("sweep", "--scheme", "1,1,1,1,1", "--model", "exp", *law,
                               "--format", fmt, "--out", out)
    assert code == 2 and stdout == ""
    assert "NaN" in err and err.count("\n") == 1
    assert not out.exists()
    code, stdout, err = invoke("sweep", "--scheme", "1,1,1,1,1", "--model", "exp", *law,
                               "--format", fmt)
    assert code == 2 and stdout == "" and "NaN" in err and err.count("\n") == 1


def test_non_finite_minimum_writes_no_file(tmp_path, monkeypatch):
    # No legal law gives a -inf minimum (the photon law takes n_L itself, so
    # no n_L * L product can overflow).  A curve forced to -inf at its top
    # level is a bug, not a refused input: json's error leaves main, before
    # the first byte.
    real_curve = optimizer.log10_curve

    def minus_inf_at_the_top(*args):
        values = real_curve(*args)
        values[..., -1] = -math.inf
        return values

    monkeypatch.setattr(optimizer, "log10_curve", minus_inf_at_the_top)
    out = tmp_path / "sweep.json"
    with pytest.raises(ValueError, match="^Out of range float values are not JSON "
                                         "compliant: -inf$") as raised:
        invoke("sweep", "--model", "shor", "--R", "1000",
               "--axis", "n_L:1:1.7976931348623157e308:3:log",
               "--format", "json", "--out", out)
    assert not isinstance(raised.value, InputError)
    assert not out.exists()


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # 2 x 10^5 rows: their dicts and indented text alone would take several
    # hundred MB; the streamed report holds two arrays of 1.6 MB and a block.
    out = tmp_path / "sweep.json"
    tracemalloc.start()
    try:
        code, _, err = invoke("sweep", "--model", "affine", "--axis", "c:0:10:400",
                              "--axis", "B_eta0:0.01:0.99:500", "--kcap", "8",
                              "--format", "json", "--out", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak <= 16 * 2 ** 20, peak
    with out.open() as report:
        assert sum(line.startswith('        "status": ') for line in report) == 2 * 10 ** 5


# Each report field has one source: the CLI reads it off its owner, never
# restates it.
def powers(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(R=st.integers(2, 10 ** 6), gamma=powers(-2, 3), omega0=powers(6, 12),
       target=st.one_of(st.just([]),
                        powers(-15, -2).map(lambda p: ["--perr", repr(p)]),
                        st.floats(0.1, 0.99).map(lambda p: ["--ptarget", repr(p)]),
                        powers(2, 14).map(lambda n: ["--nL", repr(n)])))
def test_shor_csv_row_is_its_json_result(R, gamma, omega0, target):
    argv = ["shor", "--R", R, "--gamma", repr(gamma), "--omega0", repr(omega0), *target]
    code, report, err = invoke(*argv, "--format", "json")
    code_csv, table, err_csv = invoke(*argv, "--format", "csv")
    assert (code_csv, err_csv) == (code, err)
    if code == 0:
        result = json.loads(report)["result"]
        header, row, end = table.split("\n")
        assert (header, end) == ("R,n_L,k,E_tot_J,P_W,T_tot_s,tau_g_s", "")
        assert row == ",".join(str(result[key]) for key in header.split(","))


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(1e-3, 2.0 * math.pi), gamma=powers(-3, 3), n_g=powers(0, 8),
       omega0=st.none() | powers(0, 15))
def test_gatesim_margin_is_the_gate_specs(theta, gamma, n_g, omega0):
    given_omega0 = [] if omega0 is None else ["--omega0", repr(omega0)]
    code, report, err = invoke("gatesim", "--theta", repr(theta), "--gamma", repr(gamma),
                               "--ng", repr(n_g), *given_omega0)
    assert (code, err) == (0, "")
    spec = GateSpec(theta=theta, gamma=gamma, n_g=n_g, omega0=omega0)
    result = json.loads(report)["result"]
    assert result["rwa_margin"] == (None if omega0 is None else spec.rwa_margin)
    assert result["rwa_marginal"] is spec.rwa_marginal


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["affine", "exp"]), D=st.floats(1.5, 1000.0),
       eta0=powers(-9, -6), growth=st.floats(1.0, 3.0),
       ks=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6, unique=True),
       noise=st.lists(st.floats(0.8, 1.25), min_size=6, max_size=6))
def test_fit_residual_is_the_rms_of_its_returned_law(kind, D, eta0, growth, ks, noise):
    samples = [(k, eta0 * growth ** k * wobble) for k, wobble in zip(ks, noise)]
    flags = ["--model", kind] + (["--D", repr(D)] if kind == "exp" else [])
    code, report, err = invoke("fit", "--samples",
                               ",".join(f"{k!r}:{eta!r}" for k, eta in samples), *flags)
    assert code in (0, 2) and err.count("\n") == int(code == 2)
    assume(code == 0)  # a law the draws push below a flat one is refused
    result = json.loads(report)["result"]
    model = scheme.model_from_dict(result["model"])
    ks_, etas = np.array(samples).T
    residual = np.sqrt(np.mean((model.log10_eta(ks_, D) - np.log10(etas)) ** 2))
    assert result["residual"] == float(residual)
