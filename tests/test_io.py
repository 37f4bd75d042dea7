import csv
import json
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import kernel_from_dict, read_roc_csv
from treelets import (
    ClusterLabels,
    Dataset,
    GraphKernel,
    LinearKernel,
    MissingRbfKernel,
    PolynomialKernel,
    RbfKernel,
)
from treelets import io
from treelets.kernels import kernel_to_dict
from treelets.metrics import RocCurve


class TestReadCsvNumeric:
    def test_missing_tokens_become_mask(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1.0,,3.0\n")
        data = io.read_csv_numeric(f)
        assert list(data.present[0]) == [True, False, True]
        assert data.values[0, 0] == 1.0 and data.values[0, 2] == 3.0

    def test_plain_grid(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,4\n")
        data = io.read_csv_numeric(f)
        assert data.fully_present
        assert np.array_equal(data.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_unparseable_cell_reports_position(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,x\n")
        with pytest.raises(ValueError, match="row 1 column 2"):
            io.read_csv_numeric(f)

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="row 2 has 1 cells"):
            io.read_csv_numeric(f)

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3\n4,5,6\n", "row 2 has 1 cells, expected 2"),
        ("1,2\n3,4,5\n6\n", "row 2 has 3 cells, expected 2"),
        ("1\n\n2\n", "row 2 has 0 cells, expected 1"),
    ])
    def test_rows_that_make_up_the_cell_count_rejected(self, tmp_path, text, message):
        """A short and a long row hold as many cells as two whole ones; a blank row has no cells."""
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: {message}$"):
            io.read_csv_numeric(f)

    def test_all_missing_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\nNA,NaN\n")
        with pytest.raises(ValueError, match="row 2 has no observed values"):
            io.read_csv_numeric(f)

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3,4\n")
        data = io.read_csv_numeric(f, has_header=True)
        assert data.n == 2

    def test_error_rows_count_the_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n1,oops\n")
        with pytest.raises(ValueError, match="row 3 column 2"):
            io.read_csv_numeric(f, has_header=True)

    def test_sniffed_header_drops_label_column_unparsed(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,label,y\n1,a,2\n3,b,oops\n")
        with pytest.raises(ValueError, match="row 3 column 3"):
            io.read_csv_numeric(f, has_header=None)
        f.write_text("x,label,y\n1,a,2\n3,b,4\n")
        assert np.array_equal(io.read_csv_numeric(f, has_header=None).values, [[1, 2], [3, 4]])

    def test_label_header_past_the_data_width_drops_nothing(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y,label\n1,2\n3,4\n")
        for budget in (1, 2**20):
            with patch.object(io, "_CHUNK_CELLS", budget):
                assert np.array_equal(io.read_csv_numeric(f, has_header=True).values, [[1, 2], [3, 4]])

    def test_sniff_uses_the_missing_tokens(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,?\n3,4\n")
        assert io.read_csv_numeric(f, has_header=None, missing_tokens={"?"}).n == 2
        assert io.read_csv_numeric(f, has_header=None).n == 1

    def test_crlf_tolerated(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"1,2\r\n3,4\r\n")
        data = io.read_csv_numeric(f)
        assert data.n == 2

    def test_round_trip_exact(self, tmp_path, np_rng):
        values = np_rng.normal(size=(20, 4)) * 10.0 ** np_rng.integers(-8, 8, size=(20, 4))
        present = np_rng.uniform(size=(20, 4)) > 0.2
        present[:, 0] = True
        data = Dataset(np.where(present, values, 0.0), present)
        f = tmp_path / "rt.csv"
        io.write_csv_numeric(f, data)
        back = io.read_csv_numeric(f)
        assert np.array_equal(back.present, data.present)
        assert np.array_equal(back.values[data.present], data.values[data.present])


class TestReadEdgeList:
    def test_duplicates_and_reversals_collapse(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 0\n1 2\n")
        g = io.read_edge_list(f)
        assert g.n_vertices == 3
        assert g.n_edges == 2
        assert list(g.degrees) == [1, 2, 1]

    def test_empty_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("")
        g = io.read_edge_list(f)
        assert g.n_vertices == 0 and g.n_edges == 0

    def test_malformed_line_reported(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n0 1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            io.read_edge_list(f)

    def test_pair_split_across_lines_is_malformed(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n2\n3\n")
        with pytest.raises(ValueError, match=f"^{f}: line 2: malformed edge '2'$"):
            io.read_edge_list(f)

    def test_self_loop_reported(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n3 3\n")
        with pytest.raises(ValueError, match="line 2: self-loop"):
            io.read_edge_list(f)

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# a comment\n\n0 1\n")
        assert io.read_edge_list(f).n_edges == 1

    def test_huge_id_rejected(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(f"0 {2**21}\n")
        with pytest.raises(ValueError, match="too large"):
            io.read_edge_list(f)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
    def test_non_ascii_digit_is_malformed(self, tmp_path, digit):
        f = tmp_path / "g.txt"
        f.write_text(f"0 1\n0 {digit}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{f}: line 2: malformed edge"):
            io.read_edge_list(f)

    def test_first_bad_line_is_named_whatever_its_fault(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(f"0 1\n# 1 1\n2 2\n0 {2**21}\n0 x\n")
        with pytest.raises(ValueError, match="line 3: self-loop at vertex 2"):
            io.read_edge_list(f)
        f.write_text(f"0 1\n0 {2**21}\n2 2\n")
        with pytest.raises(ValueError, match=f"line 2: vertex id {2**21} too large"):
            io.read_edge_list(f)

    def test_id_past_int_digit_limit_is_too_large(self, tmp_path):
        """int() refuses strings of more than 4300 digits; the message still names the line."""
        f = tmp_path / "g.txt"
        f.write_text("0 1\n0 " + "1" * 5000 + "\n")
        with pytest.raises(ValueError, match=rf"^{f}: line 2: vertex id 1{{20}}\.\.\. \(5000 digits\) too large$"):
            io.read_edge_list(f)

    def test_order_independent(self, tmp_path, np_rng):
        lines = ["0 1", "2 3", "1 2", "4 0", "3 4"]
        f1 = tmp_path / "a.txt"
        f2 = tmp_path / "b.txt"
        f1.write_text("\n".join(lines) + "\n")
        shuffled = list(lines)
        np_rng.shuffle(shuffled)
        f2.write_text("\n".join(shuffled) + "\n")
        a = io.read_edge_list(f1)
        b = io.read_edge_list(f2)
        assert a.n_vertices == b.n_vertices
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


# in-line whitespace: str.split() splits at form feed, no-break space and the
# line separator too, and a text-mode file ends lines at none of them
_BLANKS = st.text(" \t\f\u00a0\u2028", max_size=2)
_GAP = st.text(" \t\f\u00a0\u2028", min_size=1, max_size=2)
# the blanks of a plain file, which the byte path reads
_PLAIN_BLANKS = st.text(" \t", max_size=2)
_PLAIN_GAP = st.text(" \t", min_size=1, max_size=2)
_BAD_EDGE_LINES = ["1 2 3", "4 4", f"0 {2**20 + 1}", f"{2**40} 3", "0 x", "a 1"]
# ids of up to 7 digits, with the largest allowed and the smallest refused
_IDS = st.one_of(st.integers(0, 9), st.integers(0, 9), st.integers(10, 10**7 - 1),
                 st.sampled_from([io.MAX_VERTEX_ID, io.MAX_VERTEX_ID + 1]))


@st.composite
def edge_list_texts(draw):
    """Edge-list text with blank and '#' lines, tabs, duplicate and reversed edges, ids of 1 to 8 digits with leading
    zeros, lines of one or three ids, and up to two bad lines.

    Half the texts are plain, read from their bytes: ASCII spaces and tabs, newline line ends and ASCII comments.
    """
    plain = draw(st.booleans())
    blanks, gap = (_PLAIN_BLANKS, _PLAIN_GAP) if plain else (_BLANKS, _GAP)
    comment = st.text("ab01 \t#\f" if plain else "ab01 \t#", max_size=5)

    def vertex(value):
        return "0" * draw(st.sampled_from([0] * 7 + [1, 2, max(0, 8 - len(str(value)))])) + str(value)

    kinds = ["edge", "edge", "edge", "reversed", "blank", "comment"] + ["ids"] * (draw(st.integers(0, 3)) == 0)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("edge", "reversed"):
            u, v = draw(st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True))
            if draw(st.integers(0, 3)) == 0:
                v = draw(_IDS.filter(lambda w: w != u))
            line = f"{draw(blanks)}{vertex(u)}{draw(gap)}{vertex(v)}{draw(blanks)}"
            lines += [line, f"{v} {u}"] if kind == "reversed" else [line]
        elif kind == "blank":
            lines.append(draw(blanks))
        elif kind == "comment":
            lines.append(draw(blanks) + "#" + draw(comment))
        else:  # one id or three
            ids = [vertex(draw(_IDS)) for _ in range(draw(st.sampled_from([1, 3])))]
            lines.append(draw(blanks) + draw(gap).join(ids) + draw(blanks))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD_EDGE_LINES)))
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _read_both(read, reference, path, **kwargs):
    """(result, message) of the reader and of its reference; a message when a read raised ValueError."""
    out = []
    for fn in (read, reference):
        try:
            out.append((fn(path, **kwargs), None))
        except ValueError as exc:
            out.append((None, str(exc)))
    return out


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
def test_edge_list_matches_line_by_line_reference(tmp_path_factory, text):
    f = tmp_path_factory.getbasetemp() / "prop.edges"
    f.write_bytes(text.encode())
    (got, err), (want, want_err) = _read_both(io.read_edge_list, oracles.read_edge_list, f)
    assert err == want_err
    if want is not None:
        assert got.n_vertices == want.n_vertices
        assert np.array_equal(got.degrees, want.degrees)
        # each vertex's neighbours, as sorted CSR arrays: equal arrays are equal neighbour sets
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)


def test_plain_edge_list_never_reaches_the_line_walker(tmp_path, monkeypatch):
    """Comment lines anywhere, with digits, '#' and any ASCII but a carriage return in them, blank lines, tabs,
    leading zeros and 7-digit ids: the bytes alone give the graph."""
    f = tmp_path / "plain.edges"
    f.write_bytes(b"# 1 2 3\n\t # x\f0 0 #\n0 1\n\n \t0002\t0000001  \n#\n1048576 3\n  \t\n4 5\n# end")
    want = oracles.read_edge_list(f)
    monkeypatch.setattr(io, "_walk_edge_lines", lambda path: pytest.fail("the line walker read a plain file"))
    got = io.read_edge_list(f)
    assert got.n_vertices == want.n_vertices == io.MAX_VERTEX_ID + 1
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.n_edges == 4


# cells float() reads in its own way (underscores, Arabic-Indic digits, a
# signed zero) or refuses, and faults that reshape a row
_ODD_CELLS = ["1_0", "-0.0", "nan", "\u0661", "1.5x", "inf", '"1,5"', "missing-row", "short-row"]
_PAD = st.text(" \t", max_size=2)


@st.composite
def csv_texts(draw):
    """CSV text: padded and quoted numbers or missing tokens, maybe under a header whose
    'label' column sits at any position, with up to two odd cells or faults.

    Returns the text and the missing tokens to read it with.
    """
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    missing_tokens = draw(st.sampled_from([io.DEFAULT_MISSING_TOKENS, frozenset({"?"})]))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = st.one_of(number, number, st.sampled_from(sorted(missing_tokens)))
    rows = [draw(st.lists(cell, min_size=p, max_size=p)) for _ in range(n)]
    for kind, r, c in sorted(draw(st.lists(st.tuples(st.sampled_from(_ODD_CELLS), st.integers(0, n - 1),
                                                     st.integers(0, p - 1)), max_size=2)),
                             key=lambda odd: odd[0] == "short-row"):
        if kind == "missing-row":
            rows[r] = [min(missing_tokens)] * len(rows[r])
        elif kind == "short-row":
            rows[r] = rows[r][:-1]
        else:
            rows[r][c] = kind
    rows = [[draw(_PAD) + cell + draw(_PAD) for cell in cells] for cells in rows]
    rows = [[f'"{cell}"' if draw(st.booleans()) and '"' not in cell else cell for cell in cells] for cells in rows]
    header = draw(st.sampled_from(["none", "plain", "label"]))
    names = [f"c{c}" for c in range(p)]
    if header == "label":
        at = draw(st.integers(0, p))  # first, a middle or the last column
        names.insert(at, "label")
        for r, cells in enumerate(rows):
            cells.insert(at, "ab"[r % 2])
    if header != "none":
        rows.insert(0, names)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(cells) + end for cells in rows), missing_tokens, header


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.booleans())
def test_csv_matches_cell_by_cell_reference(tmp_path_factory, case, sniff):
    """Bit for bit and message for message, with one row per chunk and with the whole file in one."""
    text, missing_tokens, header = case
    f = tmp_path_factory.getbasetemp() / "prop.csv"
    f.write_bytes(text.encode())
    has_header = None if sniff else header != "none"
    for budget in (1, 2**20):
        with patch.object(io, "_CHUNK_CELLS", budget):
            (got, err), (want, want_err) = _read_both(
                io.read_csv_numeric, oracles.read_csv_numeric, f, has_header=has_header, missing_tokens=missing_tokens
            )
        assert err == want_err
        if want is not None:
            assert got.values.tobytes() == want.values.tobytes()
            assert np.array_equal(got.present, want.present)


# pieces that send a line to csv.reader or that it ends lines at; the long
# cell is over the field limit of 40 that the properties set
_RAW_PIECES = ['"', '"', "\r", "\r\n", "\n", "\n\n", "\x00", ",", "é", "x" * 41]
RAW_FIELD_LIMIT = 40


@st.composite
def raw_csv_texts(draw):
    """A csv_texts text with up to four quotes, line ends, blank lines, NULs, commas or long cells put anywhere."""
    text = draw(csv_texts())[0]
    for piece in draw(st.lists(st.sampled_from(_RAW_PIECES), max_size=4)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + piece + text[at:]
    return text


def _csv_reader_rows(path):
    """csv.reader's rows, or the ValueError message _csv_rows should give instead."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader), None
        except csv.Error as exc:
            return None, f"{path}: line {reader.line_num}: {exc}"


@settings(max_examples=400, deadline=None)
@given(raw_csv_texts())
def test_csv_rows_equal_csv_readers(tmp_path_factory, text):
    """Row for row and line number for line number, quoted or not, at a small field limit."""
    f = tmp_path_factory.getbasetemp() / "raw.csv"
    f.write_bytes(text.encode())
    limit = csv.field_size_limit(RAW_FIELD_LIMIT)
    try:
        want = _csv_reader_rows(f)
        try:
            got = list(io._csv_rows(f)), None
        except ValueError as exc:
            got = None, str(exc)
    finally:
        csv.field_size_limit(limit)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(raw_csv_texts())
def test_csv_rows_in_blocks_of_a_line_equal_csv_readers(tmp_path_factory, text):
    """As test_csv_rows_equal_csv_readers, with each read (16 characters) shorter than most lines."""
    f = tmp_path_factory.getbasetemp() / "raw.csv"
    f.write_bytes(text.encode())
    limit = csv.field_size_limit(RAW_FIELD_LIMIT)
    try:
        want = _csv_reader_rows(f)
        with patch.object(io, "_CHUNK_CELLS", 1):
            try:
                got = list(io._csv_rows(f)), None
            except ValueError as exc:
                got = None, str(exc)
    finally:
        csv.field_size_limit(limit)
    assert got == want


def test_quote_free_file_never_builds_a_csv_reader(tmp_path, monkeypatch):
    """The header sniff, both readers and their fault path split every line themselves."""
    f = tmp_path / "plain.csv"
    f.write_bytes(b"a,label,b\r\n1.5,x,\r\n\r\n,y,2\n3,z,NA\r4,w,5")

    def refused(*args, **kwargs):
        raise AssertionError("csv.reader built for a quote-free file")

    monkeypatch.setattr(csv, "reader", refused)
    assert list(io._csv_rows(f)) == [["a", "label", "b"], ["1.5", "x", ""], [], ["", "y", "2"],
                                     ["3", "z", "NA"], ["4", "w", "5"]]
    with pytest.raises(ValueError, match="row 3 has 0 cells, expected 3"):
        io.read_csv_numeric(f, has_header=None)
    f.write_bytes(b"a,label,b\r\n1.5,x,\r\n,y,2\n3,z,NA\r4,w,5")
    assert io.read_csv_numeric(f, has_header=None).values.tolist() == [[1.5, 0], [0, 2], [3, 0], [4, 5]]
    assert io.read_class_labels(f, has_header=None).tolist() == ["x", "y", "z", "w"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(csv_texts().map(lambda case: case[0]), raw_csv_texts()), st.sampled_from([None, False, True]),
       st.booleans())
def test_class_labels_match_cell_by_cell_reference(tmp_path_factory, text, has_header, small_limit):
    """The same array and dtype, or the same message, with one line (or less) a block and with the whole
    file in one, at the default field limit or a small one.
    """
    f = tmp_path_factory.getbasetemp() / "classes.csv"
    f.write_bytes(text.encode())
    limit = csv.field_size_limit(RAW_FIELD_LIMIT if small_limit else csv.field_size_limit())
    try:
        for budget in (1, 2**20):
            with patch.object(io, "_CHUNK_CELLS", budget):
                (got, err), (want, want_err) = _read_both(
                    io.read_class_labels, oracles.read_class_labels, f, has_header=has_header
                )
            assert err == want_err
            if want is not None:
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
    finally:
        csv.field_size_limit(limit)


class TestLabelsJson:
    def test_round_trip(self, tmp_path):
        labels = ClusterLabels(assignments=[0, 1, 1, 0, 2], n_clusters=3)
        f = tmp_path / "labels.json"
        io.write_labels_json(f, labels, seed=7, kernel=RbfKernel(sigma=0.1))
        back = io.read_labels_json(f)
        assert np.array_equal(back.assignments, labels.assignments)
        assert back.n_clusters == 3

    def test_schema_fields(self, tmp_path):
        labels = ClusterLabels(assignments=[0, 1], n_clusters=2)
        f = tmp_path / "labels.json"
        io.write_labels_json(f, labels, seed=3, kernel=GraphKernel(diag=5.0))
        payload = json.loads(f.read_text())
        assert payload == {
            "kernel": {"diag": 5.0, "kind": "graph"},
            "labels": [0, 1],
            "n": 2,
            "n_clusters": 2,
            "seed": 3,
        }


KERNELS = st.one_of(
    st.none(),
    st.builds(RbfKernel, sigma=st.floats(1e-3, 1e3)),
    st.just(LinearKernel()),
    st.builds(PolynomialKernel, alpha=st.floats(-1e3, 1e3), c0=st.floats(-1e3, 1e3), degree=st.integers(1, 5)),
    st.builds(MissingRbfKernel, gamma=st.floats(1e-3, 1e3)),
    st.builds(GraphKernel, diag=st.floats(1.0, 1e6)),
)


@st.composite
def labelings(draw):
    """Cluster labels with every id 0..k-1 used, in any order."""
    k = draw(st.integers(1, 6))
    extra = draw(st.lists(st.integers(0, k - 1), max_size=20))
    return ClusterLabels(assignments=draw(st.permutations(list(range(k)) + extra)), n_clusters=k)


@settings(max_examples=100, deadline=None)
@given(labelings(), st.integers(0, 2**63 - 1), KERNELS)
def test_labels_json_round_trip(tmp_path_factory, labels, seed, kernel):
    """Write, read, compare; a second write of what was read gives the same bytes."""
    f = tmp_path_factory.getbasetemp() / "prop_labels.json"
    io.write_labels_json(f, labels, seed, kernel)
    first = f.read_bytes()
    back = io.read_labels_json(f)
    assert back == labels
    io.write_labels_json(f, back, seed, kernel)
    assert f.read_bytes() == first
    payload = json.loads(first)
    assert payload["seed"] == seed
    assert (None if payload["kernel"] is None else kernel_from_dict(payload["kernel"])) == kernel


class TestKernelDict:
    @pytest.mark.parametrize(
        "spec",
        [
            RbfKernel(sigma=0.25),
            MissingRbfKernel(gamma=32.0),
            GraphKernel(diag=1045.0),
        ],
    )
    def test_round_trip(self, spec):
        assert kernel_from_dict(kernel_to_dict(spec)) == spec

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (RbfKernel(sigma=0.25), {"kind": "rbf", "sigma": 0.25}),
            (LinearKernel(), {"kind": "linear"}),
            (PolynomialKernel(0.5, 1.0, 3), {"kind": "polynomial", "alpha": 0.5, "c0": 1.0, "degree": 3}),
            (MissingRbfKernel(gamma=32.0), {"kind": "missing-rbf", "gamma": 32.0}),
            (GraphKernel(diag=1045.0), {"kind": "graph", "diag": 1045.0}),
        ],
    )
    def test_every_kind_writes_its_file_entry(self, spec, expected):
        assert json.dumps(kernel_to_dict(spec), sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestRocCsv:
    def test_round_trip_and_precision(self, tmp_path):
        curve = RocCurve.from_points([(1.0 / 3.0, 2.0 / 3.0)])
        f = tmp_path / "roc.csv"
        io.write_roc_csv(f, curve)
        text = f.read_text()
        assert text.splitlines()[0] == "fpr,tpr"
        assert "0.3333333333" in text  # ten significant digits
        back = read_roc_csv(f)
        for (f0, t0), (f1, t1) in zip(back.points, curve.points):
            assert f0 == pytest.approx(f1, abs=1e-9)
            assert t0 == pytest.approx(t1, abs=1e-9)


class TestClassLabels:
    def test_label_column_by_header(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("x,label,y\n1,a,2\n3,b,4\n")
        assert list(io.read_class_labels(f, has_header=True)) == ["a", "b"]

    def test_sniffed_header(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("x,label,y\n1,a,2\n3,b,4\n")
        assert list(io.read_class_labels(f, has_header=None)) == ["a", "b"]

    def test_last_column_without_header(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("1,2,a\n3,4,b\n")
        assert list(io.read_class_labels(f)) == ["a", "b"]

    def test_sniff_never_tests_the_class_column(self, tmp_path):
        cases = {
            "1,2,a\n3,4,b\n": ["a", "b"],  # text classes, no header
            "a\nb\n": ["a", "b"],
            "label\na\nb\n": ["a", "b"],
            "protein_00,protein_01,label\n0.5,,a\n1.5,2,b\n": ["a", "b"],
            "x,y,class\n1,2,a\n3,4,b\n": ["a", "b"],
        }
        for text, expected in cases.items():
            f = tmp_path / "c.csv"
            f.write_text(text)
            assert list(io.read_class_labels(f, has_header=None)) == expected, text

    @pytest.mark.parametrize("text, has_header, message", [
        ("x,label,y\n1,a,2\n3\n5,c,6\n", True, "row 3 has 1 cells, expected 3"),
        ("1,2,x\n3,4\n5,6,y\n", False, "row 2 has 2 cells, expected 3"),
        ("1,2,x\n3,4,y,z\n", None, "row 2 has 4 cells, expected 3"),
        ("x,y,label\n1,2\n3,4\n", True, "row 2 has 2 cells, none in the class column"),
        ("\n1,2\n", False, "row 1 has 0 cells, none in the class column"),
    ])
    def test_row_of_the_wrong_width_rejected(self, tmp_path, text, has_header, message):
        f = tmp_path / "c.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: {message}$"):
            io.read_class_labels(f, has_header=has_header)

    def test_no_data_rows(self, tmp_path):
        f = tmp_path / "c.csv"
        for text in ("", "label\n"):
            f.write_text(text)
            with pytest.raises(ValueError, match="no data rows"):
                io.read_class_labels(f, has_header=None)
