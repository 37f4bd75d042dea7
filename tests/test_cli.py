import argparse
import contextlib
import csv
import json
import os
import subprocess
import sys
import warnings
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treelets
from treelets import io
from treelets.cli import build_parser, main, parse_kernel
from treelets.core import DEFAULT_STOP_TOL
from treelets.kernels import GraphKernel, MissingRbfKernel, PolynomialKernel, RbfKernel
from test_io import RAW_FIELD_LIMIT, raw_csv_texts


def run(*args) -> int:
    return main([str(a) for a in args])


def output_bytes(directory: Path) -> dict:
    """Bytes of every non-manifest output file, keyed by name."""
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if not p.name.endswith(".manifest.json")
    }


def cluster_usage() -> str:
    """The usage block argparse prints above a `cluster` usage error."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["cluster"].format_usage()


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert run("generate", "--shape", "blobs", "--n", 30, "--seed", 5, "-o", path) == 0
    return path


class TestParseKernel:
    def test_grammar(self):
        assert parse_kernel("rbf:sigma=0.1") == RbfKernel(sigma=0.1)
        assert parse_kernel("poly:alpha=1,c0=1,r=3") == PolynomialKernel(1.0, 1.0, 3)
        assert parse_kernel("missing-rbf:gamma=32") == MissingRbfKernel(gamma=32.0)
        assert parse_kernel("graph:diag=1045") == GraphKernel(diag=1045.0)

    def test_bad_kernel_is_usage_error(self, tmp_path):
        for kernel in ("warp:q=1", "rbf:sigma=1,gamma=2"):
            code = run(
                "cluster", "--input", tmp_path / "x.csv", "--kernel", kernel,
                "--clusters", 2, "-o", tmp_path / "l.json",
            )
            assert code == 2, kernel


def test_parser_defaults_are_the_library_constants():
    parse = build_parser().parse_args
    cluster = parse(["cluster", "--input", "d.csv", "--kernel", "linear", "--clusters", "2", "-o", "l.json"])
    assert cluster.stop_tol == DEFAULT_STOP_TOL
    for args in (cluster, parse(["kmeans", "--input", "d.csv", "--k", "2", "-o", "l.json"]),
                 parse(["normalize", "--input", "d.csv", "-o", "n.csv"])):
        assert args.missing_token == sorted(io.DEFAULT_MISSING_TOKENS)


class TestExitCodes:
    def test_zero_clusters_is_usage_error(self, blob_csv, tmp_path):
        code = run(
            "cluster", "--input", blob_csv, "--kernel", "rbf:sigma=1",
            "--clusters", 0, "-o", tmp_path / "l.json",
        )
        assert code == 2

    def test_unknown_flag_is_usage_error(self, blob_csv, tmp_path):
        assert run("cluster", "--frobnicate", "--input", blob_csv) == 2

    def test_csv_flag_misuse_is_usage_error(self, blob_csv, tmp_path):
        assert run("normalize", "--input", blob_csv, "-o", tmp_path / "n.csv",
                   "--has-header", "--no-header") == 2
        # only the commands that parse feature cells take --missing-token
        assert run("eval", "--pred", tmp_path / "l.json", "--reference", blob_csv,
                   "--missing-token", "?") == 2

    def test_graph_kernel_on_csv_is_usage_error(self, blob_csv, tmp_path):
        code = run(
            "cluster", "--input", blob_csv, "--kernel", "graph:diag=auto",
            "--clusters", 2, "-o", tmp_path / "l.json",
        )
        assert code == 2

    def test_missing_input_is_data_error(self, tmp_path):
        code = run(
            "cluster", "--input", tmp_path / "absent.csv", "--kernel", "rbf:sigma=1",
            "--clusters", 2, "-o", tmp_path / "l.json",
        )
        assert code == 1

    def test_roc_on_subsampled_tree_explains_itself(self, blob_csv, tmp_path, capsys):
        labels = tmp_path / "l.json"
        tree = tmp_path / "t.json"
        assert run("cluster", "--input", blob_csv, "--kernel", "rbf:sigma=1",
                   "--clusters", 3, "--sample-size", 20, "-o", labels,
                   "--tree", tree) == 0
        code = run("roc", "--tree", tree, "--reference", blob_csv,
                   "-o", tmp_path / "r.csv")
        assert code == 1
        assert "--sample-size full" in capsys.readouterr().err

    def test_roc_reference_row_of_the_wrong_width_is_data_error(self, blob_csv, tmp_path, capsys):
        tree = tmp_path / "t.json"
        assert run("cluster", "--input", blob_csv, "--kernel", "rbf:sigma=1", "--clusters", 3,
                   "-o", tmp_path / "l.json", "--tree", tree) == 0
        rows = blob_csv.read_text().splitlines()
        rows[3] = rows[3].rsplit(",", 1)[0]
        reference = tmp_path / "short.csv"
        reference.write_text("\n".join(rows) + "\n")
        assert run("roc", "--tree", tree, "--reference", reference, "-o", tmp_path / "r.csv") == 1
        assert capsys.readouterr().err == f"error: {reference}: row 4 has 2 cells, expected 3\n"

    def test_invalid_tree_merge_names_the_step(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("label\na\nb\na\n")
        tree = tmp_path / "t.json"
        cases = (
            ([[1, 0, 1, 0.9], [2, 0, 2, 0.5]], "tree merge step 2: leaf 0 was removed by an earlier merge"),
            ([[1, 0, 7, 0.9]], "tree merge step 1: leaf 7 outside 0..2"),
            ([[1, 2, 2, 0.9]], "tree merge step 1: leaf 2 merged with itself"),
        )
        for merges, message in cases:
            tree.write_text(json.dumps({"n_leaves": 3, "merges": merges}))
            assert run("roc", "--tree", tree, "--reference", ref, "-o", tmp_path / "r.csv") == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_tree_file_of_wrong_shape_is_one_error_line(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("label\na\nb\na\n")
        tree = tmp_path / "t.json"
        cases = (
            ([[1, 0, 1, 0.9]], "tree file is not a JSON object"),
            ({"merges": []}, "tree file has no 'n_leaves' key"),
            ({"n_leaves": 3}, "tree file has no 'merges' key"),
            ({"n_leaves": 3, "merges": [[1, 0]]}, "tree merge row 1 is [1, 0], not [step, removed, kept, score]"),
            (
                {"n_leaves": 3, "merges": [[1, 0, 1, 0.9], [2, 1, 2, 0.5, 7]]},
                "tree merge row 2 is [2, 1, 2, 0.5, 7], not [step, removed, kept, score]",
            ),
            (
                {"n_leaves": 3, "merges": [[1, "a", 1, 0.9]]},
                'tree merge row 1 is [1, "a", 1, 0.9], not [step, removed, kept, score]',
            ),
            ({"n_leaves": None, "merges": []}, "tree file needs a non-negative integer 'n_leaves' and a list of 'merges'"),
            ({"n_leaves": -3, "merges": []}, "tree file needs a non-negative integer 'n_leaves' and a list of 'merges'"),
        )
        for payload, message in cases:
            tree.write_text(json.dumps(payload))
            assert run("roc", "--tree", tree, "--reference", ref, "-o", tmp_path / "r.csv") == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "merges",
        [
            '["1", "0", 1.9, "nan"]',
            "[1.0, 0, 1, 0.5]",
            "[1, true, 0, 0.5]",
            "[1, 0, 1, true]",
            "[1, 0, 1, NaN]",
            "[1, 0, 1, -Infinity]",
            "[1, 0, 1, 1" + "0" * 400 + "]",  # too large for a float
        ],
    )
    def test_tree_merge_values_are_checked_not_converted(self, tmp_path, capsys, merges):
        """Each row would convert to the valid merge of leaves 0 and 1."""
        ref = tmp_path / "ref.csv"
        ref.write_text("label\na\nb\n")
        tree = tmp_path / "t.json"
        tree.write_text(f'{{"n_leaves": 2, "merges": [{merges}]}}')
        assert run("roc", "--tree", tree, "--reference", ref, "-o", tmp_path / "r.csv") == 1
        row = json.dumps(json.loads(merges))
        assert capsys.readouterr().err == f"error: tree merge row 1 is {row}, not [step, removed, kept, score]\n"

    def test_deeply_nested_json_is_one_error_line(self, tmp_path, capsys):
        """json.loads raises RecursionError on deep nesting; both readers turn it into a data error."""
        ref = tmp_path / "ref.csv"
        ref.write_text("label\na\nb\n")
        tree, labels = tmp_path / "t.json", tmp_path / "l.json"
        tree.write_text("[" * 200_000)
        labels.write_text('{"labels": ' + "[" * 200_000)
        assert run("roc", "--tree", tree, "--reference", ref, "-o", tmp_path / "r.csv") == 1
        assert capsys.readouterr().err == "error: tree file is nested too deeply\n"
        assert run("eval", "--pred", labels, "--reference", ref) == 1
        assert capsys.readouterr().err == f"error: {labels}: labels file is nested too deeply\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[0, 1]", "labels file is not a JSON object"),
            ('{"n_clusters": 2}', "'labels' is not a list of JSON integers"),
            ('{"labels": null, "n_clusters": 2}', "'labels' is not a list of JSON integers"),
            ('{"labels": [0, 1.5], "n_clusters": 2}', "'labels' is not a list of JSON integers"),
            ('{"labels": [0, true], "n_clusters": 2}', "'labels' is not a list of JSON integers"),
            ('{"labels": [0, 1], "n_clusters": 1e400}',
             "'n_clusters' is not a JSON integer between 1 and the number of labels"),
            ('{"labels": [0, 1], "n_clusters": 2.0}',
             "'n_clusters' is not a JSON integer between 1 and the number of labels"),
            ('{"labels": [0, 1]}', "'n_clusters' is not a JSON integer between 1 and the number of labels"),
            ('{"labels": [0, 100000000000000000000000], "n_clusters": 2}',
             "'labels' holds a cluster id outside 0..1"),
        ],
    )
    def test_labels_file_values_are_checked_not_converted(self, tmp_path, capsys, text, message):
        ref = tmp_path / "ref.csv"
        ref.write_text("label\na\nb\n")
        labels = tmp_path / "l.json"
        labels.write_text(text)
        assert run("eval", "--pred", labels, "--reference", ref) == 1
        assert capsys.readouterr().err == f"error: {labels}: {message}\n"

    def test_tree_claiming_huge_leaf_count_fails_before_allocating(self, tmp_path, capsys):
        import tracemalloc

        ref = tmp_path / "ref.csv"
        ref.write_text("label\na\nb\n")
        tree = tmp_path / "t.json"
        tree.write_text('{"merges": [], "n_leaves": 100000000}')
        tracemalloc.start()
        try:
            code = run("roc", "--tree", tree, "--reference", ref, "-o", tmp_path / "r.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: tree has 100000000 leaves but the reference covers 2 rows;")
        assert peak < 1 << 20

    @pytest.mark.parametrize("command", ["cluster", "normalize", "kmeans", "roc", "eval"])
    def test_csv_cell_over_the_field_limit_is_one_error_line(self, tmp_path, capsys, command):
        data = tmp_path / "big.csv"
        data.write_text('1.0,2.0\n3.0,"' + "9" * 140_000 + '"\n')
        tree, labels = tmp_path / "t.json", tmp_path / "l.json"
        tree.write_text('{"merges": [], "n_leaves": 2}')
        labels.write_text('{"labels": [0, 1], "n_clusters": 2}')
        out = tmp_path / "out"
        argv = {
            "cluster": ["--input", data, "--kernel", "rbf:sigma=1", "--clusters", 2, "-o", out],
            "normalize": ["--input", data, "-o", out],
            "kmeans": ["--input", data, "--k", 2, "-o", out],
            "roc": ["--tree", tree, "--reference", data, "-o", out],
            "eval": ["--pred", labels, "--reference", data],
        }[command]
        assert run(command, *argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data}: line 2: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("n_leaves", ["true", "1.0"])
    def test_tree_leaf_count_must_be_an_integer(self, tmp_path, capsys, n_leaves):
        ref = tmp_path / "ref.csv"
        ref.write_text("label\na\n")
        tree = tmp_path / "t.json"
        tree.write_text(f'{{"n_leaves": {n_leaves}, "merges": []}}')
        assert run("roc", "--tree", tree, "--reference", ref, "-o", tmp_path / "r.csv") == 1
        assert capsys.readouterr().err == "error: tree file needs a non-negative integer 'n_leaves' and a list of 'merges'\n"

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 8.00 EiB for an array"), "Unable to allocate 8.00 EiB for an array"),
        (MemoryError(), "an allocation failed"),
    ])
    def test_out_of_memory_is_one_error_line(self, blob_csv, tmp_path, capsys, monkeypatch, exc, message):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(treelets.extend, "gram", exhausted)
        code = run("cluster", "--input", blob_csv, "--kernel", "rbf:sigma=1", "--clusters", 3,
                   "-o", tmp_path / "l.json")
        assert code == 1
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    def test_non_finite_gram_fails_before_decompose(self, tmp_path, capsys, monkeypatch):
        import treelets.extend

        data = tmp_path / "big.csv"
        data.write_text("".join(f"{100 + i},{99 - i}\n" for i in range(6)))
        monkeypatch.setattr(treelets.extend, "decompose", lambda *a, **k: pytest.fail("decompose reached"))
        code = run(
            "cluster", "--input", data, "--kernel", "poly:alpha=1,c0=1,r=200",
            "--clusters", 2, "-o", tmp_path / "l.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "PolynomialKernel(alpha=1.0, c0=1.0, degree=200)" in err
        assert "non-finite value for sample ids (0, 0)" in err

    def test_overflowing_query_self_similarity_is_one_error_line(self, tmp_path):
        """Row 0's <x, x> overflows in np.dot; seed 2 leaves it out of the sample, so it is a query."""
        data = tmp_path / "ov.csv"
        data.write_text("1e200,0\n0,1\n0,2\n0,1.5\n")
        src = Path(treelets.__file__).parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "treelets.cli", "cluster", "--input", str(data), "--kernel", "linear",
             "--clusters", "1", "--sample-size", "3", "--knn-k", "1", "--seed", "2",
             "-o", str(tmp_path / "ov.json")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: kernel LinearKernel() gives a non-finite value for query id 0\n"

    def test_non_finite_extension_is_one_error_line(self, tmp_path):
        data = tmp_path / "far.csv"
        rows = [f"{1 + 0.01 * i},0.0\n" for i in range(20)]
        rows[1] = "1000.0,0.0\n"  # a query: seed 0 samples rows 0, 2, 3, 4, 5, 7, 15, 16, 17, 19
        data.write_text("".join(rows))
        src = Path(treelets.__file__).parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "treelets.cli", "cluster", "--input", str(data),
             "--kernel", "poly:alpha=1,c0=0,r=201", "--clusters", "2", "--sample-size", "10",
             "-o", str(tmp_path / "l.json")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert proc.stderr == (
            "error: kernel PolynomialKernel(alpha=1.0, c0=0.0, degree=201) "
            "gives a non-finite value for query id 1\n"
        )

    @pytest.mark.parametrize("kernel, message", [
        ("rbf:sigma=1e-200", "rbf sigma 1e-200 is out of range: 2 sigma^2 is 0.0"),
        ("rbf:sigma=1e200", "rbf sigma 1e+200 is out of range: 2 sigma^2 is inf"),
        ("missing-rbf:gamma=inf", "missing-rbf gamma must be finite and > 0"),
        ("poly:alpha=nan,r=2", "polynomial alpha and c0 must be finite"),
        ("poly:c0=inf,r=2", "polynomial alpha and c0 must be finite"),
    ])
    def test_kernel_parameter_that_breaks_the_kernel_is_usage_error(self, tmp_path, capsys, kernel, message):
        """A 2 sigma^2 of 0, an infinite gamma or a non-finite polynomial alpha or c0 gives
        a non-finite diagonal, which the Gram check would blame on the data; sigma^2 past
        the float range raised OverflowError."""
        data = tmp_path / "three.csv"
        data.write_text("1.0,2.0\n1.5,2.5\n3.0,0.5\n")
        assert run("cluster", "--input", data, "--kernel", kernel, "--clusters", 3, "-o", tmp_path / "l.json") == 2
        err, usage = capsys.readouterr().err, cluster_usage()
        assert err.startswith(usage)
        assert err[len(usage):] == f"treelets cluster: error: argument --kernel: bad kernel parameter: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--lambda", "nan", "expected a non-negative number, got nan"),
        ("--lambda", "1e308", "lambda 1e308 is above sqrt(float max) = 1.34078e+154, where a pair score could overflow"),
        ("--lambda", "1.35e154", "lambda 1.35e154 is above sqrt(float max) = 1.34078e+154, where a pair score could overflow"),
        ("--lambda", "inf", "lambda inf is above sqrt(float max) = 1.34078e+154, where a pair score could overflow"),
        ("--stop-tol", "nan", "expected a non-negative number, got nan"),
        ("--stop-tol", "-1", "expected a non-negative number, got -1"),
    ])
    def test_lambda_or_stop_tol_that_corrupts_scores_is_usage_error(self, tmp_path, capsys, flag, value, message):
        """--lambda 1e308 scored pairs inf with a RuntimeWarning and exited 0; a NaN
        lambda scored them NaN, and a NaN stop_tol acted as 0."""
        data = tmp_path / "three.csv"
        data.write_text("1.0,2.0\n1.5,2.5\n3.0,0.5\n")
        code = run("cluster", "--input", data, "--kernel", "rbf:sigma=1", "--clusters", 2, flag, value,
                   "-o", tmp_path / "l.json")
        assert code == 2
        err, usage = capsys.readouterr().err, cluster_usage()
        assert err.startswith(usage)
        assert err[len(usage):] == f"treelets cluster: error: argument {flag}: {message}\n"

    def test_nan_noise_is_usage_error(self, tmp_path, capsys):
        assert run("generate", "--shape", "moons", "--n", 10, "--noise", "nan", "-o", tmp_path / "m.csv") == 2
        assert capsys.readouterr().err.endswith("error: argument --noise: expected a non-negative number, got nan\n")

    @pytest.mark.parametrize("kernel", ["rbf:sigma=1e-160", "missing-rbf:gamma=1e308"])
    def test_kernel_scaling_that_overflows_warns_nothing(self, tmp_path, capsys, kernel):
        """Every scaled squared distance off the diagonal overflows to -inf, whose exp
        is the intended 0: no pair is similar, and the three rows stay apart."""
        data = tmp_path / "three.csv"
        data.write_text("1.0,2.0\n1.5,2.5\n3.0,0.5\n")
        labels = tmp_path / "l.json"
        assert run("cluster", "--input", data, "--kernel", kernel, "--clusters", 3, "-o", labels) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(labels.read_text())["labels"] == [0, 1, 2]

    @pytest.mark.parametrize("kernel, code", [("rbf:sigma=1", 0), ("missing-rbf:gamma=1", 0), ("linear", 1)])
    def test_distance_or_inner_product_that_overflows_warns_nothing(self, tmp_path, capsys, kernel, code):
        """A squared distance past the float range is +inf, the RBF kernels' 0; an
        inner product past it is a non-finite Gram cell, refused with one line."""
        data = tmp_path / "far.csv"
        data.write_text("0.0,1.0\n1e200,1.0\n-1e200,1.0\n")
        labels = tmp_path / "l.json"
        assert run("cluster", "--input", data, "--kernel", kernel, "--clusters", 3, "-o", labels) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and json.loads(labels.read_text())["labels"] == [0, 1, 2]

    @pytest.mark.parametrize("text", ["", "# comments only\n"])
    @pytest.mark.parametrize("kernel", ["graph:diag=auto", "graph:diag=3"])
    def test_edge_list_without_edges_is_one_error_line(self, tmp_path, capsys, text, kernel):
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        assert run("cluster", "--input", graph, "--kernel", kernel, "--clusters", 2, "-o", tmp_path / "l.json") == 1
        assert capsys.readouterr().err == f"error: {graph}: no edges\n"

    def test_infinite_graph_diag_is_usage_error(self, tmp_path, capsys):
        """Every diagonal cell would be inf: refused with the kernel, before the graph is read."""
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        code = run("cluster", "--input", graph, "--kernel", "graph:diag=inf", "--clusters", 2, "-o", tmp_path / "l.json")
        assert code == 2
        err, usage = capsys.readouterr().err, cluster_usage()
        message = "bad kernel parameter: graph kernel diag must be finite and > 0"
        assert err == f"{usage}treelets cluster: error: argument --kernel: {message}\n"

    def test_unreachable_cut_is_data_error(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n2 3\n")  # two components, cut at 1 unreachable
        code = run(
            "cluster", "--input", graph, "--kernel", "graph:diag=auto",
            "--clusters", 1, "-o", tmp_path / "l.json",
        )
        assert code == 1


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.floats(), st.text(max_size=3))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(["n_leaves", "merges", "x"]), inner,
                                                                 max_size=3),
    max_leaves=12,
)


@st.composite
def tree_texts(draw):
    """Tree JSON texts: any small JSON value, or an object shaped nearly like a tree file
    (a leaf count near the reference's 3 rows or of the wrong type; rows of four small
    numbers, of 0 to 5 values or of any JSON; a key dropped), whole or cut short."""
    if draw(st.integers(0, 3)) == 0:
        return json.dumps(draw(json_values))
    small = st.integers(-1, 4)
    cell = st.one_of(small, st.floats(), st.booleans(), st.none(), st.text(max_size=2))
    row = st.one_of(st.tuples(small, small, small, st.one_of(st.floats(), small)).map(list),
                    st.lists(cell, max_size=5), json_values)
    payload = {
        "n_leaves": draw(st.one_of(st.just(3), small, json_scalars)),
        "merges": draw(st.lists(row, max_size=4)),
    }
    if draw(st.integers(0, 7)) == 0:
        del payload[draw(st.sampled_from(list(payload)))]
    text = json.dumps(payload)
    return text[: draw(st.integers(0, len(text)))] if draw(st.integers(0, 7)) == 0 else text


@settings(max_examples=300, deadline=None)
@given(tree_texts(), st.sampled_from(["ref.csv", "ref.txt"]))
def test_roc_on_any_tree_text_exits_cleanly(tmp_path_factory, text, reference):
    """0, 1 or 2 and nothing raised; a failure is one error line on stderr."""
    base = tmp_path_factory.getbasetemp()
    (base / "ref.csv").write_text("label\na\nb\na\n")
    (base / "ref.txt").write_text("0 1\n1 2\n")
    tree = base / "prop_roc_tree.json"
    tree.write_text(text)
    err = StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
        code = run("roc", "--tree", tree, "--reference", base / reference, "-o", base / "prop_roc.csv")
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def run_capturing(*args) -> tuple[int, list]:
    """run() with stdout dropped; returns the exit code and the stderr lines.

    A warning is a line on stderr, as outside the tests; a RuntimeWarning still raises.
    """
    err = StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()), warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        warnings.showwarning = lambda message, *args, **kwargs: print(f"warning: {message}", file=sys.stderr)
        code = run(*args)
    return code, err.getvalue().splitlines()


def assert_clean_exit(code: int, lines: list) -> None:
    """0, 1 or 2; a failure is one error line."""
    assert code in (0, 1, 2)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=300, deadline=None)
@given(raw_csv_texts(), st.sampled_from([
    ["cluster", "--kernel", "rbf:sigma=1", "--clusters", 2, "--threads", 1, "--tree", "prop_tree.json"],
    ["cluster", "--kernel", "missing-rbf:gamma=1", "--clusters", 2, "--threads", 1, "--sample-size", 3],
    ["cluster", "--kernel", "linear", "--clusters", 1, "--threads", 1, "--has-header"],
    # the largest lambda the CLI takes: lambda |a_ij| is near float max / 2 on the linear Gram
    ["cluster", "--kernel", "linear", "--clusters", 2, "--threads", 1, "--lambda", "1.3407807929942596e154"],
    ["normalize"],
    ["kmeans", "--k", 2],
]))
def test_csv_commands_on_any_small_text_exit_cleanly(tmp_path_factory, text, command):
    """0, 1 or 2 and nothing raised, for quoted, CR-ended and malformed texts alike; a failure is one error line."""
    base = tmp_path_factory.getbasetemp()
    data = base / "prop_cli.csv"
    data.write_bytes(text.encode())
    name, *flags = [base / a if str(a).endswith(".json") else a for a in command]
    limit = csv.field_size_limit(RAW_FIELD_LIMIT)
    try:
        code, lines = run_capturing(name, "--input", data, "-o", base / "prop_cli.out", *flags)
    finally:
        csv.field_size_limit(limit)
    assert_clean_exit(code, lines)


@st.composite
def edge_list_texts(draw):
    """Small edge-list texts: edges between ids 0 to 6, comments, blank and whitespace-only
    lines, tabs, runs and other kinds of blanks, CR, CRLF or LF ends.  Half of them hold
    one faulty line: a negative id, a self-loop, an id past int()'s 4300-digit limit (one
    of them the small id 3 behind leading zeros), an id one past the largest vertex id, a
    malformed token or a wrong token count.  No valid id is large: a valid id near 2**20
    would ask for a Gram of 2**20 rows."""
    small = st.integers(0, 6).map(str)
    blank = st.sampled_from([" ", "\t", "  ", " \t ", "\x0c", "\u00a0"])
    margin = st.sampled_from(["", "", " ", "\t"])
    good = st.one_of(
        st.tuples(margin, st.lists(small, min_size=2, max_size=2, unique=True), blank, margin).map(
            lambda t: t[0] + t[2].join(t[1]) + t[3]),
        st.sampled_from(["", "   ", "\t", "# comment", "  # indented 1 2", "#1 2"]),
    )
    token = st.one_of(small, st.integers(-3, -1).map(str), st.sampled_from(
        ["1" * 4301, "0" * 4400 + "3", "9" * 20, str(io.MAX_VERTEX_ID + 1), "+1", "1.0", "1e2", "x", "\u0663"]))
    bad = st.one_of(
        st.tuples(token, blank, token).map("".join),
        small.map(lambda u: f"{u} {u}"),
        st.sampled_from(["0 1 # trailing", "0", "0 1 2"]),
    )
    lines = draw(st.lists(good, max_size=10))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if lines and draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None)
@given(edge_list_texts(), st.sampled_from(["graph:diag=auto", "graph:diag=3"]), st.integers(1, 4))
def test_edge_list_commands_on_any_small_text_exit_cleanly(tmp_path_factory, text, kernel, clusters):
    """`cluster` with the graph kernel, then `roc` with the text as its reference, on the
    tree that run wrote (or a 3-leaf tree if it failed): each gives 0, 1 or 2 and raises
    nothing, a failure is one error line."""
    base = tmp_path_factory.getbasetemp()
    graph = base / "prop_graph.txt"
    graph.write_bytes(text.encode())
    tree = base / "prop_graph_tree.json"
    code, lines = run_capturing("cluster", "--input", graph, "--kernel", kernel, "--clusters", clusters,
                                "--threads", 1, "-o", base / "prop_graph_labels.json", "--tree", tree)
    assert_clean_exit(code, lines)
    if code:
        tree.write_text('{"n_leaves": 3, "merges": []}')
    code, lines = run_capturing("roc", "--tree", tree, "--reference", graph, "-o", base / "prop_graph_roc.csv")
    assert_clean_exit(code, lines)


class TestPipeline:
    def test_generate_cluster_roc_eval(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        labels = tmp_path / "labels.json"
        tree = tmp_path / "tree.json"
        roc = tmp_path / "roc.csv"

        assert run("generate", "--shape", "circles", "--noise", 0.05, "--n", 120,
                   "--seed", 7, "-o", data) == 0
        # the merge tree used for ROC must cover every reference row, so the
        # tree-producing run samples everything; label extension is separate
        assert run("cluster", "--input", data, "--kernel", "rbf:sigma=0.15",
                   "--clusters", 2, "--sample-size", "full", "--seed", 3,
                   "-o", labels, "--tree", tree) == 0
        assert run("roc", "--tree", tree, "--reference", data, "-o", roc) == 0
        out = capsys.readouterr().out
        assert "AUC" in out
        auc_value = float(out.split()[-1])
        assert 0.0 <= auc_value <= 1.0

        assert run("eval", "--pred", labels, "--reference", data) == 0
        out = capsys.readouterr().out
        assert "TPR" in out and "FPR" in out

        payload = json.loads(labels.read_text())
        assert payload["n"] == 120
        assert payload["n_clusters"] == 2
        assert payload["kernel"] == {"kind": "rbf", "sigma": 0.15}
        assert roc.read_text().startswith("fpr,tpr\n")

    def test_graph_cluster_with_auto_diag(self, tmp_path):
        graph = tmp_path / "g.txt"
        # two triangles joined by one edge
        graph.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n")
        labels = tmp_path / "labels.json"
        assert run("cluster", "--input", graph, "--kernel", "graph:diag=auto",
                   "--clusters", 2, "-o", labels) == 0
        payload = json.loads(labels.read_text())
        assert payload["kernel"] == {"kind": "graph", "diag": 3.0}
        got = payload["labels"]
        assert got[0] == got[1] == got[2]
        assert got[3] == got[4] == got[5]
        assert got[0] != got[3]

    def test_eval_against_graph_reference(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
        labels = tmp_path / "labels.json"
        assert run("cluster", "--input", graph, "--kernel", "graph:diag=auto",
                   "--clusters", 2, "-o", labels) == 0
        assert run("eval", "--pred", labels, "--reference", graph) == 0
        out = capsys.readouterr().out
        # two clean triangles: every edge pair co-clustered, no strangers mixed
        assert "TPR 1.000000" in out
        assert "FPR 0.000000" in out

    def test_manifest_records_how_the_decomposition_stopped(self, tmp_path):
        graph = tmp_path / "g.txt"
        labels = tmp_path / "labels.json"
        tree = tmp_path / "tree.json"
        triangles = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n"
        for edges, steps in ((triangles, 4), (triangles + "2 3\n", 5)):  # apart, then joined
            graph.write_text(edges)
            assert run("cluster", "--input", graph, "--kernel", "graph:diag=auto",
                       "--clusters", 2, "-o", labels, "--tree", tree) == 0
            for path in (labels, tree):
                manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
                how = manifest["decomposition"]
                assert how["steps"] == steps == len(json.loads(tree.read_text())["merges"])
                if steps == 4:  # no pair links the triangles once each has merged
                    assert how["stop"] == "stalled"
                    assert how["stop_score"] < manifest["config"]["stop_tol"]
                else:
                    # six rows, below the compaction floor; every stale row goes lazy
                    assert how == {"steps": 5, "stop": "completed", "stop_score": None,
                                   "rows_made_lazy": 4, "lazy_rescans": 2, "compactions": 0}

    def test_manifest_counts_the_pair_search_the_same_way_every_run(self, tmp_path):
        """A star's first step leaves every other leaf stale, so rows go lazy and are rescanned."""
        from treelets import decompose, gram, graph_kernel_for

        graph = tmp_path / "star.txt"
        graph.write_text("".join(f"0 {v}\n" for v in range(1, 24)))
        sections = []
        for name in ("a.json", "b.json"):
            assert run("cluster", "--input", graph, "--kernel", "graph:diag=auto",
                       "--clusters", 2, "-o", tmp_path / name) == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            sections.append(manifest["decomposition"])
        assert sections[0] == sections[1]
        g = io.read_edge_list(graph)
        d = decompose(gram(graph_kernel_for(g), g, range(g.n_vertices)).data)
        counters = {k: sections[0][k] for k in ("rows_made_lazy", "lazy_rescans")}
        assert counters == {"rows_made_lazy": d.rows_made_lazy, "lazy_rescans": d.lazy_rescans}
        assert counters["lazy_rescans"] > 0

    def test_manifest_counts_the_extension_work(self, blob_csv, tmp_path):
        """20 queries against a 10-row sample: the RBF screen computes the
        values of each query's 3 nearest alone, and proves every row; the
        sample is smaller than a pilot, so every squared distance is computed.
        A full sample extends nothing."""
        for size, work in ((10, {"queries": 20, "kernel_values": 60, "full_rows": 0, "squared_distances": 200}),
                           ("full", {"queries": 0, "kernel_values": 0, "full_rows": 0, "squared_distances": 0})):
            labels = tmp_path / f"labels-{size}.json"
            assert run("cluster", "--input", blob_csv, "--kernel", "rbf:sigma=3", "--clusters", 3,
                       "--sample-size", size, "--knn-k", 3, "-o", labels) == 0
            assert json.loads(Path(str(labels) + ".manifest.json").read_text())["extension"] == work

    def test_normalize_preserves_missing_cells(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1.0,5.0\nNA,7.0\n3.0,9.0\n")
        out = tmp_path / "m_norm.csv"
        assert run("normalize", "--input", src, "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == ""  # still missing
        back = io.read_csv_numeric(out)
        assert not back.present[1, 0]
        assert back.present[0, 0]

    def test_kmeans_and_normalize(self, blob_csv, tmp_path):
        labels = tmp_path / "k.json"
        assert run("kmeans", "--input", blob_csv, "--k", 3, "--seed", 2, "-o", labels) == 0
        assert json.loads(labels.read_text())["n_clusters"] == 3

        out_csv = tmp_path / "norm.csv"
        assert run("normalize", "--input", blob_csv, "-o", out_csv) == 0
        norm = io.read_csv_numeric(out_csv)
        assert norm.p == 2  # label column dropped
        assert abs(norm.values[:, 0].mean()) < 1e-12

    def test_csv_parsed_once(self, blob_csv, tmp_path, monkeypatch):
        """The header sniff, the 'label' column and the cells come from one parse."""
        calls = []
        parse = io._csv_rows
        monkeypatch.setattr(io, "_csv_rows", lambda path: calls.append(path) or parse(path))
        tree = tmp_path / "t.json"
        assert run("normalize", "--input", blob_csv, "-o", tmp_path / "n.csv") == 0
        assert run("cluster", "--input", blob_csv, "--kernel", "rbf:sigma=1", "--clusters", 3,
                   "-o", tmp_path / "l.json", "--tree", tree) == 0
        assert run("roc", "--tree", tree, "--reference", blob_csv, "-o", tmp_path / "r.csv") == 0
        assert calls == [str(blob_csv)] * 3

    def test_text_label_column_is_not_parsed(self, tmp_path):
        data = tmp_path / "named.csv"
        data.write_text("x,y,label\n0.0,0.0,a\n0.1,0.0,a\n5.0,5.0,b\n5.1,5.0,b\n")
        labels = tmp_path / "l.json"
        assert run("cluster", "--input", data, "--kernel", "rbf:sigma=1", "--clusters", 2,
                   "-o", labels) == 0
        got = json.loads(labels.read_text())["labels"]
        assert len(got) == 4 and got[0] == got[1] != got[2] == got[3]

    def test_missing_token_in_first_row_is_data(self, tmp_path):
        src = tmp_path / "q.csv"
        src.write_text("1.0,?\n2.0,5.0\n3.0,6.0\n4.0,7.0\n")
        out = tmp_path / "q_norm.csv"
        assert run("normalize", "--missing-token", "?", "--input", src, "-o", out) == 0
        back = io.read_csv_numeric(out)
        assert back.n == 4
        assert not back.present[0, 1] and back.present[1:].all()

    def test_manifest_written(self, blob_csv, tmp_path):
        labels = tmp_path / "labels.json"
        assert run("cluster", "--input", blob_csv, "--kernel", "rbf:sigma=1",
                   "--clusters", 3, "--seed", 11, "-o", labels) == 0
        manifest = json.loads((tmp_path / "labels.json.manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        assert manifest["config"]["kernel"] == {"kind": "rbf", "sigma": 1.0}
        assert str(blob_csv) in manifest["inputs"]
        assert manifest["inputs"][str(blob_csv)].startswith("sha256:")
        assert "decompose" in manifest["timings"]
        assert manifest["version"]

    def test_manifests_lap_every_stage(self, tmp_path):
        """A graph `cluster` laps its load and its writes beside fit_predict's stages; a `roc` laps reading the
        tree and the reference, the sweep and the write, and counts the curve's points as the CSV holds them."""
        graph, labels, tree, roc = (tmp_path / name for name in ("g.txt", "labels.json", "tree.json", "roc.csv"))
        graph.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n")
        assert run("cluster", "--input", graph, "--kernel", "graph:diag=auto", "--clusters", 2,
                   "-o", labels, "--tree", tree) == 0
        assert run("roc", "--tree", tree, "--reference", graph, "-o", roc) == 0
        timings = json.loads(Path(f"{labels}.manifest.json").read_text())["timings"]
        assert set(timings) == {"load", "sample", "gram", "decompose", "cut", "extend", "write", "total"}
        manifest = json.loads(Path(f"{roc}.manifest.json").read_text())
        assert set(manifest["timings"]) == {"tree", "reference", "sweep", "write", "total"}
        assert manifest["timings"]["total"] >= sum(v for k, v in manifest["timings"].items() if k != "total")
        assert manifest["points"] == len(roc.read_text().splitlines()) - 1 >= 2

    def test_cluster_hashes_its_input_once_for_two_equal_manifests(self, blob_csv, tmp_path, monkeypatch):
        calls = []
        sha256 = treelets.cli._sha256
        monkeypatch.setattr(treelets.cli, "_sha256", lambda path: calls.append(path) or sha256(path))
        labels, tree = tmp_path / "labels.json", tmp_path / "tree.json"
        assert run("cluster", "--input", blob_csv, "--kernel", "rbf:sigma=1", "--clusters", 3,
                   "-o", labels, "--tree", tree) == 0
        assert calls == [str(blob_csv)]
        texts = [Path(f"{path}.manifest.json").read_bytes() for path in (labels, tree)]
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["inputs"] == {str(blob_csv): sha256(blob_csv)}


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        for label, threads in (("a", 1), ("b", 4)):
            d = tmp_path / label
            d.mkdir()
            assert run("generate", "--shape", "moons", "--n", 80, "--seed", 13,
                       "-o", d / "data.csv") == 0
            assert run("cluster", "--input", d / "data.csv", "--kernel", "rbf:sigma=0.2",
                       "--clusters", 2, "--sample-size", 60, "--seed", 1,
                       "--threads", threads, "-o", d / "labels.json",
                       "--tree", d / "tree.json") == 0
            assert run("cluster", "--input", d / "data.csv", "--kernel", "rbf:sigma=0.2",
                       "--clusters", 2, "--seed", 1, "--threads", threads,
                       "-o", d / "labels_full.json", "--tree", d / "tree_full.json") == 0
            assert run("roc", "--tree", d / "tree_full.json", "--reference", d / "data.csv",
                       "-o", d / "roc.csv") == 0
        a = output_bytes(tmp_path / "a")
        b = output_bytes(tmp_path / "b")
        assert a == b
