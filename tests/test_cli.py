import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treelets
from treelets import io
from treelets.cli import main, parse_kernel
from treelets.kernels import GraphKernel, MissingRbfKernel, PolynomialKernel, RbfKernel


def run(*args) -> int:
    return main([str(a) for a in args])


def output_bytes(directory: Path) -> dict:
    """Bytes of every non-manifest output file, keyed by name."""
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if not p.name.endswith(".manifest.json")
    }


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
            ({"n_leaves": None, "merges": []}, "tree file needs an integer 'n_leaves' and a list of 'merges'"),
        )
        for payload, message in cases:
            tree.write_text(json.dumps(payload))
            assert run("roc", "--tree", tree, "--reference", ref, "-o", tmp_path / "r.csv") == 1
            assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_unreachable_cut_is_data_error(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n2 3\n")  # two components, cut at 1 unreachable
        code = run(
            "cluster", "--input", graph, "--kernel", "graph:diag=auto",
            "--clusters", 1, "-o", tmp_path / "l.json",
        )
        assert code == 1


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
