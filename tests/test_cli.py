import json
from pathlib import Path

import pytest

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
        code = run(
            "cluster", "--input", tmp_path / "x.csv", "--kernel", "warp:q=1",
            "--clusters", 2, "-o", tmp_path / "l.json",
        )
        assert code == 2


class TestExitCodes:
    def test_zero_clusters_is_usage_error(self, blob_csv, tmp_path):
        code = run(
            "cluster", "--input", blob_csv, "--kernel", "rbf:sigma=1",
            "--clusters", 0, "-o", tmp_path / "l.json",
        )
        assert code == 2

    def test_unknown_flag_is_usage_error(self, blob_csv, tmp_path):
        assert run("cluster", "--frobnicate", "--input", blob_csv) == 2

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
        from treelets import io

        back = io.read_csv_numeric(out)
        assert not back.present[1, 0]
        assert back.present[0, 0]

    def test_kmeans_and_normalize(self, blob_csv, tmp_path):
        labels = tmp_path / "k.json"
        assert run("kmeans", "--input", blob_csv, "--k", 3, "--seed", 2, "-o", labels) == 0
        assert json.loads(labels.read_text())["n_clusters"] == 3

        out_csv = tmp_path / "norm.csv"
        assert run("normalize", "--input", blob_csv, "-o", out_csv) == 0
        from treelets import io

        norm = io.read_csv_numeric(out_csv)
        assert norm.p == 2  # label column dropped
        assert abs(norm.values[:, 0].mean()) < 1e-12

    def test_feature_csv_parsed_twice(self, blob_csv, tmp_path, monkeypatch):
        """Once for the header, once for the values; the header sniff reuses the first."""
        from treelets import io

        calls = []
        parse = io._csv_rows
        monkeypatch.setattr(io, "_csv_rows", lambda path: calls.append(path) or parse(path))
        assert run("normalize", "--input", blob_csv, "-o", tmp_path / "n.csv") == 0
        assert len(calls) == 2

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
