"""Acceptance suite: every shipping criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the two public-dataset criteria skip with a notice when the files
are not present (see tests/README note in the repo README).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_spsd, random_symmetric
from oracles import psd_sqrt
from test_core import merge_sets_from_records, oracle_merge_sets, replay
from test_metrics import random_tree

from treelets import (
    Dataset,
    KtConfig,
    MissingRbfKernel,
    RbfKernel,
    SymMatrix,
    apply_rotation,
    auc,
    cut,
    decompose,
    fit_predict,
    generate,
    gram,
    graph_kernel_for,
    jacobi_coeffs,
    kmeans,
    knn_extend,
    matching_matrix,
    merge_tree,
    zscore_normalize,
)
from treelets.datagen import Blobs, Circles
from treelets.io import read_edge_list, _csv_rows
from treelets.metrics import RocCurve, roc_brute_force, roc_from_hierarchy, roc_from_partitions


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert passed, f"criterion {num} failed: {name}{suffix}"


def skip(num: int, name: str, why: str):
    print(f"[criterion {num:02d}] SKIP {name}: {why}")
    pytest.skip(f"criterion {num}: {why}")


def agreement(labels, reference) -> float:
    mm = matching_matrix(labels, reference)
    return (mm.tp + mm.tn) / mm.total


def find_dataset(env_var: str, filename: str):
    cand = os.environ.get(env_var)
    if cand and Path(cand).exists():
        return Path(cand)
    local = Path(__file__).resolve().parent.parent / "data" / filename
    if local.exists():
        return local
    return None


def test_criterion_01_rotation_correctness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        a = random_symmetric(rng, 8)
        dense = a.to_dense()
        i, j = sorted(rng.choice(8, size=2, replace=False))
        coeffs = jacobi_coeffs(a.get(i, i), a.get(j, j), a.get(i, j))
        apply_rotation(a, int(i), int(j), coeffs)

        ok &= a.get(i, j) == 0.0
        rot = np.eye(8)
        rot[i, i] = rot[j, j] = coeffs.c
        rot[i, j] = coeffs.s
        rot[j, i] = -coeffs.s
        ok &= np.abs(a.to_dense() - rot.T @ dense @ rot).max() <= 1e-12
        ok &= abs(np.trace(a.to_dense()) - np.trace(dense)) <= 1e-10 * abs(np.trace(dense))
        f0 = np.linalg.norm(dense)
        ok &= abs(np.linalg.norm(a.to_dense()) - f0) <= 1e-10 * f0
    elapsed = time.perf_counter() - t0
    report(1, "rotation correctness, 1000 random 8x8", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_treelet_structure():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    ok = True
    for p in (4, 8, 16, 32):
        a = random_spsd(rng, p)
        d = decompose(a)
        for k in range(d.stop_level + 1):
            b = d.basis_matrix(k)
            ok &= np.abs(b @ b.T - np.eye(p)).max() <= 1e-8
            ok &= np.abs(replay(a, d, k).to_dense() - b @ a.to_dense() @ b.T).max() <= 1e-8
            ok &= len(d.scaling_set(k)) == p - k
        ok &= all(r.diag_alpha <= r.diag_beta for r in d.records)
    elapsed = time.perf_counter() - t0
    report(2, "treelet structure, p in {4,8,16,32}", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_03_pair_selection_oracle():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(200):
        p = int(rng.integers(2, 25))
        a = random_spsd(rng, p)
        fast = decompose(a, selection="cached")
        slow = decompose(a, selection="rescan")
        ok &= [(r.alpha, r.beta, r.score) for r in fast.records] == [
            (r.alpha, r.beta, r.score) for r in slow.records
        ]
    report(3, "cached pair selection equals full rescan, 200 matrices", ok)


def test_criterion_04_sqrt_equivalence():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(50):
        p = int(rng.integers(2, 17))
        k = random_spsd(rng, p)
        s = psd_sqrt(k).to_dense()
        seq_k = [(r.alpha, r.beta) for r in decompose(k).records]
        seq_s = [(r.alpha, r.beta) for r in decompose(SymMatrix.from_dense(s @ s)).records]
        ok &= seq_k == seq_s
    report(4, "merge sequence of K equals sqrt(K)^2, 50 matrices", ok)


def planted_partition(block_size: int) -> tuple[SymMatrix, np.ndarray]:
    weights = (0.9, 0.8, 0.7, 0.6)
    p = 4 * block_size
    dense = np.zeros((p, p))
    labels = np.repeat(np.arange(4), block_size)
    for b, w in enumerate(weights):
        sl = slice(b * block_size, (b + 1) * block_size)
        dense[sl, sl] = w
    np.fill_diagonal(dense, 1.0)
    return SymMatrix.from_dense(dense), labels


def test_criterion_05_planted_partition():
    a12, truth12 = planted_partition(3)
    d12 = decompose(a12)
    brute = oracle_merge_sets(a12.to_dense())
    ok = merge_sets_from_records(d12) == brute
    ok &= agreement(cut(merge_tree(d12), 4), truth12) == 1.0

    t0 = time.perf_counter()
    a200, truth200 = planted_partition(50)
    labels200 = cut(merge_tree(decompose(a200)), 4)
    elapsed = time.perf_counter() - t0
    ok &= agreement(labels200, truth200) == 1.0
    report(5, "planted 4-block partition recovered", ok and elapsed < 1.0, f"p=200 {elapsed:.2f}s")


def test_criterion_06_shapes_desk_scale():
    t0 = time.perf_counter()
    data, truth = generate(Circles(factor=0.5, noise=0.05), 300, seed=42)
    cfg = KtConfig(kernel=RbfKernel(sigma=0.1), sample_size=300, n_clusters=2, seed=0)
    circ_agree = agreement(fit_predict(data, cfg).labels, truth.assignments)

    blob_data, blob_truth = generate(
        Blobs(centers=((0.0, 0.0), (10.0, 0.0)), stds=(1.0, 1.0)), 300, seed=42
    )
    blob_cfg = KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=300, n_clusters=2, seed=0)
    blob_agree = agreement(fit_predict(blob_data, blob_cfg).labels, blob_truth.assignments)
    elapsed = time.perf_counter() - t0
    report(
        6,
        "concentric circles and separated blobs at full sample",
        circ_agree >= 0.95 and blob_agree == 1.0 and elapsed < 10.0,
        f"circles {circ_agree:.3f}, blobs {blob_agree:.3f}, {elapsed:.1f}s",
    )


def test_criterion_07_sample_size_stability():
    data, truth = generate(Circles(factor=0.5, noise=0.05), 300, seed=7)
    medians = []
    for n_s in (50, 100, 200, 300):
        scores = []
        for seed in range(20):
            cfg = KtConfig(
                kernel=RbfKernel(sigma=0.1), sample_size=n_s, n_clusters=2, seed=seed
            )
            try:
                scores.append(agreement(fit_predict(data, cfg).labels, truth.assignments))
            except ValueError:
                # sparse subsamples can go near-orthogonal and stall before a
                # 2-cluster cut is reachable; that run simply failed
                scores.append(0.0)
        medians.append(float(np.median(scores)))
    ok = all(b >= a for a, b in zip(medians, medians[1:]))
    report(7, "median agreement non-decreasing in sample size",
           ok, "medians " + ", ".join(f"{m:.3f}" for m in medians))


def test_criterion_08_social_graph():
    path = find_dataset("TREELETS_FACEBOOK_EDGES", "facebook_combined.txt")
    if path is None:
        skip(8, "social graph benchmark", "public SNAP edge file not found "
             "(set TREELETS_FACEBOOK_EDGES or place data/facebook_combined.txt)")
    t0 = time.perf_counter()
    graph = read_edge_list(path)
    ok = graph.n_vertices == 4039 and graph.n_edges == 88234
    kernel = graph_kernel_for(graph)
    ok &= kernel.diag == 1045.0

    timings = {}
    t = time.perf_counter()
    a0 = gram(kernel, graph, range(graph.n_vertices))
    timings["gram"] = time.perf_counter() - t
    t = time.perf_counter()
    tree = merge_tree(decompose(a0))
    timings["decompose"] = time.perf_counter() - t
    t = time.perf_counter()
    curve = roc_from_hierarchy(tree, graph)
    timings["roc"] = time.perf_counter() - t

    score = auc(curve)
    elapsed = time.perf_counter() - t0
    stage = ", ".join(f"{k} {v:.1f}s" for k, v in timings.items())
    report(8, "social graph AUC", ok and score >= 0.90 and elapsed < 1800.0,
           f"AUC {score:.3f}, {elapsed:.0f}s [{stage}]")


def load_protein_expression(path):
    """Rows of the protein-expression CSV: numeric columns + class labels."""
    rows = _csv_rows(path)
    header = [h.strip() for h in rows[0]]
    meta = {"mouseid", "genotype", "treatment", "behavior", "class"}
    numeric_cols = [i for i, h in enumerate(header) if h.lower() not in meta]
    class_col = [i for i, h in enumerate(header) if h.lower() == "class"][0]
    values = np.zeros((len(rows) - 1, len(numeric_cols)))
    present = np.zeros_like(values, dtype=bool)
    classes = []
    for r, row in enumerate(rows[1:]):
        classes.append(row[class_col].strip())
        for c, col in enumerate(numeric_cols):
            token = row[col].strip()
            if token in ("", "NA", "NaN"):
                continue
            values[r, c] = float(token)
            present[r, c] = True
    return Dataset(values, present), np.array(classes)


def test_criterion_09_missing_data_benchmark():
    path = find_dataset("TREELETS_MPE_CSV", "Data_Cortex_Nuclear.csv")
    if path is None:
        skip(9, "protein expression benchmark", "public UCI CSV not found "
             "(set TREELETS_MPE_CSV or place data/Data_Cortex_Nuclear.csv)")
    data, classes = load_protein_expression(path)
    normalized = zscore_normalize(data)
    # the ROC sweeps every reachable hierarchy level, so no flat cut is
    # involved; the sharp kernel stalls once clusters go mutually orthogonal
    a0 = gram(MissingRbfKernel(gamma=32.0), normalized, range(normalized.n))
    tree = merge_tree(decompose(a0))
    kt_auc = auc(roc_from_hierarchy(tree, classes))

    imputed = Dataset(np.where(normalized.present, normalized.values, 0.0))
    partitions = [kmeans(imputed, k, seed=0) for k in range(1, 41)]
    km_auc = auc(roc_from_partitions(partitions, classes))

    ok = abs(kt_auc - 0.726) <= 0.05 and abs(km_auc - 0.579) <= 0.05 and kt_auc > km_auc
    report(9, "missing-data clustering beats kmeans sweep", ok,
           f"KT AUC {kt_auc:.3f} vs kmeans {km_auc:.3f}")


def test_criterion_10_complexity():
    rng = np.random.default_rng(1010)

    def decompose_time(n):
        data = Dataset(rng.uniform(0, 1, (n, 2)))
        a = gram(RbfKernel(sigma=0.1), data, range(n))
        t0 = time.perf_counter()
        decompose(a)
        return time.perf_counter() - t0

    t800 = decompose_time(800)
    t1600 = decompose_time(1600)
    quad_ratio = t1600 / t800

    sample_n = 200
    data = Dataset(rng.uniform(0, 1, (sample_n + 4000, 2)))
    sample = np.arange(sample_n)
    labels = rng.integers(0, 3, size=sample_n)

    def extend_time(n_queries):
        queries = np.arange(sample_n, sample_n + n_queries)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            knn_extend(RbfKernel(sigma=0.1), data, sample, labels, queries, knn_k=5)
            best = min(best, time.perf_counter() - t0)
        return best

    e1 = extend_time(2000)
    e2 = extend_time(4000)
    lin_ratio = e2 / e1
    ok = quad_ratio <= 5.0 and lin_ratio <= 3.0
    report(10, "decompose quadratic-ish, extension linear-ish", ok,
           f"decompose x{quad_ratio:.2f} (<=5), extend x{lin_ratio:.2f} (<=3)")


def test_criterion_11_evaluation_oracle():
    rng = np.random.default_rng(1111)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 51))
        tree = random_tree(rng, n)
        ref = rng.integers(0, 4, size=n)
        ok &= roc_from_hierarchy(tree, ref) == roc_brute_force(tree, ref)

    fixtures = [
        ([(0.0, 0.0), (1.0, 1.0)], 0.5),
        ([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)], 1.0),
        ([(0.0, 0.0), (0.2, 0.8), (1.0, 1.0)], 0.8),
    ]
    for points, expected in fixtures:
        ok &= abs(auc(RocCurve.from_points(points)) - expected) <= 1e-12
    report(11, "incremental roc equals brute force; auc fixtures", ok)


def test_criterion_12_cli_determinism(tmp_path):
    from test_cli import output_bytes, run

    outputs = []
    for label, threads in (("a", 1), ("b", 3)):
        d = tmp_path / label
        d.mkdir()
        assert run("generate", "--shape", "circles", "--n", 90, "--seed", 21,
                   "-o", d / "data.csv") == 0
        assert run("cluster", "--input", d / "data.csv", "--kernel", "rbf:sigma=0.15",
                   "--clusters", 2, "--sample-size", 70, "--seed", 4,
                   "--threads", threads, "-o", d / "labels.json",
                   "--tree", d / "tree.json") == 0
        assert run("kmeans", "--input", d / "data.csv", "--k", 2, "--seed", 4,
                   "-o", d / "kmeans.json") == 0
        assert run("normalize", "--input", d / "data.csv", "-o", d / "norm.csv") == 0
        outputs.append(output_bytes(d))
    report(12, "seeded CLI runs byte-identical across thread counts",
           outputs[0] == outputs[1])
