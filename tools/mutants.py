"""Hand-written mutants of the package, each of which its named test files must kill.

Run from the repository root:  python tools/mutants.py

For each mutant, src/, tests/ and pyproject.toml are copied to a temporary
directory (so the CLI tests' subprocesses import the mutated copy, and the
suite's warning filters hold), the source fragment, which must occur exactly
once in its file, is replaced, and pytest runs the named test files.  A
mutant is killed when they fail.  A survivor, or a fragment not found
exactly once, fails the script.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    fragment: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "public decompose rotates its caller's array",
        "src/treelets/core.py",
        "return _decompose(np.where(np.tri(len(a), dtype=bool), a, a.T), lam, stop_tol)",
        "return _decompose(a, lam, stop_tol)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "decompose keeps the upper triangle",
        "src/treelets/core.py",
        "np.where(np.tri(len(a), dtype=bool), a, a.T)",
        "np.where(np.tri(len(a), dtype=bool), a.T, a)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "the survivor's row is not written to its column",
        "src/treelets/core.py",
        "        g[beta] = g[:, beta] = vals\n",
        "        g[beta] = vals\n",
        ("tests/test_core.py",),
    ),
    Mutant(
        "the survivor takes the retired index's combination",
        "src/treelets/core.py",
        "vals = _rotated_row(g, i_sel, j_sel, coeffs, beta)",
        "vals = _rotated_row(g, i_sel, j_sel, coeffs, alpha)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "compaction remaps a lazy row's partner -1 to position 0",
        "src/treelets/core.py",
        "best_j = np.where(best_j < 0, -1, np.searchsorted(keep, best_j))",
        "best_j = np.searchsorted(keep, best_j)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "the survivor does not take a row it ties before that row's partner",
        "src/treelets/core.py",
        "take = (fresh > best_score) | ((fresh == best_score) & (beta < best_j))",
        "take = fresh > best_score",
        ("tests/test_core.py",),
    ),
    Mutant(
        "the first scan masks each chunk's diagonal from column 0, not from its first row",
        "src/treelets/core.py",
        "np.fill_diagonal(chunk[:, r:], -np.inf)",
        "np.fill_diagonal(chunk, -np.inf)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "a row is scored without the retired mask",
        "src/treelets/core.py",
        "        np.putmask(row, retired, -np.inf)",
        "        pass",
        ("tests/test_core.py",),
    ),
    Mutant(
        "a row is scored without masking its own column",
        "src/treelets/core.py",
        "        row[i] = -np.inf\n",
        "",
        ("tests/test_core.py",),
    ),
    Mutant(
        "a lazy row on top is rescanned once, not until an exact row is on top",
        "src/treelets/core.py",
        "while best_j[i_star] < 0:",
        "if best_j[i_star] < 0:",
        ("tests/test_core.py",),
    ),
    Mutant(
        "equal diagonals retire the larger index",
        "src/treelets/core.py",
        "alpha, beta = i_sel, j_sel  # equal diagonals",
        "alpha, beta = j_sel, i_sel  # equal diagonals",
        ("tests/test_core.py",),
    ),
    Mutant(
        "records name storage positions, not sample indices",
        "src/treelets/core.py",
        "alpha=int(ids[alpha]),",
        "alpha=int(alpha),",
        ("tests/test_core.py",),
    ),
    Mutant(
        "a compaction does not save the retired diagonals",
        "src/treelets/core.py",
        "            final_diag[ids] = diag\n            old = g\n",
        "            old = g\n",
        ("tests/test_core.py",),
    ),
    Mutant(
        "the entry bound is sqrt(float max) / p, where a rotation can overflow",
        "src/treelets/core.py",
        "bound = np.sqrt(np.finfo(float).max) / (2 * p)",
        "bound = np.sqrt(np.finfo(float).max) / p",
        ("tests/test_core.py",),
    ),
    Mutant(
        "a tiny diagonal product scores its correlation term",
        "src/treelets/core.py",
        "        np.putmask(corr, tiny, 0.0)",
        "        pass",
        ("tests/test_core.py",),
    ),
    Mutant(
        "fit_predict decomposes a copy of its Gram",
        "src/treelets/extend.py",
        "decompose(a0.data,",
        "decompose(a0.data.copy(),",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "the RBF screen's guard proves every row",
        "src/treelets/extend.py",
        "return edge, _distance(hi) > _distance(lo)",
        "return edge, np.full(len(kth_sq), True)",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "the RBF screen's guard bounds the values without the allowance for exp's rounding",
        "src/treelets/extend.py",
        "* [[1.0 + _EXP_ALLOWANCE], [1.0 - _EXP_ALLOWANCE]]",
        "* [[1.0], [1.0]]",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "the RBF candidates are cut at the bound, not at its margin edge",
        "src/treelets/extend.py",
        "np.flatnonzero(sq <= edge[:, None])",
        "np.flatnonzero(sq <= bound[:, None])",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "the RBF selection takes the queries without checking that their rows are finite",
        "src/treelets/extend.py",
        "        and np.isfinite(data.values[queries]).all()\n",
        "",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "the RBF window drops a sample whose column-0 term equals its reach",
        "src/treelets/extend.py",
        "keep = ~(term > reach)",
        "keep = ~(term >= reach)",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "the RBF window reaches as far as the block's nearest row, not its farthest",
        "src/treelets/extend.py",
        "reach = np.max(",
        "reach = np.min(",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "a block whose pilot bound the guard does not prove goes straight to the general branch",
        "src/treelets/extend.py",
        "        if not proven.all():\n            return None, sq, None, counted\n",
        "        if counted > sq.size or not proven.all():\n            return None, sq, None, counted\n",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "the RBF window's columns stay in column-0 order, not ascending sample position",
        "src/treelets/extend.py",
        "np.sort(by_col0[keep])",
        "by_col0[keep]",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "the RBF window is made for a block whose row the guard does not prove at the pilot's bound",
        "src/treelets/extend.py",
        "        if proven.all():\n            qa, qb",
        "        if True:\n            qa, qb",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "knn_extend takes a negative sample or query id, which wraps to the last row",
        "src/treelets/kernels.py",
        "outside = (ids < 0) | (ids >= n)",
        "outside = ids >= n",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "knn_extend truncates a float sample or query id",
        "src/treelets/kernels.py",
        'if ids.size and ids.dtype.kind not in "iu":',
        "if False:",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "Graph truncates a float edge endpoint",
        "src/treelets/kernels.py",
        'if pairs.size and pairs.dtype.kind not in "iu":',
        "if False:",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "a tree file with a negative n_leaves parses",
        "src/treelets/hierarchy.py",
        "type(n_leaves) is not int or n_leaves < 0 or",
        "type(n_leaves) is not int or",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "the general branch's distance drops K(x,x)+K(y,y)",
        "src/treelets/extend.py",
        "d = _distance(k, self_block[:, None] + self_sample)",
        "d = _distance(k)",
        ("tests/test_extend.py",),
    ),
    Mutant(
        "gram mirrors a row block by arithmetic, turning -0.0 into +0.0",
        "src/treelets/kernels.py",
        "g[:s, s:e] = block[:, :s].T",
        "g[:s, s:e] = block[:, :s].T + 0.0",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "sample_without_replacement takes a negative count, and returns all but its last items",
        "src/treelets/rng.py",
        "if not 0 <= k <= n:",
        "if k > n:",
        ("tests/test_rng.py",),
    ),
    Mutant(
        "kmeans takes max_iters 0, and returns no labels",
        "src/treelets/baseline.py",
        "if max_iters < 1:",
        "if max_iters < 0:",
        ("tests/test_baseline.py",),
    ),
    Mutant(
        "a blank CSV line is read as one empty cell",
        "src/treelets/io.py",
        'return item.split(",") if item else []',
        'return item.split(",")',
        ("tests/test_io.py",),
    ),
    Mutant(
        "_squared_distances warns where a difference or square overflows",
        "src/treelets/kernels.py",
        '        with np.errstate(over="ignore"):\n            return self._sum(',
        "        if True:\n            return self._sum(",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "a gap column whose right factor keeps its value",
        "src/treelets/kernels.py",
        "            np.copyto(self.factors[:, 0], 0.0, where=right_gap.T)\n",
        "            pass\n",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "a gap column's presence row stays 1",
        "src/treelets/kernels.py",
        "self.factors[:, 1] = 1.0 if right_gap is None else ~right_gap.T",
        "self.factors[:, 1] = 1.0",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "a gap row whose left factor keeps its 1",
        "src/treelets/kernels.py",
        "            a[..., 0] = ~left_gap.T\n",
        "            a[..., 0] = 1.0\n",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "the eight partial sums are combined in sequence, not pairwise",
        "src/treelets/kernels.py",
        "        r[::2] += r[1::2]\n        r[::4] += r[2::4]\n        np.add(r[0], r[4], out=out)\n",
        "        np.copyto(out, r[0])\n        for t in r[1:]:\n            out += t\n",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "decompose warns where an asymmetric input's skew overflows",
        "src/treelets/core.py",
        'with np.errstate(over="ignore"):  # a skew that overflows',
        "if True:  # a skew that overflows",
        ("tests/test_symmat.py",),
    ),
    Mutant(
        "check_spsd warns where an absolute row sum overflows",
        "src/treelets/kernels.py",
        'with np.errstate(over="ignore"):  # a row sum that overflows',
        "if True:  # a row sum that overflows",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "GraphKernel takes an infinite diag",
        "src/treelets/kernels.py",
        "if not 0 < self.diag < math.inf:",
        "if not 0 < self.diag:",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "PolynomialKernel takes a non-finite alpha or c0",
        "src/treelets/kernels.py",
        "if not (math.isfinite(self.alpha) and math.isfinite(self.c0)):",
        "if False:",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "the graph ROC's range maximum reads one cell short at its right end",
        "src/treelets/metrics.py",
        "table[starts[j] + hi - (1 << j)]",
        "table[starts[j] + hi - 1 - (1 << j)]",
        ("tests/test_metrics.py",),
    ),
    Mutant(
        "the edge list's byte path takes a pair of ids split across two lines",
        "src/treelets/io.py",
        "((per_line != 0) & (per_line != 2)).any() or ",
        "len(starts) % 2 or ",
        ("tests/test_io.py",),
    ),
    Mutant(
        "a plain CSV block's classes are taken without each line's comma count",
        "src/treelets/io.py",
        'set(map(str.count, lines, itertools.repeat(","))) == {width - 1} and ',
        "",
        ("tests/test_io.py",),
    ),
    Mutant(
        "a plain CSV block's cells are taken by their count alone, not each line's",
        "src/treelets/io.py",
        ' or flat[width :: width + 1].count("\\n") != len(lines) - 1',
        "",
        ("tests/test_io.py",),
    ),
    Mutant(
        "a CSV block holding a quote takes the plain path",
        "src/treelets/io.py",
        """if '"' in text or len(tail) > limit""",
        "if len(tail) > limit",
        ("tests/test_io.py",),
    ),
    Mutant(
        "a block whose pilot bound the guard does not prove keeps the pilot's k-th",
        "src/treelets/extend.py",
        "            below = np.flatnonzero(sq <= bound[:, None])\n            bound = _row_kth(below, sq.ravel()[below], sq.shape, k)\n",
        "            pass\n",
        ("tests/test_extend.py",),
    ),
]


def pytest_failure(work: Path, tests) -> str | None:
    """The first failing test of tests in work, or None when they all pass; an error in pytest itself exits."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    if proc.returncode != 1 or not failed:  # not a test failure: a collection or usage error
        raise SystemExit(f"pytest exited {proc.returncode} on {' '.join(tests)}:\n{proc.stdout}{proc.stderr}")
    return failed[0][len("FAILED ") :].split(" - ")[0]


def copy_tree(work: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work)


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        tests = sorted({t for mutant in MUTANTS for t in mutant.tests})
        failure = pytest_failure(Path(tmp), tests)
        if failure:
            raise SystemExit(f"the unmutated tests fail: {failure}")
    print(f"unmutated: {len(tests)} test files pass in {time.perf_counter() - start:.1f} s")
    survivors = []
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            copy_tree(work)
            path = work / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.fragment) != 1:
                raise SystemExit(f"{mutant.name}: fragment found {text.count(mutant.fragment)} times in {mutant.file}")
            path.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
            failure = pytest_failure(work, mutant.tests)
        print(f"{'killed' if failure else 'SURVIVED':8} {time.perf_counter() - t0:5.1f} s  {mutant.name}")
        if failure:
            print(f"{'':16}by {failure}")
        else:
            survivors.append(mutant.name)
    kills = len(MUTANTS) - len(survivors)
    print(f"{kills} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
