"""Every CI step after the install, in order, with one `ok` or `FAIL` line per check:  python tools/ci_gates.py

The suite and the demos under -X dev, tools/mutants.py and bench/selftest.py; then, on bench/run.py's
outputs in .bench_work, the pinned digests, outputs independent of the Gram's row block height and of
BLAS's thread count, a quoted CRLF copy of the missing-mpe CSV, the decomposition and extension counters,
the traced counts and the seed-1 repetitions.  Exits 1 at the first failure, with its message.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
WORKLOADS = ("graph-ego", "rbf-extend", "missing-mpe")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import workloads  # noqa: E402  (bench/workloads.py)

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# treelets' main, after setting the Gram's row block budget when argv[1] is not 0
TREELETS = ("import sys, treelets.kernels as k; k._BLOCK_ELEMENTS = int(sys.argv[1]) or k._BLOCK_ELEMENTS; "
            "from treelets.cli import main; sys.exit(main(sys.argv[2:]))")
# seed 0: the digests would also pass if a speed change took another search path to the same outputs, or no row
# went lazy, or the block never moved; or if the extension computed every kernel value, or every window kept every
# sample column (full_rows and squared_distances are the selection's before its candidates were cut at one bound)
DECOMPOSITION = {
    "graph-ego": {"steps": 699, "lazy_rescans": 285, "rows_made_lazy": 11132, "compactions": 4},
    "rbf-extend": {"steps": 999, "lazy_rescans": 895, "rows_made_lazy": 1019, "compactions": 4},
    "missing-mpe": {"steps": 1072, "lazy_rescans": 421, "rows_made_lazy": 2390, "compactions": 5},
}
EXTENSION = {"queries": 11000, "kernel_values": 63025, "full_rows": 0, "squared_distances": 2928770}
# the tracer wraps the public knn_extend, reads gram's result's p and counts decompose's records
TRACED = {"extend.queries": 11000, "kernels.gram_evals": 500500, "core.steps": 999}


def check(name: str, failure) -> None:
    """Print the check's line; exit 1 with the failure's message unless it is falsy."""
    print(f"{'FAIL' if failure else 'ok  '} {name}", flush=True)
    if failure:
        sys.exit(failure)


def python(*args, env=ENV, **how) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env, text=True, **how)


def command(name: str, *args) -> None:
    code = python(*args).returncode
    check(name, code and f"{name}: exit status {code}")


def bench(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """The result line of a bench/run.py run, whose output is echoed."""
    args = ("bench/run.py", "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace)
    proc = python(*args, stdout=subprocess.PIPE)
    print(proc.stdout, end="", flush=True)
    if proc.returncode:
        check(" ".join(map(str, args)), f"{workload}: bench/run.py exit status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def rerun(argv: list, dst: Path, budget: int = 0, threads: str | None = None) -> str | None:
    """Rerun a recorded treelets command with its -o and --tree files moved to dst (so roc reads the moved tree), at a
    Gram row block budget or BLAS thread count if given: a failure, the first moved file whose bytes differ, or None."""
    dst.mkdir(parents=True, exist_ok=True)
    moved = {arg: str(dst / Path(arg).name) for flag, arg in zip([""] + argv, argv) if flag in ("-o", "--tree")}
    env = ENV if threads is None else {**ENV, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    if python("-c", TREELETS, budget, *(moved.get(a, a) for a in argv), env=env).returncode:
        return f"{argv[0]} failed"
    return next((f"{Path(new).name} differs" for old, new in moved.items()
                 if Path(old).read_bytes() != Path(new).read_bytes()), None)


def manifest(workload: str, key: str, output: str = "labels.json"):
    """A section of the manifest written next to one of the workload's outputs in .bench_work."""
    return json.loads((WORK / workload / f"{output}.manifest.json").read_text())[key]


def main() -> None:
    command("the suite", "-X", "dev", "-m", "pytest", "-q")
    for demo in sorted(ROOT.glob("demos/*.py")):  # multiscale_basis.py alone runs the basis and compression
        command(f"demo {demo.name}", "-X", "dev", "-W", "error::RuntimeWarning", demo)
    command("every mutant in tools/mutants.py fails its named tests", "tools/mutants.py")
    command("bench/selftest.py", "bench/selftest.py")
    for w in WORKLOADS:
        check(f"{w}: digests", bench(w, 0, 1)["correct"] is not True and f"{w}: outputs differ from the pinned digests")
    for w in WORKLOADS:  # a block computes the cells above the diagonal in its square: mirrors' bits
        for budget in (1, 2**40):
            differs = rerun(manifest(w, "command")[1:], WORK / f"{w}-block-{budget}", budget=budget)
            check(f"{w}: block budget {budget}", differs and f"{w} at block budget {budget}: {differs}")
    for w in ("missing-mpe", "rbf-extend"):  # BLAS computes the distance kernels' attribute differences
        (work := WORK / "blas-threads" / w).mkdir(parents=True, exist_ok=True)
        argv = workloads.WORKLOADS[w](work, 0).cluster_argv  # run in place at one thread, then moved at two
        differs = rerun(argv, work, threads="1") or rerun(argv, work / "threads-2", threads="2")
        check(f"{w}: BLAS at one and two threads", differs and f"{w}: {differs} between BLAS at one thread and at two")
    src, dst = WORK / "missing-mpe", WORK / "missing-mpe-quoted"
    dst.mkdir(exist_ok=True)
    with open(src / "proteins.csv", newline="") as fin, open(dst / "proteins.csv", "w", newline="") as fout:
        csv.writer(fout, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(fin))
    swap = {str(src / "proteins.csv"): str(dst / "proteins.csv")}
    cluster, roc = ([swap.get(a, a) for a in manifest(src.name, "command", f)[1:]] for f in ("labels.json", "roc.csv"))
    differs = rerun(cluster, dst) or rerun(roc, dst)
    check("missing-mpe: quoted CRLF copy of its CSV", differs and f"missing-mpe quoted copy: {differs}")
    for w, counts in DECOMPOSITION.items():
        got = {key: manifest(w, "decomposition")[key] for key in counts}
        check(f"{w}: decomposition counters", got != counts and f"{w}: decomposition counters {got}, not {counts}")
    got = manifest("rbf-extend", "extension")
    check("rbf-extend: extension work", got != EXTENSION and f"rbf-extend: extension work {got}, not {EXTENSION}")
    got = {name: m["value"] for name, m in bench("rbf-extend", 0, 1, trace=1)["metrics"].items() if name in TRACED}
    check("rbf-extend: traced counts", got != TRACED and f"rbf-extend traced: {got}, not {TRACED}")
    for w in ("rbf-extend", "missing-mpe", "graph-ego"):
        check(f"{w}: seed-1 repetitions", bench(w, 1, 3)["correct"] is not True and f"{w} seed 1: repetitions differ")


if __name__ == "__main__":
    main()
