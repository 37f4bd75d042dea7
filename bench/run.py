"""Benchmark of the `treelets cluster` and `treelets roc` batch jobs.

    python3 bench/run.py --workload graph-ego --seed 0 --seconds 25 --trace 0

Closed loop, one client: a warm worker process runs one `cluster` job and
then `roc` jobs on its tree (untraced: at least five and for at least half
a second; traced: one), one job at a time with `--threads 1` and BLAS
pinned to one thread, and repeats until `--seconds` have passed (at least
once).  Every job's output files are
hashed and checked: at the default seed against the digests pinned in
bench/pinned.json, at any other seed against the first repetition.

Times are scaled to a nominal host speed: the worker times a fixed
reference loop (worker.reference_loop) before and after each cluster job
and each group of roc jobs, and each job's wall time is multiplied by
REF_NOMINAL_S over the mean of those two loop times (set-up likewise, with
loops timed in this process).  On a shared host whose speed
drifts by tens of percent within minutes this keeps the figures comparable
across runs; the raw wall and loop times are in the report.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs a second,
traced worker next to an untraced one and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# before numpy is imported here or in a worker
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# roc jobs are short, so an untraced run times a batch of them per cluster
# job: at least ROC_REPEATS, and more until the batch has run ROC_BATCH_S
ROC_REPEATS = 5
ROC_BATCH_S = 0.5
DEADLINE_S = 150  # a run must end within 180 s, closing hung workers included
# reference-loop time at which scaled seconds equal wall seconds; about its
# median on the 2-CPU box the benchmark was tuned on
REF_NOMINAL_S = 0.15

# span name -> per-layer time metric its self time adds to
LAYER_OF_SPAN = {
    "cli.job": "cli.self_s",
    "core.decompose": "core.decompose_s",
    "kernels.gram": "kernels.gram_s",
    "extend.knn_extend": "extend.knn_s",
    # the stage code of fit_predict around its calls (labels assembly, the
    # extension branch), so the stage reads ~0, not absent, when skipped
    "extend.fit_predict": "extend.knn_s",
    "extend.sample_indices": "extend.sample_s",
    "io.read_edge_list": "io.load_s",
    "io.read_csv_numeric": "io.load_s",
    "io.read_class_labels": "io.load_s",
    "io.write_labels_json": "io.write_s",
    "io.write_roc_csv": "io.write_s",
    "io.write_text": "io.write_s",
    "hierarchy.merge_tree": "hierarchy.merge_tree_s",
    "hierarchy.cut": "hierarchy.cut_s",
    "hierarchy.to_json": "hierarchy.tree_json_s",
    "hierarchy.from_json": "hierarchy.tree_json_s",
    "metrics.roc_from_hierarchy": "metrics.roc_s",
    "metrics.auc": "metrics.roc_s",
}
# per-layer count metric -> the span counter it sums
COUNT_METRICS = {"core.steps": "steps", "kernels.gram_evals": "evals",
                 "extend.queries": "queries", "extend.kernel_evals": "kernel_evals",
                 "metrics.roc_points": "points"}
COUNTS = (*COUNT_METRICS.values(), "bytes")

PER_LAYER_UNITS = {
    "core.decompose_s": "s", "core.steps_per_s": "1/s", "core.steps": "count",
    "core.rss_mb": "MB",
    "kernels.gram_s": "s", "kernels.gram_evals_per_s": "1/s", "kernels.gram_evals": "count",
    "kernels.gram_rss_mb": "MB",
    "extend.knn_s": "s", "extend.queries_per_s": "1/s", "extend.queries": "count",
    "extend.kernel_evals": "count", "extend.sample_s": "s",
    "io.load_s": "s", "io.load_mb_per_s": "MB/s", "io.write_s": "s",
    "cli.self_s": "s",
    "hierarchy.merge_tree_s": "s", "hierarchy.cut_s": "s", "hierarchy.tree_json_s": "s",
    "metrics.roc_s": "s", "metrics.roc_points": "count",
    "trace.overhead_frac": "1",
}


class Worker:
    """A warm `treelets` process that runs CLI jobs sent over a pipe."""

    def __init__(self, trace: bool = False):
        env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        self.refs: list = []

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def reference(self) -> None:
        """Time the worker's reference loop once, into `refs`."""
        self.refs.append(self.request({"cmd": "ref"})["ref_s"])

    def run_job(self, argv: list, job: str) -> dict:
        return self.request({"cmd": "job", "argv": [str(a) for a in argv], "job": job})

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def nominal_scale(ref_before: float, ref_after: float) -> float:
    return 2 * REF_NOMINAL_S / (ref_before + ref_after)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def parse_auc(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("AUC "):
            return line[4:].strip()
    return None


class Checker:
    """Counts jobs and failures against the expected output bytes and AUC.

    Expected values are the pinned ones when given, else those of the
    first job of each kind.
    """

    def __init__(self, pinned: dict | None):
        self.expected = dict(pinned or {})
        self.attempted = 0
        self.failed = 0

    def _match(self, observed: dict) -> bool:
        ok = True
        for key, value in observed.items():
            ok &= self.expected.setdefault(key, value) == value
        return ok

    def cluster(self, reply: dict, outputs: dict) -> None:
        self.attempted += 1
        ok = reply["rc"] == 0 and self._match(
            {"labels": sha256(outputs["labels"]), "tree": sha256(outputs["tree"])})
        self.failed += not ok

    def roc(self, reply: dict, outputs: dict) -> None:
        self.attempted += 1
        auc = parse_auc(reply["stdout"]) if reply["rc"] == 0 else None
        ok = auc is not None and self._match({"roc": sha256(outputs["roc"]), "auc": auc})
        self.failed += not ok


def set_up(make, workdir: Path, seed: int, tiny: bool, trace: bool = False):
    """Write the inputs, start a worker and warm it on a tiny input of the same kind."""
    start = time.perf_counter()
    inputs = make(workdir, seed, tiny=tiny)
    worker = Worker(trace)
    try:
        warm_dir = workdir / "warm"
        warm_dir.mkdir(exist_ok=True)
        warm = make(warm_dir, seed, tiny=True)
        for kind, argv in (("cluster", warm.cluster_argv), ("roc", warm.roc_argv)):
            if worker.run_job(argv, f"warm-{kind}")["rc"] != 0:
                raise RuntimeError(f"warm-up {kind} job failed")
    except BaseException:
        worker.close()
        raise
    return inputs, worker, time.perf_counter() - start


def input_digest(inputs) -> str:
    outputs = {str(p) for p in inputs.outputs.values()}
    paths = sorted({a for a in inputs.cluster_argv + inputs.roc_argv
                    if a not in outputs and Path(a).is_file()})
    return hashlib.sha256(b"".join(Path(p).read_bytes() for p in paths)).hexdigest()


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list, scales: dict) -> dict:
    """Per-layer metrics, each the median over pairs (one cluster + one roc job).

    `scales` maps a job id ("c0", "r0", ...) to its host-speed scale.
    """
    pairs = sorted({int(job[1:]) for job in scales})
    per_pair = {i: dict.fromkeys(list(LAYER_OF_SPAN.values()) + list(COUNTS) + ["knn_only_s"],
                                 0.0) for i in pairs}
    first_rss = {}
    for span, own in zip(spans, self_times(spans)):
        name, _, _, _, job, counts = span
        if job not in scales:  # warm-up
            continue
        own *= scales[job]
        acc = per_pair[int(job[1:])]
        acc[LAYER_OF_SPAN[name]] += own
        for key in COUNTS:
            acc[key] += counts.get(key, 0)
        if name == "extend.knn_extend":
            acc["knn_only_s"] += own
        if job == "c0" and name in ("kernels.gram", "core.decompose"):
            first_rss[name] = counts["rss_growth_kb"] / 1024.0

    def med(fn):
        return statistics.median(fn(acc) for acc in per_pair.values())

    def rate(count, seconds):
        return med(lambda acc: acc[count] / acc[seconds] if acc[seconds] > 0 else 0.0)

    out = {name: med(lambda acc, n=name: acc[n]) for name in set(LAYER_OF_SPAN.values())}
    out.update({name: med(lambda acc, k=key: acc[k]) for name, key in COUNT_METRICS.items()})
    out.update({
        "core.steps_per_s": rate("steps", "core.decompose_s"),
        "core.rss_mb": first_rss.get("core.decompose", 0.0),
        "kernels.gram_evals_per_s": rate("evals", "kernels.gram_s"),
        "kernels.gram_rss_mb": first_rss.get("kernels.gram", 0.0),
        "extend.queries_per_s": rate("queries", "knn_only_s"),
        "io.load_mb_per_s": rate("bytes", "io.load_s") / 1e6,
    })
    return out


def environment(inputs) -> dict:
    try:
        sha = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None  # a checkout without git
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "ref_nominal_s": REF_NOMINAL_S,
        "input_size": inputs.size,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run the job loop and return the report: metrics, job times, environment."""
    from worker import reference_loop
    from workloads import WORKLOADS

    make = WORKLOADS[workload]
    workdir = WORK / (workload + ("-tiny" if tiny else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pinned = None
    if seed == DEFAULT_SEED and not tiny:
        pinned = json.loads((HERE / "pinned.json").read_text())[workload]
    checker = Checker(pinned)
    jobs = []  # (id, reply) of every timed job
    workers = []
    try:
        setups, refs, digests = [], [reference_loop()], set()
        for _ in range(1 if trace else SETUP_REPEATS):
            inputs, plain, elapsed = set_up(make, workdir, seed, tiny)
            refs.append(reference_loop())
            setups.append(elapsed)
            for stale in workers:
                stale.close()
            workers = [plain]
            digests.add(input_digest(inputs))
        setup_scaled = [t * nominal_scale(a, b) for t, a, b in zip(setups, refs, refs[1:])]
        traced = None
        if trace:
            traced = set_up(make, workdir, seed, tiny, trace=True)[1]
            workers.append(traced)
        for worker in workers:
            worker.reference()

        def batch(worker, kind, job_ids):
            """Run jobs back to back between two reference loops; scale each
            by the mean of the two.  `job_ids` may be a generator that stops
            on elapsed time."""
            replies = []
            for job in job_ids:
                reply = worker.run_job(getattr(inputs, kind + "_argv"), job)
                getattr(checker, kind)(reply, inputs.outputs)
                replies.append((job, reply))
            worker.reference()
            scale = nominal_scale(worker.refs[-2], worker.refs[-1])
            for job, reply in replies:
                reply["scale"] = scale
                jobs.append((job, reply))

        def roc_ids(i):
            begin, k = time.perf_counter(), 0
            while k < ROC_REPEATS or time.perf_counter() - begin < ROC_BATCH_S:
                yield f"r{i}.{k}"
                k += 1

        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            if traced is None:
                batch(plain, "cluster", [f"c{i}"])
                batch(plain, "roc", roc_ids(i))
            else:
                # alternate which worker goes first so drift hits both alike
                for w in ((traced, plain) if i % 2 == 0 else (plain, traced)):
                    if w is traced:
                        batch(traced, "cluster", [f"c{i}"])
                        batch(traced, "roc", [f"r{i}"])
                    else:
                        batch(plain, "cluster", [f"u{i}"])
            i += 1

        def scaled(prefix):
            return [r["wall_s"] * r["scale"] for job, r in jobs if job[0] == prefix]

        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "pairs": i, "setup_wall_s": setups, "setup_scaled_s": setup_scaled,
            "jobs": {job: {k: r[k] for k in ("rc", "wall_s", "scale", "maxrss_kb")}
                     for job, r in jobs},
            "ref_s": {"setup": refs, **{f"worker{k}": w.refs for k, w in enumerate(workers)}},
            "inputs_identical": len(digests) == 1,
            "outputs": checker.expected,  # digests and AUC every job matched
            "attempted": checker.attempted, "failed": checker.failed,
            "environment": environment(inputs),
        }
        if trace:
            spans = traced.request({"cmd": "spans"})["spans"]
            (workdir / "spans.json").write_text(json.dumps(spans) + "\n")
            layers = layer_metrics(spans, {job: r["scale"] for job, r in jobs if job[0] in "cr"})
            untraced = statistics.median(scaled("u"))
            layers["trace.overhead_frac"] = (statistics.median(scaled("c")) - untraced) / untraced
            report["metrics"] = {k: (layers[k], u) for k, u in PER_LAYER_UNITS.items()}
        else:
            report["metrics"] = {
                "cluster_s": (statistics.median(scaled("c")), "s"),
                "roc_s": (statistics.median(scaled("r")), "s"),
                "peak_rss_mb": (jobs[0][1]["maxrss_kb"] / 1024.0, "MB"),
                "setup_s": (statistics.median(setup_scaled), "s"),
            }
        return report
    finally:
        for worker in workers:
            worker.close()


def format_report(report: dict) -> list:
    """Human-readable lines, then the result object as the last line."""
    lines = ["env " + json.dumps(report["environment"], sort_keys=True)]
    for name, (value, unit) in report["metrics"].items():
        lines.append(f"{name} {value!r} {unit}")
    attempted, failed = report["attempted"], report["failed"]
    scales = [j["scale"] for j in report["jobs"].values()]
    lines.append(f"failed_frac {failed / attempted!r} 1 ({failed} of {attempted} jobs)")
    if "auc" in report["outputs"]:
        lines.append(f"auc {report['outputs']['auc']} 1")
    lines.append(f"host speed scale {statistics.median(scales):.3f} (wall times and "
                 "reference-loop times in report.json)")
    result = {
        "correct": failed == 0 and report["inputs_identical"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }
    lines.append(json.dumps(result))
    return lines


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treelets" / "__init__.py").is_file():
        print(f"error: no treelets package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
    (WORK / args.workload / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print("\n".join(format_report(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
