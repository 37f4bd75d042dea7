"""Self-test of the benchmark at a tiny input size.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is reported with its unit, in
both modes and on every workload; that self time subtracts child spans;
that a corrupted output file counts as a failed job; and that run.py exits
non-zero, printing no result, when the program's sources are absent.
Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

failures: list = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_metrics_and_units() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in (w["name"] for w in spec["workloads"]):
            lines = run.format_report(run.measure(workload, 1, 0.5, trace, tiny=True))
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} {group}: every metric with its unit")
            printed = all(any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                              for line in lines) for name, unit in want.items())
            check(printed, f"{workload} {group}: every metric printed by name and unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                  f"{workload} {group}: all jobs pass")


def check_self_time() -> None:
    spans = [["root", 0.0, 10.0, -1, "c0", {}], ["child", 1.0, 4.0, 0, "c0", {}],
             ["grandchild", 2.0, 3.0, 1, "c0", {}], ["sibling", 5.0, 6.0, 0, "c0", {}]]
    check(run.self_times(spans) == [6.0, 2.0, 1.0, 1.0], "self time subtracts direct children")


class CorruptingWorker(run.Worker):
    """Flips one byte of the labels file written by the second cluster job."""

    def run_job(self, argv, job):
        reply = super().run_job(argv, job)
        if job == "c1":
            path = Path(argv[argv.index("-o") + 1])
            data = bytearray(path.read_bytes())
            data[-2] ^= 1
            path.write_bytes(bytes(data))
        return reply


def check_corruption_counts() -> None:
    honest = run.Worker
    run.Worker = CorruptingWorker
    try:
        report = run.measure("rbf-extend", 1, 3.0, False, tiny=True)  # several pairs
    finally:
        run.Worker = honest
    result = json.loads(run.format_report(report)[-1])
    check(result["failed"] == 1 and not result["correct"],
          f"a corrupted labels file is one failed job ({result['failed']} of "
          f"{result['attempted']})")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "graph-ego", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=180)
    shutil.rmtree(bare)
    check(out.returncode != 0 and '"correct"' not in out.stdout,
          f"without src/ the run exits {out.returncode} and prints no result")


def main() -> int:
    check_self_time()
    check_metrics_and_units()
    check_corruption_counts()
    check_refuses_without_sources()
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
