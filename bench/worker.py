"""Warm job runner: one process that runs `treelets` CLI jobs sent over a pipe.

run.py starts this script with the repository's `src/` on PYTHONPATH and
BLAS pinned to one thread, so a job's time excludes interpreter start-up
and imports.  Requests and replies are one JSON object per line:

    {"cmd": "job", "argv": [...], "job": "c1"} -> {"rc", "wall_s", "stdout", "maxrss_kb"}
    {"cmd": "ref"}                              -> {"ref_s"}
    {"cmd": "spans"}                            -> {"spans": [...]}

"ref" times `reference_loop`, a fixed piece of work; run.py asks for it
around timed jobs to scale them by how fast the host ran just then.

With `--trace`, public functions of each module are wrapped, as the jobs
call them, in spans kept in memory: [name, start, end, parent, job, counts].
The program itself is not edited; only names are rebound in this process.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import pathlib
import resource
import sys
import time
import traceback

import numpy as np

_REF_SMALL = np.linspace(0.0, 1.0, 1024)
_REF_LARGE = np.linspace(0.0, 1.0, 200_000)  # 1.6 MB, past the L2 cache


def reference_loop() -> float:
    """Seconds taken by fixed work in the three styles the jobs spend time in.

    Interpreted Python (the ROC sweep, CSV parsing), small numpy operations
    inside a Python loop (pair scoring, kNN votes) and passes over an array
    larger than the L2 cache (Gram rows), about 50 ms each on a 2-CPU box.
    A host that runs the jobs slower at some moment runs this slower by
    about as much.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(510_000):
        acc += i * i % 7
    for i in range(4800):
        v = np.abs(_REF_SMALL - (i % 97) * 0.01)
        acc += float(np.argmax(v / np.sqrt(v + 1.0)))
    for i in range(27):
        acc += float(np.sqrt(_REF_LARGE + i).sum())
    return time.perf_counter() - start


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    """Span recorder; each span remembers the span that was open when it began."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.job = None

    def wrap(self, owner, attr: str, name: str, count=None, static: bool = False) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.job, {}]
            self.spans.append(span)
            self._open.append(index)
            rss = maxrss_kb()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            span[5]["rss_growth_kb"] = maxrss_kb() - rss
            if count is not None:
                span[5].update(count(args, kwargs, result))
            return result

        setattr(owner, attr, staticmethod(traced) if static else traced)

    def install(self) -> None:
        """Wrap the public functions the `cluster` and `roc` jobs call."""
        from treelets import cli, extend, hierarchy, metrics
        from treelets import io as tio

        self.wrap(extend, "sample_indices", "extend.sample_indices")
        self.wrap(extend, "gram", "kernels.gram",
                  lambda a, k, r: {"evals": r.p * (r.p + 1) // 2})
        self.wrap(extend, "decompose", "core.decompose",
                  lambda a, k, r: {"steps": len(r.records)})
        self.wrap(extend, "merge_tree", "hierarchy.merge_tree")
        self.wrap(extend, "cut", "hierarchy.cut")
        self.wrap(extend, "knn_extend", "extend.knn_extend",
                  lambda a, k, r: {"queries": len(a[4]), "kernel_evals": len(a[4]) * len(a[2])})
        self.wrap(cli, "fit_predict", "extend.fit_predict")
        self.wrap(tio, "read_edge_list", "io.read_edge_list", _file_bytes)
        self.wrap(tio, "read_csv_numeric", "io.read_csv_numeric", _file_bytes)
        self.wrap(tio, "read_class_labels", "io.read_class_labels", _file_bytes)
        self.wrap(tio, "write_labels_json", "io.write_labels_json")
        self.wrap(tio, "write_roc_csv", "io.write_roc_csv")
        # the CLI writes the tree and the manifests with Path.write_text
        self.wrap(pathlib.Path, "write_text", "io.write_text")
        self.wrap(hierarchy.Dendrogram, "to_json", "hierarchy.to_json")
        self.wrap(hierarchy.Dendrogram, "from_json", "hierarchy.from_json", static=True)
        self.wrap(metrics, "roc_from_hierarchy", "metrics.roc_from_hierarchy",
                  lambda a, k, r: {"points": len(r.points)})
        self.wrap(metrics, "auc", "metrics.auc")


def main() -> int:
    from treelets import cli

    tracer = None
    entry = cli.main
    if "--trace" in sys.argv[1:]:
        tracer = Tracer()
        tracer.install()
        tracer.wrap(cli, "main", "cli.job")
        entry = cli.main

    replies = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "job":
            argv = request["argv"]
            if tracer is not None:
                tracer.job = request["job"]
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    rc = entry(argv)
            except Exception:  # a crash is a failed job, not a dead worker
                traceback.print_exc()
                rc = -1
            wall = time.perf_counter() - start
            reply = {"rc": rc, "wall_s": wall, "stdout": captured.getvalue(),
                     "maxrss_kb": maxrss_kb()}
        elif request["cmd"] == "ref":
            reply = {"ref_s": reference_loop()}
        elif request["cmd"] == "spans":
            reply = {"spans": tracer.spans if tracer is not None else []}
        else:
            reply = {"error": f"unknown command {request['cmd']!r}"}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
