"""Command-line entry point for reproducible clustering runs.

Every output file gets a sibling '<output>.manifest.json' recording the
command, configuration, input digests, tool version, and stage timings, so
any result can be traced back to the run that made it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__, baseline, datagen, io, metrics
from .core import DEFAULT_STOP_TOL, MAX_LAM
from .extend import KtConfig, Timer, fit_predict
from .hierarchy import Dendrogram
from .kernels import (
    Graph,
    GraphKernel,
    LinearKernel,
    MissingRbfKernel,
    PolynomialKernel,
    RbfKernel,
    graph_kernel_for,
    kernel_to_dict,
)

_GRAPH_EXTENSIONS = {".txt", ".edges", ".edgelist"}


class UsageError(Exception):
    """Bad flag combination detectable without touching data values."""


class _GraphDiagAuto:
    """Placeholder for graph:diag=auto; resolved once the graph is loaded."""


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value >= 0:  # not <: a NaN fails
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text}")
    return value


def lambda_arg(text: str) -> float:
    value = nonneg_float(text)
    if value > MAX_LAM:
        raise argparse.ArgumentTypeError(f"lambda {text} is above sqrt(float max) = {MAX_LAM:.6g}, "
                                         "where a pair score could overflow")
    return value


def sample_size_arg(text: str):
    if text == "full":
        return "full"
    return positive_int(text)


def parse_kernel(text: str):
    """Parse the kernel mini-grammar 'name:key=val,key=val'.

    Kinds: rbf:sigma=S | linear | poly:alpha=A,c0=C,r=R |
    missing-rbf:gamma=G | graph:diag=D (D may be 'auto' for max degree).
    """
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise argparse.ArgumentTypeError(f"kernel parameter {item!r} is not key=val")
            params[key.strip()] = value.strip()
    try:
        if name == "rbf":
            spec = RbfKernel(sigma=float(params.pop("sigma")))
        elif name == "linear":
            spec = LinearKernel()
        elif name == "poly":
            spec = PolynomialKernel(
                alpha=float(params.pop("alpha", 1.0)),
                c0=float(params.pop("c0", 0.0)),
                degree=int(params.pop("r")),
            )
        elif name == "missing-rbf":
            spec = MissingRbfKernel(gamma=float(params.pop("gamma")))
        elif name == "graph":
            diag = params.pop("diag", "auto")
            spec = _GraphDiagAuto() if diag == "auto" else GraphKernel(diag=float(diag))
        else:
            raise argparse.ArgumentTypeError(f"unknown kernel {name!r}")
    except KeyError as exc:
        raise argparse.ArgumentTypeError(f"kernel {name!r} is missing parameter {exc}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad kernel parameter: {exc}") from None
    if params:
        raise argparse.ArgumentTypeError(f"unknown kernel parameters {sorted(params)}")
    return spec


def _sha256(path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def _write_manifest(outputs, command, config, inputs, timings, **sections) -> None:
    """Write one manifest text next to each of outputs; the inputs are hashed once."""
    manifest = {
        "command": list(command),
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "timings": {k: round(v, 6) for k, v in timings.items()},
        **sections,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    for output in outputs:
        Path(str(output) + ".manifest.json").write_text(text, encoding="utf-8")


def _read_features(args):
    return io.read_csv_numeric(args.input, has_header=args.has_header,
                               missing_tokens=set(args.missing_token))


def _is_graph_path(path) -> bool:
    return Path(path).suffix.lower() in _GRAPH_EXTENSIONS


def _add_header_flags(sub):
    """--has-header / --no-header / neither set has_header to True / False / None (sniff)."""
    flags = sub.add_mutually_exclusive_group()
    flags.add_argument("--has-header", dest="has_header", action="store_const", const=True,
                       default=None, help="treat the first CSV row as a header")
    flags.add_argument("--no-header", dest="has_header", action="store_const", const=False,
                       help="treat every CSV row as data")


def _add_feature_flags(sub):
    _add_header_flags(sub)
    sub.add_argument(
        "--missing-token",
        action="append",
        default=sorted(io.DEFAULT_MISSING_TOKENS),
        help="extra cell value meaning 'missing' (repeatable)",
    )


def cmd_generate(args, argv) -> int:
    timer = Timer()
    shapes = {
        "circles": lambda: datagen.Circles(factor=args.factor, noise=args.noise),
        "moons": lambda: datagen.Moons(noise=args.noise),
        "blobs": datagen.Blobs,
        "aniso": datagen.Aniso,
        "varied": datagen.Varied,
        "uniform": datagen.Uniform,
    }
    data, labels = datagen.generate(shapes[args.shape](), args.n, args.seed)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,label\n")
        for (x, y), lab in zip(data.values, labels.assignments):
            fh.write(f"{float(x)!r},{float(y)!r},{int(lab)}\n")
    config = {"shape": args.shape, "factor": args.factor, "noise": args.noise, "n": args.n, "seed": args.seed}
    _write_manifest([args.output], argv, config, [], timer.total())
    return 0


def cmd_cluster(args, argv) -> int:
    timer = Timer()
    if _is_graph_path(args.input):
        data = io.read_edge_list(args.input)
        timer.lap("load")
        n = data.n_vertices
        if not isinstance(args.kernel, (GraphKernel, _GraphDiagAuto)):
            raise UsageError("graph input requires the graph kernel")
        if data.n_edges == 0:  # before diag=auto resolves to a max degree of 0
            raise ValueError(f"{args.input}: no edges")
        kernel = graph_kernel_for(data) if isinstance(args.kernel, _GraphDiagAuto) else args.kernel
    else:
        if isinstance(args.kernel, (GraphKernel, _GraphDiagAuto)):
            raise UsageError("graph kernel requires an edge-list input")
        data = _read_features(args)
        timer.lap("load")
        n = data.n
        kernel = args.kernel

    sample_size = n if args.sample_size == "full" else args.sample_size
    config = KtConfig(
        kernel=kernel,
        sample_size=sample_size,
        n_clusters=args.clusters,
        lam=args.lam,
        knn_k=args.knn_k,
        seed=args.seed,
        stop_tol=args.stop_tol,
    )
    result = fit_predict(data, config, threads=args.threads)
    written = Timer()
    io.write_labels_json(args.output, result.labels, args.seed, kernel)
    if args.tree:
        Path(args.tree).write_text(result.tree.to_json() + "\n", encoding="utf-8")
    written.lap("write")

    timings = {**result.timings, **timer.total(), **written.laps}
    manifest_config = {
        "kernel": kernel_to_dict(kernel),
        "clusters": args.clusters,
        "sample_size": sample_size,
        "lambda": args.lam,
        "knn_k": args.knn_k,
        "seed": args.seed,
        "stop_tol": args.stop_tol,
        "threads": args.threads,
    }
    decomp = result.decomposition
    how = {
        "steps": decomp.stop_level,
        "stop": "completed" if decomp.stop_score is None else "stalled",
        "stop_score": decomp.stop_score,
        "rows_made_lazy": decomp.rows_made_lazy,
        "lazy_rescans": decomp.lazy_rescans,
        "compactions": decomp.compactions,
    }
    outputs = [args.output, args.tree] if args.tree else [args.output]
    _write_manifest(outputs, argv, manifest_config, [args.input], timings, decomposition=how,
                    extension=result.extension)
    return 0


def _load_reference(args, path):
    if _is_graph_path(path):
        return io.read_edge_list(path)
    return io.read_class_labels(path, has_header=args.has_header)


def cmd_roc(args, argv) -> int:
    timer = Timer()
    tree = Dendrogram.from_json(Path(args.tree).read_text(encoding="utf-8"))
    timer.lap("tree")
    reference = _load_reference(args, args.reference)
    timer.lap("reference")
    ref_size = reference.n_vertices if isinstance(reference, Graph) else len(reference)
    if ref_size != tree.n_leaves:
        raise ValueError(
            f"tree has {tree.n_leaves} leaves but the reference covers {ref_size} rows; "
            "build the tree with --sample-size full, or restrict the reference "
            "to the sampled rows"
        )
    curve = metrics.roc_from_hierarchy(tree, reference)
    timer.lap("sweep")
    io.write_roc_csv(args.output, curve)
    timer.lap("write")
    print(f"AUC {metrics.auc(curve):.6f}")
    config = {"tree": str(args.tree), "reference": str(args.reference)}
    _write_manifest([args.output], argv, config, [args.tree, args.reference], timer.total(),
                    points=len(curve.points))
    return 0


def cmd_eval(args, argv) -> int:
    pred = io.read_labels_json(args.pred)
    reference = _load_reference(args, args.reference)
    mm = metrics.matching_matrix(pred, reference)
    print(f"TPR {mm.tpr:.6f}")
    print(f"FPR {mm.fpr:.6f}")
    return 0


def cmd_kmeans(args, argv) -> int:
    timer = Timer()
    if _is_graph_path(args.input):
        raise UsageError("kmeans requires a numeric CSV input")
    data = _read_features(args)
    labels = baseline.kmeans(data, args.k, seed=args.seed, max_iters=args.max_iters)
    io.write_labels_json(args.output, labels, args.seed, None)
    config = {"k": args.k, "seed": args.seed, "max_iters": args.max_iters}
    _write_manifest([args.output], argv, config, [args.input], timer.total())
    return 0


def cmd_normalize(args, argv) -> int:
    timer = Timer()
    if _is_graph_path(args.input):
        raise UsageError("normalize requires a numeric CSV input")
    data = _read_features(args)
    out = baseline.zscore_normalize(data)
    io.write_csv_numeric(args.output, out)
    _write_manifest([args.output], argv, {}, [args.input], timer.total())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelets",
        description="Hierarchical clustering by treelet decomposition of kernel matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a synthetic labeled 2-D dataset as CSV")
    g.add_argument("--shape", required=True,
                   choices=["circles", "moons", "blobs", "aniso", "varied", "uniform"])
    g.add_argument("--n", type=positive_int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--factor", type=float, default=0.5, help="inner circle radius (circles)")
    g.add_argument("--noise", type=nonneg_float, default=0.05, help="gaussian noise scale")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("cluster", help="run the sample/decompose/cut/extend pipeline")
    c.add_argument("--input", required=True, help="numeric CSV or edge-list (.txt/.edges) file")
    c.add_argument("--kernel", type=parse_kernel, required=True,
                   help="rbf:sigma=S | linear | poly:alpha=A,c0=C,r=R | "
                        "missing-rbf:gamma=G | graph:diag=D|auto")
    c.add_argument("--clusters", type=positive_int, required=True)
    c.add_argument("--sample-size", type=sample_size_arg, default="full",
                   help="number of sampled observations, or 'full'")
    c.add_argument("--lambda", dest="lam", type=lambda_arg, default=0.0,
                   help="similarity regularization weight")
    c.add_argument("--knn-k", type=positive_int, default=5,
                   help="neighbors for out-of-sample label votes (odd)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--stop-tol", type=nonneg_float, default=DEFAULT_STOP_TOL,
                   help="stop merging when the best pair score falls below this")
    c.add_argument("--threads", type=positive_int, default=os.cpu_count() or 1,
                   help="worker cap for the extension stage; results do not depend on it")
    c.add_argument("-o", "--output", required=True, help="labels JSON path")
    c.add_argument("--tree", default=None, help="also write the merge tree JSON here")
    _add_feature_flags(c)
    c.set_defaults(func=cmd_cluster)

    r = sub.add_parser("roc", help="ROC curve and AUC of a merge tree against a reference")
    r.add_argument("--tree", required=True)
    r.add_argument("--reference", required=True, help="class CSV or edge-list file")
    r.add_argument("-o", "--output", required=True, help="roc CSV path")
    _add_header_flags(r)
    r.set_defaults(func=cmd_roc)

    e = sub.add_parser("eval", help="TPR/FPR of predicted labels against a reference")
    e.add_argument("--pred", required=True, help="labels JSON path")
    e.add_argument("--reference", required=True)
    _add_header_flags(e)
    e.set_defaults(func=cmd_eval)

    k = sub.add_parser("kmeans", help="baseline flat clustering of a complete numeric CSV")
    k.add_argument("--input", required=True)
    k.add_argument("--k", type=positive_int, required=True)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--max-iters", type=positive_int, default=300)
    k.add_argument("-o", "--output", required=True)
    _add_feature_flags(k)
    k.set_defaults(func=cmd_kmeans)

    n = sub.add_parser("normalize", help="z-score CSV columns over their present entries")
    n.add_argument("--input", required=True)
    n.add_argument("-o", "--output", required=True)
    _add_feature_flags(n)
    n.set_defaults(func=cmd_normalize)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, ["treelets", *argv])
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
