"""Command-line pipeline: generate, pretrain, cluster, evaluate, pipeline.

Every command is deterministic under --seed and writes plain JSON/CSV/JSONL
artifacts into --out. Exit codes: 0 success, 2 usage or validation, 3 data
problems, 4 numerical divergence. KCOD_THREADS caps parallel sweep cells;
each sweep worker runs numpy's OpenBLAS on one thread, unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import ctypes
import dataclasses
import json
import os
import sys

from .cluster import (
    CLUSTER_MODES,
    KccConfig,
    cluster_train,
    estimate_k,
    predict_clusters,
    write_cluster_log,
)
from .data import (
    SplitSpec,
    gen_blobs,
    load_assignments,
    load_jsonl,
    save_assignments,
    save_jsonl,
    split_ind_ood,
)
from .encoder import AdamState, EncoderModel, forward_batch, load_checkpoint, save_checkpoint
from .errors import (
    AlignmentError,
    DataError,
    DegenerateInputError,
    DivergenceError,
    EmptyObjectiveError,
    MetricUndefinedError,
    ParameterError,
    ParseError,
)
from .metrics import Labeling, align, evaluate, write_confusion_csv, write_report
from .pretrain import KclConfig, pretrain, write_pretrain_log

K_KCL_GRID = (1, 3, 5, 7, 9)
THRESHOLD_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)
K_NEG_GRID = (25, 50, 100, 200, 400)


@dataclasses.dataclass
class RunConfig:
    """Validated bag of every pipeline hyper-parameter."""

    classes: int = 10
    per_class: int = 100
    dim: int = 16
    ood_ratio: float = 0.3
    center_scale: float = 5.0
    noise_sigma: float = 1.0
    seed: int = 0
    pretrain_epochs: int = 50
    cluster_epochs: int = 50
    batch: int = 64
    k_kcl: int = 3
    k_neg: int = 400
    threshold: float = 0.7
    tau: float = 0.5
    tau_clu: float = 1.0
    dropout: float = 0.1
    reg_weight: float = 1.0
    mode: str = "kcod"
    c: int | None = None
    estimate_c: bool = False
    lr_pretrain: float = 5e-3
    lr_cluster: float = 3e-3
    hidden_dim: int = 64
    feature_dim: int = 32
    instance_dim: int = 16

    def validate(self) -> "RunConfig":
        if self.classes < 4:
            raise ParameterError("need at least 4 classes to split 2 IND / 2 OOD")
        if not 0.0 < self.ood_ratio < 1.0:
            raise ParameterError(f"ood_ratio must be in (0,1), got {self.ood_ratio}")
        if self.pretrain_epochs < 0 or self.cluster_epochs < 0:
            raise ParameterError("epochs must be >= 0")
        if self.batch < 2:
            raise ParameterError("batch must be >= 2")
        if self.mode not in CLUSTER_MODES:
            raise ParameterError(f"mode must be one of {CLUSTER_MODES}")
        if not 0.0 < self.dropout < 1.0:
            raise ParameterError("dropout must be in (0,1); the augmented views need it")
        if self.c is not None and self.c < 2:
            raise ParameterError("--c must be >= 2")
        self.kcl()
        self.kcc()
        AdamState(learning_rate=self.lr_pretrain)
        AdamState(learning_rate=self.lr_cluster)
        return self

    def kcl(self) -> KclConfig:
        """The pre-training loss settings."""
        return KclConfig(k=self.k_kcl, tau=self.tau)

    def kcc(self) -> KccConfig:
        """The clustering loss settings."""
        return KccConfig(
            threshold=self.threshold,
            k_neg=self.k_neg,
            tau=self.tau,
            tau_clu=self.tau_clu,
            reg_weight=self.reg_weight,
        )


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _manifest_path(data_path: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(data_path)), "manifest.json")


def generate_stage(config: RunConfig, out_dir: str) -> tuple[str, str]:
    """Blobs + class split -> ind.jsonl, ood.jsonl, manifest.json."""
    os.makedirs(out_dir, exist_ok=True)
    data = gen_blobs(
        classes=config.classes,
        per_class=config.per_class,
        dim=config.dim,
        center_scale=config.center_scale,
        noise_sigma=config.noise_sigma,
        seed=config.seed,
    )
    ind, ood = split_ind_ood(
        data, SplitSpec(total_classes=config.classes, ood_ratio=config.ood_ratio, seed=config.seed)
    )
    ind_path = os.path.join(out_dir, "ind.jsonl")
    ood_path = os.path.join(out_dir, "ood.jsonl")
    save_jsonl(ind, ind_path)
    save_jsonl(ood, ood_path)
    _write_json(
        {
            "command": "generate",
            "classes": config.classes,
            "per_class": config.per_class,
            "dim": config.dim,
            "ood_ratio": config.ood_ratio,
            "center_scale": config.center_scale,
            "noise_sigma": config.noise_sigma,
            "seed": config.seed,
            "ind_classes": int(ind.class_labels().size),
            "ood_classes": int(ood.class_labels().size),
            "ind_count": len(ind),
            "ood_count": len(ood),
        },
        os.path.join(out_dir, "manifest.json"),
    )
    return ind_path, ood_path


def pretrain_stage(config: RunConfig, ind_path: str, out_dir: str) -> str:
    """CE + KNN-contrastive pre-training -> checkpoint + loss CSV."""
    os.makedirs(out_dir, exist_ok=True)
    ind = load_jsonl(ind_path)
    if len(ind) == 0:
        raise DataError(f"no training samples in {ind_path}")
    model = EncoderModel.init(
        input_dim=ind.dim,
        cluster_count=2,  # placeholder width; replaced before the clustering stage
        ind_class_count=int(ind.class_labels().size),
        hidden_dim=config.hidden_dim,
        feature_dim=config.feature_dim,
        instance_dim=config.instance_dim,
        dropout_rate=config.dropout,
        seed=config.seed,
    )
    model, log = pretrain(
        model,
        ind,
        epochs=config.pretrain_epochs,
        batch_size=config.batch,
        config=config.kcl(),
        seed=config.seed,
        learning_rate=config.lr_pretrain,
    )
    ckpt = os.path.join(out_dir, "pretrain_checkpoint.json")
    save_checkpoint(model, ckpt)
    write_pretrain_log(log, os.path.join(out_dir, "pretrain_log.csv"))
    _write_json(
        {
            "command": "pretrain",
            "epochs": config.pretrain_epochs,
            "batch": config.batch,
            "k_kcl": config.k_kcl,
            "tau": config.tau,
            "dropout": config.dropout,
            "learning_rate": config.lr_pretrain,
            "seed": config.seed,
            "final_ce_loss": log[-1].ce_loss if log else None,
            "final_kcl_loss": log[-1].kcl_loss if log else None,
        },
        os.path.join(out_dir, "manifest.json"),
    )
    return ckpt


def _resolve_cluster_count(config: RunConfig, ood_path: str, model: EncoderModel, features) -> int:
    guess = config.c
    if guess is None:
        manifest = _manifest_path(ood_path)
        if os.path.exists(manifest):
            with open(manifest, "r", encoding="utf-8") as fh:
                guess = json.load(fh).get("ood_classes")
    if guess is None:
        raise ParameterError(
            "cluster count unknown: pass --c or keep manifest.json next to the data"
        )
    guess = int(guess)
    if not config.estimate_c:
        return guess
    out = forward_batch(model, features)
    estimate = estimate_k(out.f, k_prime=2 * guess, seed=config.seed)
    if estimate < 2:
        raise DataError(
            f"--estimate-c found {estimate} cluster(s) of at least N/{2 * guess} points; "
            "clustering needs 2 or more, pass --c to set the count"
        )
    return estimate


def cluster_stage(config: RunConfig, ood_path: str, checkpoint_path: str, out_dir: str) -> tuple[str, str]:
    """Contrastive clustering -> assignments JSONL, SC-curve CSV, best-SC checkpoint."""
    os.makedirs(out_dir, exist_ok=True)
    ood = load_jsonl(ood_path)
    if len(ood) == 0:
        raise DataError(f"no samples in {ood_path}")
    base = load_checkpoint(checkpoint_path)
    cluster_count = _resolve_cluster_count(config, ood_path, base, ood.features)
    model = base.with_cluster_count(cluster_count, config.seed)
    best, log = cluster_train(
        model,
        ood,
        epochs=config.cluster_epochs,
        batch_size=config.batch,
        config=config.kcc(),
        seed=config.seed,
        mode=config.mode,
        learning_rate=config.lr_cluster,
    )
    clusters = predict_clusters(forward_batch(best, ood.features), config.mode, config.seed)
    assignments_path = os.path.join(out_dir, "assignments.jsonl")
    save_assignments(ood.ids, clusters, assignments_path)
    ckpt = os.path.join(out_dir, "cluster_checkpoint.json")
    save_checkpoint(best, ckpt)
    write_cluster_log(log, os.path.join(out_dir, "cluster_log.csv"), mode=config.mode)
    _write_json(
        {
            "command": "cluster",
            "mode": config.mode,
            "cluster_count": cluster_count,
            "estimated": config.estimate_c,
            "epochs": config.cluster_epochs,
            "batch": config.batch,
            "k_neg": config.k_neg,
            "threshold": config.threshold,
            "tau": config.tau,
            "tau_clu": config.tau_clu,
            "reg_weight": config.reg_weight,
            "learning_rate": config.lr_cluster,
            "seed": config.seed,
            "best_sc": max((r.sc for r in log if r.sc == r.sc), default=None),
            "final_sc": log[-1].sc if log else None,
        },
        os.path.join(out_dir, "manifest.json"),
    )
    return assignments_path, ckpt


def evaluate_stage(pred_path: str, truth_path: str, out_dir: str, checkpoint_path: str | None) -> str:
    """Score predictions against labels -> report.json + confusion.csv.

    With a checkpoint the geometry metrics run on embedded instance features,
    otherwise on the raw feature vectors.
    """
    os.makedirs(out_dir, exist_ok=True)
    pred_ids, clusters = load_assignments(pred_path)
    truth = load_jsonl(truth_path)
    if len(truth) == 0:
        raise DataError(f"no samples in {truth_path}")
    pred, truth_labels = align(Labeling(pred_ids, clusters), Labeling(truth.ids, truth.labels))
    if checkpoint_path is not None:
        model = load_checkpoint(checkpoint_path)
        features = forward_batch(model, truth.features).f
    else:
        features = truth.features
    report = evaluate(features, pred, truth_labels)
    report_path = os.path.join(out_dir, "report.json")
    write_report(report, report_path)
    write_confusion_csv(report.confusion, os.path.join(out_dir, "confusion.csv"))
    print(
        f"acc={report.acc:.4f} ari={report.ari:.4f} nmi={report.nmi:.4f} sc={report.sc:.4f}"
    )
    return report_path


def run_pipeline(config: RunConfig, out_dir: str) -> str:
    """generate -> pretrain -> cluster -> evaluate in one run directory."""
    os.makedirs(out_dir, exist_ok=True)
    ind_path, ood_path = generate_stage(config, os.path.join(out_dir, "data"))
    ckpt = pretrain_stage(config, ind_path, os.path.join(out_dir, "pretrain"))
    assignments, cluster_ckpt = cluster_stage(
        config, ood_path, ckpt, os.path.join(out_dir, "cluster")
    )
    _write_json(
        {"command": "pipeline", **{k: v for k, v in dataclasses.asdict(config).items()}},
        os.path.join(out_dir, "manifest.json"),
    )
    return evaluate_stage(assignments, ood_path, out_dir, cluster_ckpt)


def sweep_cells(config: RunConfig) -> list[tuple[str, RunConfig]]:
    """Union of three one-parameter grids around the base configuration."""
    cells = []
    for k in K_KCL_GRID:
        cells.append((f"k_kcl_{k}", dataclasses.replace(config, k_kcl=k)))
    for t in THRESHOLD_GRID:
        cells.append((f"threshold_{t:g}", dataclasses.replace(config, threshold=t)))
    for k in K_NEG_GRID:
        cells.append((f"k_neg_{k}", dataclasses.replace(config, k_neg=k)))
    return cells


def _run_sweep_cell(payload: tuple[str, dict, str, str]) -> dict:
    name, config_fields, data_dir, cell_dir = payload
    config = RunConfig(**config_fields).validate()
    ind_path = os.path.join(data_dir, "ind.jsonl")
    ood_path = os.path.join(data_dir, "ood.jsonl")
    ckpt = pretrain_stage(config, ind_path, os.path.join(cell_dir, "pretrain"))
    assignments, cluster_ckpt = cluster_stage(
        config, ood_path, ckpt, os.path.join(cell_dir, "cluster")
    )
    report_path = evaluate_stage(assignments, ood_path, cell_dir, cluster_ckpt)
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "cell": name,
        "k_kcl": config.k_kcl,
        "threshold": config.threshold,
        "k_neg": config.k_neg,
        "acc": report["acc"],
        "ari": report["ari"],
        "nmi": report["nmi"],
        "sc": report["sc"],
    }


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process; empty off Linux."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            return sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []


def _single_blas_thread() -> None:
    """Sweep worker initializer: run every loaded OpenBLAS on one thread.

    The workers already split the cells between them, so BLAS threads on top
    would only oversubscribe the cores. Nothing changes when the user set a
    BLAS thread variable or no OpenBLAS is loaded.
    """
    if any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        return
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, n) for n in OPENBLAS_SETTERS if hasattr(lib, n)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


def run_sweep(config: RunConfig, out_dir: str) -> str:
    """One full run per grid cell on shared data; rows land in sweep.csv in grid order."""
    data_dir = os.path.join(out_dir, "data")
    if not os.path.exists(os.path.join(data_dir, "ind.jsonl")):
        generate_stage(config, data_dir)
    sweep_dir = os.path.join(out_dir, "sweep")
    os.makedirs(sweep_dir, exist_ok=True)
    payloads = [
        (name, dataclasses.asdict(cell), data_dir, os.path.join(sweep_dir, name))
        for name, cell in sweep_cells(config)
    ]
    threads = max(1, int(os.environ.get("KCOD_THREADS", "1")))
    if threads == 1:
        rows = [_run_sweep_cell(p) for p in payloads]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=threads, initializer=_single_blas_thread
        ) as pool:
            rows = list(pool.map(_run_sweep_cell, payloads))
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "k_kcl", "threshold", "k_neg", "acc", "ari", "nmi", "sc"])
        for row in rows:
            writer.writerow(
                [row["cell"], row["k_kcl"], repr(row["threshold"]), row["k_neg"]]
                + [repr(float(row[k])) for k in ("acc", "ari", "nmi", "sc")]
            )
    return csv_path


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values = {}
    for key, value in vars(args).items():
        if key in fields and value is not None:
            values[key] = value
    epochs = getattr(args, "epochs", None)
    if epochs is not None:
        values.setdefault("pretrain_epochs", epochs)
        values.setdefault("cluster_epochs", epochs)
    lr = getattr(args, "lr", None)
    if lr is not None:
        values["lr_pretrain"] = lr
        values["lr_cluster"] = lr
    return RunConfig(**values).validate()


def cmd_generate(args: argparse.Namespace) -> int:
    generate_stage(_config_from_args(args), args.out)
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    pretrain_stage(_config_from_args(args), args.ind, args.out)
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    cluster_stage(_config_from_args(args), args.ood, args.checkpoint, args.out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    evaluate_stage(args.pred, args.truth, args.out, args.checkpoint)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    run_pipeline(config, args.out)
    if args.sweep:
        run_sweep(config, args.out)
    return 0


def _add_generate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=None, help="total class count (default 10)")
    p.add_argument("--per-class", dest="per_class", type=int, default=None, help="samples per class (default 100)")
    p.add_argument("--dim", type=int, default=None, help="feature dimension (default 16)")
    p.add_argument("--ood-ratio", dest="ood_ratio", type=float, default=None, help="fraction of classes held out (default 0.3)")
    p.add_argument("--center-scale", dest="center_scale", type=float, default=None, help="class-center sphere radius (default 5.0)")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None, help="per-coordinate noise (default 1.0)")


def _add_pretrain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-kcl", dest="k_kcl", type=int, default=None, help="positives per anchor (default 3)")
    p.add_argument("--dropout", type=float, default=None, help="hidden-layer dropout rate (default 0.1)")
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=None)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=None)
    p.add_argument("--instance-dim", dest="instance_dim", type=int, default=None)


def _add_cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=CLUSTER_MODES, default=None, help="objective combination (default kcod)")
    p.add_argument("--k-neg", dest="k_neg", type=int, default=None, help="hard negatives per anchor (default 400, clamped)")
    p.add_argument("--threshold", type=float, default=None, help="false-negative filter threshold (default 0.7)")
    p.add_argument("--tau-clu", dest="tau_clu", type=float, default=None, help="cluster-level temperature (default 1.0)")
    p.add_argument("--reg-weight", dest="reg_weight", type=float, default=None, help="entropy regularizer weight (default 1.0)")
    p.add_argument("--c", type=int, default=None, help="cluster count (default: manifest ood_classes)")
    p.add_argument("--estimate-c", dest="estimate_c", action="store_true", help="estimate the cluster count by over-clustering with K'=2C")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcod",
        description="Out-of-domain intent discovery on synthetic benchmarks: "
        "KNN-contrastive pre-training and clustering with full evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic IND/OOD benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_generate_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="labeled pre-training on the IND split")
    p.add_argument("--ind", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="default 50")
    p.add_argument("--batch", type=int, default=None, help="default 64")
    p.add_argument("--lr", type=float, default=None, help="default 5e-3")
    p.add_argument("--tau", type=float, default=None, help="contrast temperature (default 0.5)")
    _add_pretrain_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("cluster", help="unlabeled clustering of the OOD split")
    p.add_argument("--ood", required=True)
    p.add_argument("--checkpoint", required=True, help="pre-training checkpoint JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="default 50")
    p.add_argument("--batch", type=int, default=None, help="default 64")
    p.add_argument("--lr", type=float, default=None, help="default 3e-3")
    p.add_argument("--tau", type=float, default=None, help="contrast temperature (default 0.5)")
    _add_cluster_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="score assignments against labeled data")
    p.add_argument("--pred", required=True, help="assignments JSONL")
    p.add_argument("--truth", required=True, help="labeled dataset JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None, help="embed features with this checkpoint")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="generate, pretrain, cluster, evaluate in one go")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="both stages (default 50)")
    p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int, default=None)
    p.add_argument("--cluster-epochs", dest="cluster_epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lr-pretrain", dest="lr_pretrain", type=float, default=None)
    p.add_argument("--lr-cluster", dest="lr_cluster", type=float, default=None)
    p.add_argument("--sweep", action="store_true", help="also run the one-parameter ablation grids")
    _add_generate_flags(p)
    _add_pretrain_flags(p)
    _add_cluster_flags(p)
    p.set_defaults(func=cmd_pipeline)
    return parser


M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
M_MMAP_THRESHOLD = -3
HEAP_KEEP_BYTES = 32 << 20  # the largest mmap threshold glibc accepts on 64-bit


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse, at fixed thresholds.

    By default glibc gives the top of its heap back to the kernel once more
    than twice the largest recently freed block lies free there, and that
    threshold moves with whatever the process freed before. The training
    loops free a few hundred KB of numpy temporaries per step, so depending
    on how earlier imports left the heap, each step can fault the same pages
    back in. Does nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_KEEP_BYTES)
    mallopt(M_TRIM_THRESHOLD, HEAP_KEEP_BYTES)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        DataError,
        ParseError,
        AlignmentError,
        DegenerateInputError,
        MetricUndefinedError,
        EmptyObjectiveError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: diverged: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
