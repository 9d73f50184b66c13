"""Check that epoch selection by ``silhouette_gram`` matches the exact silhouette.

    PYTHONPATH=src python tests/selection_agreement.py [--quickstart-seeds 20]

Runs the acceptance benchmark's clustering runs (seeds 0-2, every mode the
acceptance fixture trains) and ``kcod pipeline`` at its defaults for the
quickstart seeds. For every epoch of every run it scores the epoch's
assignments with both ``silhouette_gram`` (what ``cluster_train`` ranks by)
and the exact ``silhouette``. It prints the largest difference and whether
the epoch picked by each score is the same, and exits 1 if any run differs
by more than 1e-12 or picks a different epoch. Takes a few minutes.
"""

import argparse
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import kcod.cluster  # noqa: E402
from kcod.cli import RunConfig, run_pipeline  # noqa: E402
from kcod.data import SplitSpec, split_ind_ood  # noqa: E402
from kcod.errors import MetricUndefinedError  # noqa: E402
from kcod.metrics import silhouette, silhouette_gram  # noqa: E402

TOL = 1e-12


class Recorder:
    """Stands in for ``silhouette_gram`` in cluster_train and logs both scores."""

    def __init__(self):
        self.epochs = []

    def __call__(self, features, assignments):
        try:
            exact = silhouette(features, assignments)
        except MetricUndefinedError:
            exact = math.nan
        score = silhouette_gram(features, assignments)  # raises like the exact one
        self.epochs.append((score, exact))
        return score


def picked(scores) -> int:
    """cluster_train's rule: the first epoch with the largest defined score."""
    best, at = -math.inf, -1
    for epoch, sc in enumerate(scores):
        if sc == sc and sc > best:
            best, at = sc, epoch
    return at


def check(name: str, recorder: Recorder) -> bool:
    gram, exact = (np.array(v) for v in zip(*recorder.epochs))
    defined = ~np.isnan(exact)
    worst = float(np.max(np.abs(gram[defined] - exact[defined]), initial=0.0))
    same = picked(gram) == picked(exact) and np.array_equal(np.isnan(gram), ~defined)
    ok = worst <= TOL and same
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {len(gram)} epochs, max |gram - exact| {worst:.2e}, "
          f"picked epoch {picked(gram)} (exact {picked(exact)})", flush=True)
    recorder.epochs.clear()
    return ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quickstart-seeds", type=int, default=20)
    args = parser.parse_args()
    import test_acceptance as acc

    recorder = Recorder()
    kcod.cluster.silhouette_gram = recorder
    ok = True
    for seed in (0, 1, 2):
        data = acc._benchmark_dataset(seed)
        ind, ood = split_ind_ood(
            data, SplitSpec(total_classes=acc.BENCH_CLASSES, ood_ratio=acc.BENCH_OOD_RATIO, seed=seed)
        )
        model = acc._pretrained(ind, seed, k=acc.KNN_POSITIVES)
        modes = ("kcod", "kcod_wo_kcc") + (("instance_only", "cluster_only") if seed == 0 else ())
        for mode in modes:
            acc._clustered(model, ood, seed, mode)
            ok &= check(f"acceptance seed {seed} {mode}", recorder)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(args.quickstart_seeds):
            run_pipeline(RunConfig(seed=seed).validate(), os.path.join(tmp, str(seed)))
            ok &= check(f"quickstart seed {seed}", recorder)
    print("all runs agree" if ok else "some runs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
