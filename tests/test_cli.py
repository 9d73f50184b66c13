import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from kcod import cli
from kcod.cli import (
    K_KCL_GRID,
    K_NEG_GRID,
    THRESHOLD_GRID,
    RunConfig,
    main,
    sweep_cells,
)
from kcod.data import Dataset, load_assignments, load_jsonl, save_assignments, save_jsonl
from kcod.encoder import EncoderModel, load_checkpoint, save_checkpoint
from kcod.errors import ParameterError

MICRO = [
    "--classes", "4", "--per-class", "12", "--dim", "5",
    "--ood-ratio", "0.5", "--center-scale", "10", "--noise-sigma", "1.0",
]
SMALL_NET = ["--hidden-dim", "8", "--feature-dim", "6", "--instance-dim", "4"]


def gen(out, seed="0"):
    assert main(["generate", "--out", str(out), "--seed", seed] + MICRO) == 0


def pre(data, out, seed="0", epochs="20"):
    assert (
        main(
            ["pretrain", "--ind", f"{data}/ind.jsonl", "--out", str(out),
             "--epochs", epochs, "--batch", "8", "--seed", seed] + SMALL_NET
        )
        == 0
    )


class TestRunConfig:
    def test_defaults_validate(self):
        config = RunConfig().validate()
        assert config.k_kcl == 3
        assert config.threshold == 0.7
        assert config.k_neg == 400
        assert config.tau == 0.5
        assert config.tau_clu == 1.0
        assert config.dropout == 0.1
        assert config.mode == "kcod"

    def test_rejections(self):
        with pytest.raises(ParameterError):
            RunConfig(ood_ratio=1.0).validate()
        with pytest.raises(ParameterError):
            RunConfig(classes=3).validate()
        with pytest.raises(ParameterError):
            RunConfig(mode="nope").validate()
        with pytest.raises(ParameterError):
            RunConfig(dropout=0.0).validate()
        with pytest.raises(TypeError):
            RunConfig(bogus_knob=1)


class TestGenerate:
    def test_default_counts(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["generate", "--out", str(out), "--seed", "0"]) == 0
        ind = load_jsonl(str(out / "ind.jsonl"))
        ood = load_jsonl(str(out / "ood.jsonl"))
        assert len(ind) == 700
        assert len(ood) == 300
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["ind_classes"] == 7 and manifest["ood_classes"] == 3

    def test_same_seed_identical_files(self, tmp_path):
        gen(tmp_path / "a", seed="5")
        gen(tmp_path / "b", seed="5")
        for name in ("ind.jsonl", "ood.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_full_ood_ratio_is_usage_error(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "x"), "--ood-ratio", "1.0"]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "x"), "--frobnicate", "1"]) == 2
        capsys.readouterr()


class TestPretrain:
    def test_zero_epochs_checkpoint_equals_init(self, tmp_path):
        gen(tmp_path / "d")
        pre(tmp_path / "d", tmp_path / "p", epochs="0")
        loaded = load_checkpoint(str(tmp_path / "p" / "pretrain_checkpoint.json"))
        fresh = EncoderModel.init(
            input_dim=5, cluster_count=2, ind_class_count=2,
            hidden_dim=8, feature_dim=6, instance_dim=4, dropout_rate=0.1, seed=0,
        )
        assert loaded.step == 0
        for name, value in fresh.params.items():
            assert np.array_equal(loaded.params[name], value)

    def test_small_set_is_fit(self, tmp_path):
        gen(tmp_path / "d")
        pre(tmp_path / "d", tmp_path / "p")
        manifest = json.load(open(tmp_path / "p" / "manifest.json"))
        assert manifest["final_ce_loss"] < 0.05
        rows = list(csv.reader(open(tmp_path / "p" / "pretrain_log.csv")))
        assert rows[0] == ["epoch", "ce_loss", "kcl_loss", "total_loss"]
        assert len(rows) == 21
        json.load(open(tmp_path / "p" / "pretrain_checkpoint.json"))

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(
            ["pretrain", "--ind", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "p")]
        )
        assert code == 3
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exploding_rate_is_divergence(self, tmp_path, capsys):
        gen(tmp_path / "d")
        code = main(
            ["pretrain", "--ind", str(tmp_path / "d" / "ind.jsonl"), "--out", str(tmp_path / "p"),
             "--epochs", "3", "--batch", "8", "--lr", "1e200", "--seed", "0"] + SMALL_NET
        )
        assert code == 4
        capsys.readouterr()


class TestCluster:
    def setup_run(self, tmp_path):
        gen(tmp_path / "d")
        pre(tmp_path / "d", tmp_path / "p")
        return tmp_path / "d", tmp_path / "p" / "pretrain_checkpoint.json"

    def test_c_from_manifest_and_artifacts(self, tmp_path):
        data, ckpt = self.setup_run(tmp_path)
        out = tmp_path / "c"
        code = main(
            ["cluster", "--ood", f"{data}/ood.jsonl", "--checkpoint", str(ckpt),
             "--out", str(out), "--epochs", "3", "--batch", "8", "--k-neg", "8", "--seed", "0"]
        )
        assert code == 0
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["cluster_count"] == 2
        assert manifest["estimated"] is False
        ids, clusters = load_assignments(str(out / "assignments.jsonl"))
        ood = load_jsonl(f"{data}/ood.jsonl")
        assert ids == ood.ids
        assert set(clusters.tolist()) <= {0, 1}
        rows = list(csv.reader(open(out / "cluster_log.csv")))
        assert len(rows) == 4  # header + one row per epoch
        assert rows[0] == ["epoch", "clu_loss", "kcc_loss", "reg", "sc"]

    def test_estimate_c_flag(self, tmp_path):
        data, ckpt = self.setup_run(tmp_path)
        out = tmp_path / "c"
        code = main(
            ["cluster", "--ood", f"{data}/ood.jsonl", "--checkpoint", str(ckpt),
             "--out", str(out), "--epochs", "2", "--batch", "8", "--k-neg", "8",
             "--estimate-c", "--seed", "0"]
        )
        assert code == 0
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["estimated"] is True
        assert manifest["cluster_count"] == 2

    def test_estimate_below_two_is_data_error(self, tmp_path, capsys):
        # one tight blob plus four far outliers: over-clustering with K'=4
        # leaves a single cluster of at least N/K' points
        data, _ = self.setup_run(tmp_path)
        pre(data, tmp_path / "p0", epochs="0")
        rng = np.random.default_rng(0)
        x = np.vstack([3.0 + rng.normal(scale=1e-3, size=(30, 5)), 40.0 * np.eye(5)[:4]])
        ood = tmp_path / "blob.jsonl"
        save_jsonl(
            Dataset(ids=[f"b{i}" for i in range(34)], features=x,
                    labels=np.zeros(34, dtype=np.int64), roles=["ood"] * 34),
            str(ood),
        )
        capsys.readouterr()
        code = main(
            ["cluster", "--ood", str(ood), "--checkpoint", str(tmp_path / "p0" / "pretrain_checkpoint.json"),
             "--out", str(tmp_path / "c"), "--epochs", "0", "--c", "2", "--estimate-c", "--seed", "0"]
        )
        assert code == 3
        assert "--estimate-c found 1 cluster(s)" in capsys.readouterr().err

    def test_missing_manifest_needs_explicit_c(self, tmp_path, capsys):
        data, ckpt = self.setup_run(tmp_path)
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copy(data / "ood.jsonl", bare / "ood.jsonl")
        code = main(
            ["cluster", "--ood", str(bare / "ood.jsonl"), "--checkpoint", str(ckpt),
             "--out", str(tmp_path / "c"), "--epochs", "1", "--batch", "8"]
        )
        assert code == 2
        capsys.readouterr()
        code = main(
            ["cluster", "--ood", str(bare / "ood.jsonl"), "--checkpoint", str(ckpt),
             "--out", str(tmp_path / "c2"), "--epochs", "1", "--batch", "8",
             "--k-neg", "8", "--c", "2", "--seed", "0"]
        )
        assert code == 0


class TestEvaluate:
    def prepared(self, tmp_path):
        gen(tmp_path / "d")
        return load_jsonl(str(tmp_path / "d" / "ood.jsonl"))

    def test_perfect_prediction(self, tmp_path, capsys):
        ood = self.prepared(tmp_path)
        pred_path = str(tmp_path / "pred.jsonl")
        remap = {c: i for i, c in enumerate(sorted(set(ood.labels.tolist())))}
        save_assignments(ood.ids, [remap[int(l)] for l in ood.labels], pred_path)
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--pred", pred_path, "--truth", str(tmp_path / "d" / "ood.jsonl"),
             "--out", str(out)]
        )
        assert code == 0
        shown = capsys.readouterr().out
        assert "acc=1.0000" in shown
        report = json.load(open(out / "report.json"))
        assert report["acc"] == 1.0 and report["ari"] == 1.0 and report["nmi"] == 1.0
        assert "intra_dist" in report and "inter_dist" in report
        truth_classes = sorted(set(int(l) for l in ood.labels))
        assert sorted(report["per_class_compactness"]) == [str(c) for c in truth_classes]
        assert (out / "confusion.csv").exists()

    def test_missing_id_is_alignment_error(self, tmp_path, capsys):
        ood = self.prepared(tmp_path)
        pred_path = str(tmp_path / "pred.jsonl")
        save_assignments(ood.ids[:-1], np.zeros(len(ood) - 1, dtype=np.int64), pred_path)
        code = main(
            ["evaluate", "--pred", pred_path, "--truth", str(tmp_path / "d" / "ood.jsonl"),
             "--out", str(tmp_path / "eval")]
        )
        assert code == 3
        assert ood.ids[-1] in capsys.readouterr().err


class TestBadCheckpoint:
    """A malformed checkpoint is a data error (exit 3), never a traceback."""

    @staticmethod
    def drop_weights(doc):
        del doc["weights"]

    @staticmethod
    def nan_weight(doc):
        doc["weights"]["w3"][0] = float("nan")

    @staticmethod
    def short_weights(doc):
        doc["weights"]["w1"] = doc["weights"]["w1"][:-1]

    @staticmethod
    def zero_hidden(doc):
        doc["hidden_dim"] = 0

    @pytest.mark.parametrize(
        "tamper", ["not_json", "drop_weights", "nan_weight", "short_weights", "zero_hidden"]
    )
    def test_evaluate_exits_with_data_error(self, tmp_path, capsys, tamper):
        gen(tmp_path / "d")
        ood = load_jsonl(str(tmp_path / "d" / "ood.jsonl"))
        pred_path = str(tmp_path / "pred.jsonl")
        save_assignments(ood.ids, np.arange(len(ood)) % 2, pred_path)
        ckpt = tmp_path / "model.json"
        if tamper == "not_json":
            ckpt.write_text("{not json\n")
        else:
            model = EncoderModel.init(input_dim=ood.dim, cluster_count=2, ind_class_count=2, seed=0)
            save_checkpoint(model, str(ckpt))
            doc = json.loads(ckpt.read_text())
            getattr(self, tamper)(doc)
            ckpt.write_text(json.dumps(doc))
        code = main(
            ["evaluate", "--pred", pred_path, "--truth", str(tmp_path / "d" / "ood.jsonl"),
             "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt)]
        )
        assert code == 3
        assert "checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()


class TestPipelineAndSweep:
    PIPE = [
        "--epochs", "4", "--batch", "8", "--k-neg", "8",
    ] + MICRO + SMALL_NET

    def test_single_run_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--out", str(out), "--seed", "1"] + self.PIPE) == 0
        for rel in (
            "manifest.json",
            "data/ind.jsonl",
            "data/ood.jsonl",
            "pretrain/pretrain_checkpoint.json",
            "cluster/assignments.jsonl",
            "cluster/cluster_checkpoint.json",
            "report.json",
            "confusion.csv",
        ):
            assert (out / rel).exists(), rel
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["command"] == "pipeline"
        assert manifest["seed"] == 1

    def test_rerun_reproduces_report_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--out", str(a), "--seed", "3"] + self.PIPE) == 0
        assert main(["pipeline", "--out", str(b), "--seed", "3"] + self.PIPE) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_sweep_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KCOD_THREADS", "2")
        out = tmp_path / "run"
        args = ["pipeline", "--out", str(out), "--seed", "0", "--sweep",
                "--epochs", "2", "--batch", "8", "--k-neg", "8"] + MICRO + SMALL_NET
        assert main(args) == 0
        rows = list(csv.reader(open(out / "sweep.csv")))
        assert rows[0] == ["cell", "k_kcl", "threshold", "k_neg", "acc", "ari", "nmi", "sc"]
        cells = [r[0] for r in rows[1:]]
        expected = (
            [f"k_kcl_{k}" for k in K_KCL_GRID]
            + [f"threshold_{t:g}" for t in THRESHOLD_GRID]
            + [f"k_neg_{k}" for k in K_NEG_GRID]
        )
        assert cells == expected
        for row in rows[1:]:
            assert 0.0 <= float(row[4]) <= 1.0

    def test_sweep_cells_inherit_base(self):
        config = RunConfig(per_class=10)
        cells = sweep_cells(config)
        assert len(cells) == 15
        name, cell = cells[0]
        assert name == "k_kcl_1"
        assert cell.k_kcl == 1 and cell.per_class == 10
        assert cells[6][1].threshold == 0.6


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("kcod")
        cmd = [exe] if exe else [sys.executable, "-m", "kcod.cli"]
        result = subprocess.run(
            cmd + ["generate", "--out", str(tmp_path / "g"), "--seed", "0"] + MICRO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "g" / "ind.jsonl").exists()


class TestNoScipyAtRunTime:
    SCRIPT = """
import json, sys
from kcod.cli import main
out, rest = sys.argv[1], json.loads(sys.argv[2])
runs = [
    ["pipeline", "--out", out + "/run", "--epochs", "1"] + rest,
    ["evaluate", "--pred", out + "/run/cluster/assignments.jsonl",
     "--truth", out + "/run/data/ood.jsonl", "--out", out + "/eval",
     "--checkpoint", out + "/run/cluster/cluster_checkpoint.json"],
    ["cluster", "--ood", out + "/run/data/ood.jsonl",
     "--checkpoint", out + "/run/pretrain/pretrain_checkpoint.json",
     "--out", out + "/est", "--estimate-c", "--epochs", "0", "--seed", "0"],
]
for argv in runs:
    code = main(argv)
    print("#", argv[0], code, "scipy" in sys.modules)
"""

    def test_commands_never_import_scipy(self, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
        rest = ["--seed", "0", "--batch", "8", "--k-neg", "8"] + MICRO + SMALL_NET
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path), json.dumps(rest)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert [line for line in result.stdout.splitlines() if line.startswith("#")] == [
            "# pipeline 0 False",
            "# evaluate 0 False",
            "# cluster 0 False",
        ]


def run_cli_subprocess(argv, **env_vars):
    """Run ``python -m kcod.cli`` with no inherited BLAS thread variable, plus env_vars."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARIABLES}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(env_vars)
    result = subprocess.run(
        [sys.executable, "-m", "kcod.cli"] + argv, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestPipelineBlasThreads:
    def test_every_output_identical_across_thread_counts(self, tmp_path):
        # default data sizes, so the BLAS calls are large enough to be threaded
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            run_cli_subprocess(
                ["pipeline", "--out", str(out), "--seed", "0", "--epochs", "2"],
                OPENBLAS_NUM_THREADS=threads,
            )
            runs[threads] = tree_bytes(out)
        assert len(runs["1"]) == 13
        assert runs["2"] == runs["1"]


class TestSweepBlasThreads:
    SWEEP = ["pipeline", "--seed", "1", "--sweep", "--epochs", "1", "--batch", "8",
             "--k-neg", "8"] + MICRO + SMALL_NET

    def run_sweep(self, out, **env_vars):
        run_cli_subprocess([self.SWEEP[0], "--out", str(out)] + self.SWEEP[1:], **env_vars)
        files = {"sweep.csv": (out / "sweep.csv").read_bytes()}
        for path in sorted(out.rglob("report.json")):
            files[str(path.relative_to(out))] = path.read_bytes()
        return files

    def test_outputs_identical_across_thread_counts(self, tmp_path):
        serial = self.run_sweep(tmp_path / "serial", KCOD_THREADS="1")
        pooled = self.run_sweep(tmp_path / "pooled", KCOD_THREADS="2")
        pinned = self.run_sweep(tmp_path / "pinned", KCOD_THREADS="2", OPENBLAS_NUM_THREADS="2")
        assert len(serial) == 17  # sweep.csv, the base report and one per cell
        assert pooled == serial
        assert pinned == serial

    def test_initializer_respects_user_thread_variables(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_loaded_openblas", lambda: calls.append("maps") or ["blas.so"])
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: calls.append(path))
        for name in cli.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        cli._single_blas_thread()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        cli._single_blas_thread()
        assert calls == []

    def test_initializer_pins_each_openblas_to_one_thread(self, monkeypatch):
        class FakeSetter:
            def __init__(self):
                self.threads = []

            def __call__(self, n):
                self.threads.append(n)

        class FakeBlas:
            def __init__(self):
                self.openblas_set_num_threads = FakeSetter()

        libs = {"a.so": FakeBlas(), "b.so": FakeBlas()}
        for name in cli.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(cli, "_loaded_openblas", lambda: sorted(libs))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: libs[path])
        cli._single_blas_thread()
        assert [lib.openblas_set_num_threads.threads for lib in libs.values()] == [[1], [1]]
