"""kcod benchmark: one client runs a workload's command sequence in a closed loop.

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 35 --trace 0

Run from the root of a kcod checkout; kcod is imported from its ``src/``.
Each operation is one pass of the workload's ``kcod`` commands, every command
in its own process, exactly as a user types them. The next operation starts
when the previous one has finished, until ``--seconds`` have been measured
(at least two operations, so each run can compare their outputs byte for byte).

Workloads (why each exists):
  quickstart  ``kcod pipeline`` at its defaults (300 OOD points): the documented
              entry point, dominated by the per-anchor contrastive loss loops.
  large_ood   ``kcod cluster`` + ``kcod evaluate`` on 6000 OOD points after a
              short pretrain in set-up, plus ``kcod cluster --estimate-c``:
              dominated by the per-epoch O(N^2) silhouette and its memory.
  sweep       ``kcod pipeline --sweep --epochs 10`` with KCOD_THREADS=2: many
              short runs in a process pool with JSONL and checkpoint I/O, and
              BLAS threads competing with the pool workers.

End-to-end metrics (``--trace 0``):
  setup_s      one set-up pass (start and import kcod; for large_ood also
               generate and pretrain), median of the workload's set-up passes
  wall_s       one operation, the fastest of the run's operations
  pretrain_s, cluster_s, evaluate_s
               time inside kcod.cli.*_stage, summed over every call in the
               operation's processes, the fastest of the run's operations:
               what a subcommand user waits for. For sweep the sum takes in
               the base run and the 15 cells in the pool workers. large_ood
               pretrains only in set-up, so its pretrain_s is the fastest
               set-up's
  peak_rss_mb  peak of the summed resident memory of the command's process
               tree, sampled every RSS_SAMPLE_S and never below the kernel's
               peak for the command process; median of the run's operations
Times take the fastest operation, as timeit does, because other work on a
shared host only ever slows an operation down; the program's own cost is in
every operation, the fastest included.
acc/ari/nmi change with the seed far more than a timing does, so they are not
end-to-end metrics: they are printed on every run, an operation whose scores
fall more than QUALITY_TOLERANCE below those recorded for its workload and seed
in quality_reference.json has failed, and the traced run reports them as
quality.*.

With ``--trace 1`` operations alternate between untraced and traced, and the
last line holds the per-layer metrics of the traced ones plus the tracing
overhead. The result line carries every per-layer metric on every workload, so
a layer that a workload never calls reads 0 there. Timings are written to the
benchmark's own work directory, never into the byte-compared kcod outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable

import layers

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

RUN_LIMIT_S = 170.0  # every command is killed past this point of the run
MIN_OPERATIONS = 2
RSS_SAMPLE_S = 0.05
SWEEP_CELLS = 15

# acc/ari/nmi per workload and seed, to 4 places, as kcod reached them when this
# benchmark was defined; quickstart's seed 0 is the baseline documented for the
# default pipeline. An operation whose scores fall more than QUALITY_TOLERANCE
# below them has failed. The tolerance lets a rewrite that only reorders float
# sums flip a point or two (one of 300 points is 0.0033 acc); a speed-up that
# costs quality loses more than that.
QUALITY_REFERENCE = os.path.join(HERE, "quality_reference.json")
QUALITY_KEYS = ("acc", "ari", "nmi")
QUALITY_TOLERANCE = 0.02


@dataclasses.dataclass
class Workload:
    name: str
    setup: Callable[[str, int], list[list[str]]]  # (inputs_dir, seed) -> kcod argument lists
    operation: Callable[[str, str, int], list[list[str]]]  # (out_dir, inputs_dir, seed) -> same
    artifacts: Callable[[str, str], dict]  # (out_dir, inputs_dir) -> the files to check
    env: dict
    setup_repeats: int  # set-up passes whose median is setup_s; the cheap ones repeat more


def _import_only(inputs: str, seed: int) -> list[list[str]]:
    # Starting kcod and importing it is the whole set-up of a pipeline workload.
    return [["--help"]]


def _pipeline_artifacts(out: str, inputs: str) -> dict:
    run = os.path.join(out, "run")
    return {
        "report": os.path.join(run, "report.json"),
        "reports": [os.path.join(run, "report.json")],
        "ood": os.path.join(run, "data", "ood.jsonl"),
        "assignments": [os.path.join(run, "cluster", "assignments.jsonl")],
    }


def _sweep_artifacts(out: str, inputs: str) -> dict:
    found = _pipeline_artifacts(out, inputs)
    cells = os.path.join(out, "run", "sweep", "*")
    found["reports"] += sorted(glob.glob(os.path.join(cells, "report.json")))
    found["assignments"] += sorted(glob.glob(os.path.join(cells, "cluster", "assignments.jsonl")))
    found["sweep_csv"] = os.path.join(out, "run", "sweep.csv")
    return found


def _large_setup(inputs: str, seed: int) -> list[list[str]]:
    data = os.path.join(inputs, "data")
    return [
        ["generate", "--out", data, "--seed", str(seed),
         "--classes", "10", "--per-class", "1200", "--ood-ratio", "0.5"],
        ["pretrain", "--ind", os.path.join(data, "ind.jsonl"), "--out",
         os.path.join(inputs, "pre"), "--seed", str(seed), "--epochs", "2"],
    ]


def _large_operation(out: str, inputs: str, seed: int) -> list[list[str]]:
    ood = os.path.join(inputs, "data", "ood.jsonl")
    pre = os.path.join(inputs, "pre", "pretrain_checkpoint.json")
    clu = os.path.join(out, "clu")
    return [
        ["cluster", "--ood", ood, "--checkpoint", pre, "--out", clu,
         "--seed", str(seed), "--epochs", "8"],
        ["evaluate", "--pred", os.path.join(clu, "assignments.jsonl"), "--truth", ood,
         "--out", os.path.join(out, "eval"),
         "--checkpoint", os.path.join(clu, "cluster_checkpoint.json")],
        # The estimated count varies from 3 to 6 with the seed, and the O(C N^2)
        # silhouette with it, so it is timed in its own command rather than
        # steering the clustering run above.
        ["cluster", "--ood", ood, "--checkpoint", pre, "--out", os.path.join(out, "est"),
         "--seed", str(seed), "--estimate-c", "--epochs", "0"],
    ]


def _large_artifacts(out: str, inputs: str) -> dict:
    report = os.path.join(out, "eval", "report.json")
    return {
        "report": report,
        "reports": [report],
        "ood": os.path.join(inputs, "data", "ood.jsonl"),
        "assignments": [os.path.join(out, name, "assignments.jsonl") for name in ("clu", "est")],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quickstart",
            _import_only,
            lambda out, inputs, seed: [["pipeline", "--out", os.path.join(out, "run"), "--seed", str(seed)]],
            _pipeline_artifacts,
            {},
            9,
        ),
        Workload("large_ood", _large_setup, _large_operation, _large_artifacts, {}, 3),
        Workload(
            "sweep",
            _import_only,
            lambda out, inputs, seed: [
                ["pipeline", "--sweep", "--epochs", "10", "--out", os.path.join(out, "run"), "--seed", str(seed)]
            ],
            _sweep_artifacts,
            {"KCOD_THREADS": "2"},
            9,
        ),
    )
}


class TreeSampler(threading.Thread):
    """Samples the summed resident memory of a process and its descendants.

    Also kills the process group once the deadline has passed.
    """

    def __init__(self, pid: int, deadline: float):
        super().__init__(daemon=True)
        self.pid = pid
        self.deadline = deadline
        self.peak_kb = 0
        self.timed_out = False
        self.done = threading.Event()

    def _tree(self) -> list[int]:
        pids, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            try:
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children", "r") as fh:
                        todo.extend(int(c) for c in fh.read().split())
            except (FileNotFoundError, ProcessLookupError):
                continue
        return pids

    @staticmethod
    def _rss_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status", "r") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError):
            pass
        return 0  # exited, or a zombie

    def run(self) -> None:
        while not self.done.wait(RSS_SAMPLE_S):
            self.peak_kb = max(self.peak_kb, sum(self._rss_kb(p) for p in self._tree()))
            if time.perf_counter() > self.deadline and not self.timed_out:
                self.timed_out = True
                _kill_group(self.pid)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_stragglers(pgid: int) -> bool:
    """Kill what is left of a command's process group; True if anything was."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    _kill_group(pgid)
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    return True


@dataclasses.dataclass
class CommandResult:
    code: int
    wall_s: float
    peak_kb: int
    note: str = ""


def run_command(kcod_args: list[str], spans_dir: str, trace: bool, log_path: str, env: dict) -> CommandResult:
    argv = [sys.executable, CHILD, spans_dir, "1" if trace else "0", "--", *kcod_args]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        sampler = TreeSampler(proc.pid, deadline=START + RUN_LIMIT_S)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: the command is in its own session, so stop it here
            _kill_group(proc.pid)
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sampler.done.set()
        sampler.join()
    result = CommandResult(proc.returncode, wall, max(sampler.peak_kb, usage.ru_maxrss))
    if sampler.timed_out:
        result.code, result.note = -1, "killed at the run's time limit"
    if _stop_stragglers(proc.pid):
        result.code, result.note = -1, "left processes running after it exited"
    if result.code != 0 and not result.note:
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            result.note = f"exit {result.code}: " + fh.read()[-600:].strip()
    return result


def _read_ids(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def check_outputs(found: dict, out: str) -> tuple[dict, str, list[str]]:
    """Quality of the run's report, a digest of the byte-compared outputs, and problems."""
    problems: list[str] = []
    quality: dict = {}
    for path in found["reports"]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            scores = {k: float(report[k]) for k in ("acc", "ari", "nmi")}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{path}: unreadable report ({exc})")
            continue
        if not all(0.0 <= v <= 1.0 for v in scores.values()):
            problems.append(f"{path}: acc/ari/nmi outside [0, 1]: {scores}")
        if path == found["report"]:
            quality = scores
    ood_ids = sorted(_read_ids(found["ood"]))
    for path in found["assignments"]:
        try:
            ids = sorted(_read_ids(path))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path}: unreadable assignments ({exc})")
            continue
        if ids != ood_ids:
            problems.append(f"{path}: {len(ids)} assignments for {len(ood_ids)} OOD ids")
    if "sweep_csv" in found:
        cells = len(found["assignments"]) - 1
        if cells != SWEEP_CELLS:
            problems.append(f"{cells} sweep cells wrote assignments, expected {SWEEP_CELLS}")
        try:
            with open(found["sweep_csv"], "r", encoding="utf-8") as fh:
                rows = [line for line in fh.read().splitlines()[1:] if line]
        except OSError as exc:
            rows, problems = [], problems + [f"sweep.csv unreadable ({exc})"]
        if len(rows) != SWEEP_CELLS:
            problems.append(f"sweep.csv has {len(rows)} rows, expected {SWEEP_CELLS}")
    if not quality:
        problems.append("no quality scores in the run's report")
    if problems:
        return quality, "", problems
    digest = hashlib.sha256()
    for path in sorted(found["reports"] + found["assignments"]):
        digest.update(os.path.relpath(path, out).encode())
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return quality, digest.hexdigest(), problems


STAGE_METRICS = {
    "pretrain_s": "cli.pretrain_stage",
    "cluster_s": "cli.cluster_stage",
    "evaluate_s": "cli.evaluate_stage",
}


@dataclasses.dataclass
class Sequence:
    """One pass of a list of kcod commands."""

    wall_s: float
    peak_kb: int
    spans: dict  # every process, sweep pool workers included
    problems: list
    traced: bool = False
    quality: dict = dataclasses.field(default_factory=dict)
    digest: str = ""

    def stage_s(self, label: str) -> float:
        """Time inside a stage, summed over its calls in every process."""
        return self.spans["stats"].get(label, [0, 0.0, 0.0])[1]


def run_sequence(commands: list[list[str]], base: str, trace: bool, env: dict) -> Sequence:
    spans_dir = os.path.join(base, "spans")
    logs = os.path.join(base, "logs")
    os.makedirs(spans_dir)
    os.makedirs(logs)
    wall, peak, problems = 0.0, 0, []
    for i, args in enumerate(commands):
        result = run_command(args, spans_dir, trace, os.path.join(logs, f"{i}.log"), env)
        wall += result.wall_s
        peak = max(peak, result.peak_kb)
        if result.code != 0:
            problems.append(f"kcod {args[0]}: {result.note}")
            break
    return Sequence(wall, peak, layers.merge(spans_dir), problems, trace)


def run_operation(workload: Workload, base: str, inputs: str, seed: int, trace: bool, env: dict) -> Sequence:
    out = os.path.join(base, "out")
    op = run_sequence(workload.operation(out, inputs, seed), base, trace, env)
    if not op.problems:
        op.quality, op.digest, op.problems = check_outputs(workload.artifacts(out, inputs), out)
    return op


def load_quality_reference(workload: str, seed: int) -> dict:
    """The recorded acc/ari/nmi of this workload and seed; empty when none was recorded."""
    with open(QUALITY_REFERENCE, "r", encoding="utf-8") as fh:
        scores = json.load(fh).get(workload, {}).get(str(seed))
    return dict(zip(QUALITY_KEYS, scores)) if scores else {}


def quality_problems(quality: dict, reference: dict) -> list[str]:
    low = {k: (round(quality[k], 4), v) for k, v in reference.items() if quality[k] < v - QUALITY_TOLERANCE}
    return [f"scores more than {QUALITY_TOLERANCE} below the reference for this seed, as (score, reference): {low}"] if low else []


def layer_metrics(op: Sequence, wrapper_s_per_call: float) -> dict:
    stats, notes = op.spans["stats"], op.spans["notes"]
    values = {}
    for label in layers.LAYERS + layers.STAGES:
        calls, total, own = stats.get(label, [0, 0.0, 0.0])
        values.update({f"{label}.calls": calls, f"{label}.total_s": total, f"{label}.self_s": own})
    rows = notes.get("metrics.silhouette", [])
    values["metrics.silhouette.dist_bytes"] = 8 * max(rows) ** 2 if rows else 0
    digests = notes.get("cli.pretrain_stage", [])
    values["cli.sweep.pretrain_runs"] = len(digests)
    values["cli.sweep.distinct_pretrain_ratio"] = len(set(digests)) / len(digests) if digests else 0.0
    cells = notes.get("cli._run_sweep_cell", [])
    values["cli.sweep.cell_s"] = statistics.median(cells) if cells else 0.0
    values["trace.absent_layers"] = len(op.spans["absent"])
    values["trace.wrapper_s"] = wrapper_s_per_call * sum(s[0] for s in stats.values())
    return values


def machine_info() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    found = " ".join(
        f"{k}={os.environ.get(k, 'unset')}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "KCOD_THREADS")
    )
    return (
        f"machine nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} blas={blas} {found}"
    )


def load_contract() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and the per-layer metrics this benchmark reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        contract = json.load(fh)
    return {m["name"]: m["unit"] for m in contract["end_to_end"]}, {m["name"]: m["unit"] for m in contract["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops the commands it started, which run in their own sessions.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "kcod", "cli.py")):
        print(f"error: no kcod sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_contract()
    workload = WORKLOADS[args.workload]
    env = {**os.environ, **workload.env}  # BLAS thread variables stay as found
    work = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(workload, args, env, work, end_to_end, per_layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it


def measure(workload: Workload, args, env: dict, work: str, end_to_end: dict, per_layer: dict) -> int:
    print(machine_info())
    print(f"workload {workload.name} seed {args.seed}: closed loop, 1 client, {args.seconds:g} s")

    setups = []
    for r in range(workload.setup_repeats):
        base = os.path.join(work, f"setup{r}")
        inputs = os.path.join(base, "inputs")
        setup = run_sequence(workload.setup(inputs, args.seed), base, False, env)
        if setup.problems:
            print(f"error: set-up failed: {setup.problems}", file=sys.stderr)
            return 1
        setups.append(setup)
        if r:
            shutil.rmtree(base, ignore_errors=True)
    inputs = os.path.join(work, "setup0", "inputs")
    print(f"setup {workload.setup_repeats} repeats: " + " ".join(f"{s.wall_s:.3f}" for s in setups) + " s")

    wrapper_s = layers.wrapper_seconds_per_call() if args.trace else 0.0
    expected = load_quality_reference(workload.name, args.seed)
    ops: list[Sequence] = []
    failed = 0
    first_digest = None
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        base = os.path.join(work, f"op{len(ops)}")
        op = run_operation(workload, base, inputs, args.seed, traced, env)
        if not op.problems:
            first_digest = first_digest or op.digest
            if op.digest != first_digest:
                op.problems.append("outputs differ from the first operation of this seed")
            op.problems += quality_problems(op.quality, expected)
        failed += bool(op.problems)
        ops.append(op)
        shutil.rmtree(base, ignore_errors=True)
        status = "ok" if not op.problems else "FAILED " + "; ".join(op.problems)
        stages = " ".join(f"{name[:-2]} {op.stage_s(label):.3f}" for name, label in STAGE_METRICS.items())
        print(f"op {len(ops) - 1}{' traced' if traced else ''} wall {op.wall_s:.3f} s {stages} s peak {op.peak_kb * 1024 / 1e6:.1f} MB {status}")
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(o.wall_s for o in ops)
        if len(ops) >= MIN_OPERATIONS and elapsed + typical > args.seconds:
            break
        if time.perf_counter() - START + typical > RUN_LIMIT_S:
            break

    good = [o for o in ops if not o.problems]
    print(f"fail_ratio {failed / len(ops):.4f} ratio ({failed} of {len(ops)} operations failed)")
    if not good:
        print(json.dumps({"correct": False, "attempted": len(ops), "failed": failed, "metrics": {}}))
        return 1
    quality = good[0].quality
    print("quality " + " ".join(f"{k} {v:.4f} ratio" for k, v in quality.items()) + " (deterministic per seed)")
    if expected:
        diff = [round(quality[k], 4) - v for k, v in expected.items()]
        verdict = "reproduced" if not any(diff) else "exceeded" if min(diff) >= 0 else "within tolerance"
        recorded = "/".join(f"{v:.4f}" for v in expected.values())
        print(f"reference acc/ari/nmi {recorded} for seed {args.seed}: {verdict}")
    else:
        print(f"no reference acc/ari/nmi recorded for seed {args.seed}")

    if args.trace:
        traced_ops = [o for o in good if o.traced]
        # Each traced operation against the untraced one just before it, so that
        # a host slowing down over the run shifts both sides alike.
        pairs = [(ops[i - 1], o) for i, o in enumerate(ops) if o in traced_ops and not ops[i - 1].problems]
        values = {f"quality.{k}": v for k, v in quality.items()}
        if pairs:
            per_op = [layer_metrics(o, wrapper_s) for o in traced_ops]
            values.update({name: statistics.median(v[name] for v in per_op) for name in per_op[0]})
            values["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, t in pairs)
            spans = traced_ops[-1].spans
            for label, sites in sorted(spans["sites"].items()):
                print(f"traced {label} as {', '.join(sites)}")
            print(f"layers absent from this kcod: {', '.join(spans['absent']) or 'none'}")
            print(f"processes that reported spans in one traced operation: {spans['pids']}")
        wanted = per_layer
    else:
        values = {
            "setup_s": statistics.median(s.wall_s for s in setups),
            "wall_s": min(o.wall_s for o in good),
            "peak_rss_mb": statistics.median(o.peak_kb for o in good) * 1024 / 1e6,
        }
        for name, label in STAGE_METRICS.items():
            per_op = [o.stage_s(label) for o in good]
            if not any(per_op):  # a stage that only set-up runs, as large_ood's pretrain
                per_op = [s.stage_s(label) for s in setups]
            values[name] = min(per_op)
        wanted = end_to_end

    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"error: this run cannot compute {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
