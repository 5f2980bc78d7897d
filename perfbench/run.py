"""End-to-end and per-layer benchmark of the `digar` CLI.

    python3 perfbench/run.py --workload clt --seed 7 --seconds 35 --trace 0

Run from the root of a source tree.  Each `digar` command runs as a fresh
Python process on the tree's `src/`, one at a time, with DIGAR_THREADS
unset.  A run repeats its workload (the commands in perfbench/workloads.py)
for about --seconds seconds with inputs derived from --seed, checks every
output and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  Earlier lines hold a table with
each metric's median, tail percentile and sample count, and the run
manifest as JSON.

--trace 0 reports the end-to-end metrics: wall_s, steps_per_s, cpu_s,
peak_rss_mb and setup_s.  --trace 1 alternates untraced iterations with
iterations whose commands run under perfbench/tracer.py, which times the
calls between the package's modules, and reports the per-layer metrics.

The end-to-end times are host-normalized.  A run of perfbench/calibrate.py,
fixed work that uses nothing of the package, precedes and follows every
timed command, and the command's wall and CPU seconds are multiplied by
CAL_REF_S over the mean wall time of those two calibrations.  On a shared
host whose speed drifts by a third over minutes this cancels the drift; a
time reads as seconds on a host where the calibration takes CAL_REF_S.
The raw medians are in the manifest.

An operation is one CLI command.  It fails when it exits nonzero or its
output fails a check; `correct` turns false when an output that was
produced is wrong, when outputs of one run differ between iterations, or
when a command exits nonzero, except for the CLI's domain-error exit 3
from a command its workload marks as one that may refuse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
CLI = "import sys; from digar.cli import main; sys.exit(main())"

MIN_ITERATIONS = 3  # untraced run
MIN_TRACED = 2  # traced run: pairs of one untraced and one traced iteration
SETUP_SAMPLES = 9  # at least this many fresh imports per run
RUN_BUDGET_S = 150.0  # no iteration starts that would end past this
# Reference speed of the normalized times: calibrate.py's typical wall time
# on the 2-vCPU shared host the baseline was measured on.
CAL_REF_S = 0.4

# Metric names and units, as the benchmark declares them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}
LABELS = {
    **{name: "host-normalized" for name in ("wall_s", "steps_per_s", "cpu_s", "setup_s")},
    "simulation.kernel_s": "derived: blocks_s - rng_s",
    "simulation.kernel_bytes": "computed: 8*n*(3T+1) per block",
    "simulation.rng_s": "direct fill of the same rows, outside the traced run",
    "trace.overhead_s": "traced wall - untraced wall, per pair",
}


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str
    scale: float = 1.0  # CAL_REF_S / mean wall of the calibrations around it

    @property
    def norm_wall(self) -> float:
        return self.wall * self.scale

    @property
    def norm_cpu(self) -> float:
        return self.cpu * self.scale


class Launcher:
    """Runs commands one at a time through perfbench/launcher.py, which
    keeps their max-RSS readings free of this process's memory."""

    def __init__(self, env: dict, work: Path) -> None:
        self._err = work / "stderr.txt"
        self._proc = subprocess.Popen([sys.executable, str(LAUNCHER)], env=env, cwd=ROOT,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._last_cal: Proc | None = None
        self.calibrations: list[float] = []

    def calibrate(self) -> Proc:
        cal = self.run([sys.executable, str(CALIBRATE)])
        if cal.rc != 0:
            raise RuntimeError(f"calibration run exited {cal.rc}: {cal.stderr}")
        self.calibrations.append(cal.wall)
        self._last_cal = cal
        return cal

    def run_normalized(self, argv: list[str]) -> Proc:
        """Run argv between two calibration runs and set its scale."""
        before = self._last_cal or self.calibrate()
        proc = self.run(argv)
        proc.scale = 2 * CAL_REF_S / (before.wall + self.calibrate().wall)
        return proc

    def run(self, argv: list[str]) -> Proc:
        self._last_cal = None
        self._proc.stdin.write(json.dumps({"argv": argv, "stderr": str(self._err)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the process launcher exited early")
        r = json.loads(line)
        text = self._err.read_text(errors="replace").strip().splitlines()
        return Proc(r["rc"], r["wall"], r["cpu"], r["maxrss_kb"] * 1024 / 1e6, text[-1] if text else "")

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        # The launcher exits at end of input, after any command it runs.
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


class Verifier:
    """Counts operations and failures, and checks each output: fully the
    first time its bytes are seen, and for byte identity with the first
    iteration of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}  # command -> why it failed
        self.wrong: dict[str, str] = {}  # command -> why its output is wrong
        self._first: dict[int, str] = {}
        self._verdicts: dict[str, list[str]] = {}

    def record(self, index: int, op: Op, proc: Proc) -> None:
        self.attempted += 1
        command = " ".join(a for a in op.argv if not a.startswith(str(ROOT)))
        if proc.rc != 0:
            self.failed += 1
            self.failures[command] = f"exit {proc.rc}: {proc.stderr}"
            if not (proc.rc == 3 and op.may_refuse):
                self.wrong[command] = self.failures[command]
            return
        try:
            data = op.out.read_bytes()
        except OSError as exc:
            problems = [f"no output: {exc}"]
        else:
            digest = hashlib.sha256(data).hexdigest()
            if digest not in self._verdicts:
                try:
                    self._verdicts[digest] = op.check(data)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self._verdicts[digest] = [f"malformed output: {exc!r}"]
            problems = list(self._verdicts[digest])
            if self._first.setdefault(index, digest) != digest:
                problems.append("output bytes differ from the run's first iteration")
        if problems:
            self.failed += 1
            self.failures[command] = self.wrong[command] = "; ".join(problems)


def run_ops(ops: list[Op], launcher: Launcher, verifier: Verifier,
            spans_dir: Path | None = None) -> list[Proc]:
    """Run the commands in order: untraced ones between calibrations,
    traced ones under the tracer."""
    procs = []
    for i, op in enumerate(ops):
        op.out.unlink(missing_ok=True)
        if spans_dir is None:
            proc = launcher.run_normalized([sys.executable, "-c", CLI, *op.argv])
        else:
            proc = launcher.run([sys.executable, str(TRACER), str(spans_dir / f"op{i}.jsonl"), *op.argv])
        verifier.record(i, op, proc)
        procs.append(proc)
    return procs


def read_spans(spans_dir: Path) -> tuple[list[dict], list[str]]:
    spans, absent = [], set()
    for f in sorted(spans_dir.glob("op*.jsonl")):
        lines = f.read_text().splitlines()
        absent.update(json.loads(lines[0])["absent"])
        for line in lines[1:]:
            s = json.loads(line)
            s["file"] = f.name
            spans.append(s)
    return spans, sorted(absent)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts from one traced iteration's spans.  Self
    time is a span's duration minus its direct children's durations."""
    covered: dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[(s["file"], s["parent"])] += s["t1"] - s["t0"]
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        name, dur = s["name"], s["t1"] - s["t0"]
        own = dur - covered[(s["file"], s["id"])]
        if name == "cli.main":
            m["cli.self_s"] += own
        elif name == "model.variance_sequence":
            m["model.variance_s"] += dur
            m["model.variance_steps"] += s["steps"]
        elif name == "dependence.dependence_profile":
            m["dependence.self_s"] += own
        elif name == "simulation.iter_path_blocks":
            m["simulation.blocks_s"] += own
            if "rows" in s:
                n, T = s["rows"], s["T"]
                m["simulation.blocks"] += 1
                m["simulation.rows"] += n
                m["simulation.steps"] += n * T
                m["simulation.kernel_bytes"] += 8 * n * (3 * T + 1)
        elif name == "simulation.normal_stream":
            m["simulation.stream_setup_s"] += dur
        elif name == "simulation.simulate_path":
            m["simulation.path_s"] += own
        elif name == "estimation.infeasible_estimate":
            m["estimation.estimate_s"] += dur
        elif name == "experiments.ks_distance":
            m["experiments.ks_s"] += dur
        elif name.startswith("experiments."):
            m["experiments.self_s"] += own
    return m


def rng_fill_seconds(seed: int, batch: tuple[int, int] | None) -> float:
    """Time to fill the batch's rows straight from their PCG64 streams,
    the way the batch route draws them; streams are built untimed."""
    if batch is None:
        return 0.0
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        from digar.simulation import mix_seed, normal_stream
    except ImportError:
        return 0.0

    R, T = batch
    row = np.empty(T)
    total = 0.0
    for start in range(0, R, 500):
        streams = [normal_stream(mix_seed(seed, r)) for r in range(start, min(R, start + 500))]
        t0 = time.perf_counter()
        for g in streams:
            row[:] = g.standard_normal(T)
        total += time.perf_counter() - t0
    return total


def tail(values: list[float]) -> tuple[int | None, float | None]:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100 >= 10:
            return q, float(np.percentile(values, q))
    return None, None


def machine() -> dict:
    cpu_model = l3 = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "l3_cache": l3,
            "python": platform.python_version(), "numpy": np.__version__}


def source_identity() -> dict:
    """Git commit when the tree is a git checkout, and a digest of the
    package sources either way."""
    try:
        # The ceiling keeps git from reporting a repository above the tree.
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "digar").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def traced_iteration(wl: Workload, seed: int, ops: list[Op], launcher: Launcher,
                     verifier: Verifier, spans_dir: Path) -> tuple[list[Proc], dict, list[str]]:
    """Run the workload's commands under the tracer; return the processes,
    the per-layer metrics and the absent wrapper targets."""
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir()
    procs = run_ops(ops, launcher, verifier, spans_dir)
    spans, absent = read_spans(spans_dir)
    m = layer_metrics(spans)
    m["cli.bytes_out"] = sum(op.out.stat().st_size for op in ops if op.out.is_file())
    m["cli.bytes_in"] = sum(Path(op.argv[op.argv.index("--in") + 1]).stat().st_size
                            for op in ops if "--in" in op.argv)
    m["simulation.rng_s"] = rng_fill_seconds(seed, wl.batch)
    m["simulation.kernel_s"] = m["simulation.blocks_s"] - m["simulation.rng_s"]
    return procs, m, absent


def measure(wl: Workload, seed: int, seconds: int, trace: bool, work: Path, t_start: float) -> dict:
    """Repeat the workload until about `seconds` after t_start; return
    each metric's per-iteration samples, the raw medians, the verifier and
    the absent wrappers."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DIGAR_THREADS", None)
    verifier = Verifier()
    samples: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    ops = wl.ops(seed, work)
    overheads, durations, setup_durations = [], [], []
    absent: list[str] = []
    import_argv = [sys.executable, "-c", "import digar.cli"]
    with Launcher(env, work) as launcher:
        for argv, out in wl.references(seed, work):
            proc = launcher.run([sys.executable, "-c", CLI, *argv])
            if proc.rc != 0 or not out.is_file():
                verifier.wrong[" ".join(argv[:4])] = f"reference run exited {proc.rc}: {proc.stderr}"
        while True:
            t_iter = time.perf_counter()
            setup = launcher.run_normalized(import_argv)
            setup_durations.append(time.perf_counter() - t_iter)
            if setup.rc != 0:
                verifier.wrong["import digar.cli"] = f"exit {setup.rc}: {setup.stderr}"
            samples["setup_s"].append(setup.norm_wall)
            raw["setup_s"].append(setup.wall)
            procs = run_ops(ops, launcher, verifier)
            wall = sum(p.norm_wall for p in procs)
            samples["wall_s"].append(wall)
            samples["steps_per_s"].append(wl.steps / wall)
            samples["cpu_s"].append(sum(p.norm_cpu for p in procs))
            samples["peak_rss_mb"].append(max(p.rss_mb for p in procs))
            raw["wall_s"].append(sum(p.wall for p in procs))
            raw["cpu_s"].append(sum(p.cpu for p in procs))
            if trace:
                procs, m, absent = traced_iteration(wl, seed, ops, launcher, verifier, work / "spans")
                # Paired with the untraced iteration just before it, so
                # that slow drift of the host cancels.
                overheads.append(sum(p.wall for p in procs) - raw["wall_s"][-1])
                for name in PER_LAYER:
                    if name != "trace.overhead_s":
                        samples[name].append(float(m.get(name, 0.0)))
            now = time.perf_counter()
            durations.append(now - t_iter)
            # The set-up samples still missing after the next iteration
            # are taken before the run ends.
            missing = max(0, SETUP_SAMPLES - len(samples["setup_s"]) - 1)
            elapsed = now - t_start
            typical = statistics.median(durations) + missing * statistics.median(setup_durations)
            if elapsed + typical > RUN_BUDGET_S:
                break
            if len(durations) >= (MIN_TRACED if trace else MIN_ITERATIONS) and elapsed + typical > seconds:
                break
        while len(samples["setup_s"]) < SETUP_SAMPLES:
            setup = launcher.run_normalized(import_argv)
            samples["setup_s"].append(setup.norm_wall)
            raw["setup_s"].append(setup.wall)
        raw["calibration_s"] = launcher.calibrations
    if trace:
        samples["trace.overhead_s"] = overheads
    medians = {name: float(statistics.median(v)) for name, v in raw.items()}
    return {"samples": samples, "raw": medians, "verifier": verifier, "absent": absent,
            "iterations": len(durations)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "digar" / "cli.py").is_file():
        print(f"error: no digar sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    seed = args.seed % (1 << 64)
    wl = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = measure(wl, seed, args.seconds, bool(args.trace), work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    samples, verifier = res["samples"], res["verifier"]
    metrics, sample_info = {}, {}
    print(f"{'metric':26s} {'median':>12s} {'unit':6s} {'tail':>14s} {'n':>3s}")
    for name, unit in units.items():
        med = float(statistics.median(samples[name]))
        q, qv = tail(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        sample_info[name] = {"n": len(samples[name]), "tail_percentile": q, "tail_value": qv}
        tail_text = f"p{q}={qv:.6g}" if q else "n/a (n<20)"
        label = f"  [{LABELS[name]}]" if name in LABELS else ""
        print(f"{name:26s} {med:12.6g} {unit:6s} {tail_text:>14s} {len(samples[name]):3d}{label}")
    print(f"operations: {verifier.failed} failed of {verifier.attempted} attempted"
          f" (fail_frac {verifier.failed / max(verifier.attempted, 1):.4g})")
    for command, why in verifier.failures.items():
        print(f"  failed: {command}: {why}")
    for command, why in verifier.wrong.items():
        print(f"  WRONG: {command}: {why}")
    manifest = {
        "workload": wl.name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        **machine(), **source_identity(),
        "DIGAR_THREADS": "unset", "iterations": res["iterations"], "samples": sample_info,
        "cal_ref_s": CAL_REF_S, "raw_medians": res["raw"],
        "failures": verifier.failures, "absent_wrappers": res["absent"],
    }
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": not verifier.wrong,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
