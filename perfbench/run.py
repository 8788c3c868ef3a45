"""Benchmark of nmrteleport as its users run it.

    python3 perfbench/run.py --workload pulse-long --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; nothing needs to be installed.
Every child runs the working tree (``src`` on ``PYTHONPATH``) and writes
into a temporary directory under ``.bench_build/perfbench``, which is
removed at exit.  The load comes from one closed loop: one child process
at a time, the next started only after the previous one has exited.

Workloads (inputs come only from ``--seed``):

* ``pulse-long``: a fresh ``compare --engine pulse`` per operation on a
  seeded grid of 30 delays in [0, 1.2] s.  The pulse engine's physics is
  over half of each call; interpreter start, imports and ``cli`` the rest.
* ``gate-scan``: one child (``gate_scan.py``) looping over the public API;
  every item is a new seeded molecule swept on the gate engine over 6
  delays and fitted.  No pulse code runs and nothing is reused.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
operations in passes, alternating untraced and traced ones (see
``tracer.py``), and prints the per-layer metrics.  Every run checks the
outputs (exit code, byte identity with the first repetition, closed-form
and cross-engine oracles) and prints, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
PYTHON = sys.executable

DEADLINE_S = 170.0  # the whole run, so that it ends within three minutes
# Set-up is timed this many times, half before and half after the measured
# window, so that its median follows a drift of the machine's speed during
# the run as the operations do.
SETUP_REPEATS = 6
IMPORTTIME_REPEATS = 3
# The tail latency is the highest percentile with ten operations beyond it,
# so every run measures at least eleven operations.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
GATE_SCAN_CHECKED_ITEMS = 4
GATE_SCAN_TRACE_ITEMS = 20
MIN_TRACED_PASSES = 2

CONTROL_TOL = 1e-9
DELAY0_TOL = 1e-12
CROSS_ENGINE_TOL = 1e-6

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Fatal(Exception):
    """The program cannot be benchmarked at all; no result is printed."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Byte-compiled modules are cached as for a user with a writable
    # install, but inside the checkout, whatever the caller's settings.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class Runner:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = _child_env()
        self._count = 0

    def remaining(self) -> float:
        return self.deadline - perf_counter()

    def fresh_dir(self) -> Path:
        self._count += 1
        return self.tmp / f"out{self._count}"

    def spawn(self, argv: list[str]) -> Child:
        timeout = self.remaining()
        if timeout <= 0:
            return Child(-1, 0.0, 0.0, 0.0, b"", b"deadline passed before start")
        with tempfile.TemporaryFile(dir=self.tmp) as out, tempfile.TemporaryFile(dir=self.tmp) as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            status, usage = _wait(proc.pid, timeout)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(
                proc.returncode,
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                out.read(),
                err.read(),
            )

    def cli(self, args: list[str], trace: Path | None = None) -> tuple[Child, dict[str, bytes]]:
        """One CLI invocation in a fresh interpreter; returns its output bytes."""
        out_dir = self.fresh_dir()
        entry = [str(HERE / "tracer.py"), str(trace)] if trace else ["-m", "nmrteleport"]
        child = self.spawn([PYTHON, *entry, *args, "--out", str(out_dir)])
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
        files["stdout"] = child.stdout
        shutil.rmtree(out_dir, ignore_errors=True)
        return child, files


def _wait(pid: int, timeout: float):
    """os.wait4 with a timeout; the child is killed and reaped when it expires."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


# ---------------------------------------------------------------- outputs


def _compare_rows(files: dict[str, bytes]) -> list[tuple[float, float, float]]:
    reader = csv.reader(io.StringIO(files["compare.csv"].decode()))
    next(reader)
    return [(float(d), float(t), float(c)) for d, t, c in reader]


def _check_compare(files, reference) -> list[str]:
    """Verdicts, control closed form, teleport at delay 0, cross-engine teleport."""
    problems = []
    verdicts = [l for l in files["summary.txt"].decode().splitlines() if l.startswith("verdict")]
    if len(verdicts) != 3 or not all(l.endswith(": yes") for l in verdicts):
        problems.append(f"compare verdicts {verdicts}")
    rows = _compare_rows(files)
    t1, t2 = workloads.TCE_CARBON_T1, workloads.TCE_C2_T2
    for d, _, fc in rows:
        if not abs(fc - workloads.control_fidelity(d, t1, t2)) <= CONTROL_TOL:
            problems.append(f"control fe {fc} at delay {d} is off the closed form")
    if not (rows and rows[0][0] == 0.0 and abs(rows[0][1] - 1.0) <= DELAY0_TOL):
        problems.append("teleport fe at delay 0 is not 1")
    ref = _compare_rows(reference)
    if [r[0] for r in ref] != [r[0] for r in rows] or any(
        not abs(a[1] - b[1]) <= CROSS_ENGINE_TOL for a, b in zip(rows, ref)
    ):
        problems.append("teleport curve disagrees with the other engine")
    return problems


# ---------------------------------------------------------------- workloads


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    points: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


@dataclass
class Pass:
    wall_s: float
    trace: dict | None
    bytes_written: int


class PulseLongWorkload:
    """A fresh ``compare --engine pulse`` per operation, on one seeded delay grid."""

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        delays = ",".join(repr(x) for x in workloads.pulse_long_delays(seed))
        self.args = ["compare", "--engine", "pulse", "--delays", delays]
        # The gate engine's curve is the cross-engine reference.
        self.reference_args = ["compare", "--engine", "gate", "--delays", delays]

    def setup_argv(self) -> list[str]:
        return [PYTHON, "-c", "import nmrteleport.cli"]

    def warmup(self) -> Child:
        return self.runner.cli(self.args)[0]

    def check_outputs(self, child: Child, files: dict[str, bytes]) -> list[str]:
        """Oracles on one invocation's outputs, with the reference run."""
        if child.code != 0:
            return [f"exit {child.code}: {child.stderr[-300:]!r}"]
        ref_child, reference = self.runner.cli(self.reference_args)
        if ref_child.code != 0:
            return [f"reference run exited {ref_child.code}"]
        try:
            return _check_compare(files, reference)
        except (KeyError, ValueError, StopIteration) as exc:
            return [f"unreadable output: {exc!r}"]

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        runs: list[tuple[Child, dict]] = []
        start = perf_counter()
        while self.runner.remaining() > 0 and (perf_counter() - start < seconds or len(runs) < MIN_OPS):
            child, files = self.runner.cli(self.args)
            runs.append((child, files))
            m.latencies.append(child.wall_s)
            m.cpu_s += child.cpu_s
            m.peak_rss_mb = max(m.peak_rss_mb, child.maxrss_mb)
        m.wall_s = perf_counter() - start
        first_child, first = runs[0]
        m.problems = self.check_outputs(first_child, first)
        for child, files in runs[1:]:
            if child.code != 0:
                m.problems.append(f"exit {child.code}: {child.stderr[-300:]!r}")
            elif files != first:
                m.problems.append("output bytes differ from the first repetition")
        oks = [not m.problems and child.code == 0 and files == first for child, files in runs]
        m.attempted = len(oks)
        m.failed = oks.count(False)
        m.points = 2 * workloads.PULSE_LONG_DELAYS * oks.count(True)
        return m

    def run_pass(self, traced: bool, trace_dir: Path, outputs: dict, m: Measurement) -> Pass:
        """One invocation; its outputs must match the first pass."""
        trace_file = trace_dir / "pulse-long.json"
        child, files = self.runner.cli(self.args, trace_file if traced else None)
        m.attempted += 1
        bytes_written = sum(len(b) for b in files.values())
        _, first = outputs.setdefault("first", (child, files))
        if child.code != 0 or files != first:
            m.failed += 1
            m.problems.append(f"exit {child.code} or outputs differ between passes")
            return Pass(child.wall_s, None, bytes_written)
        trace = json.loads(trace_file.read_text()) if traced else None
        trace_file.unlink(missing_ok=True)
        return Pass(child.wall_s, trace, bytes_written)

    def check_pass_outputs(self, outputs: dict, m: Measurement) -> None:
        problems = self.check_outputs(*outputs["first"])
        if problems:
            m.failed += 1
            m.problems += problems


class GateScanWorkload:
    """One child looping over the public API (``gate_scan.py``)."""

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.seed = seed
        self.script = str(HERE / "gate_scan.py")

    def setup_argv(self) -> list[str]:
        return [PYTHON, self.script, "setup", "--seed", str(self.seed)]

    def _scan(self, *args: str) -> tuple[Child, dict | None]:
        out = self.runner.fresh_dir().with_suffix(".json")
        child = self.runner.spawn([PYTHON, self.script, *args, "--seed", str(self.seed), "--out", str(out)])
        result = json.loads(out.read_text()) if child.code == 0 and out.is_file() else None
        out.unlink(missing_ok=True)
        return child, result

    def warmup(self) -> Child:
        return self._scan("run", "--max-items", "1")[0]

    def _check_items(self, items: list[dict]) -> dict[int, list[str]]:
        """Closed-form and verdict oracles on every item, keyed by item index."""
        problems: dict[int, list[str]] = {}
        for it in items:
            params = workloads.gate_scan_item(self.seed, it["item"])
            bad = problems.setdefault(it["item"], [])
            if it["delays"] != list(params["delays"]):
                bad.append("delays differ from the generated grid")
            for d, fc in zip(it["delays"], it["fe_control"]):
                if not abs(fc - workloads.control_fidelity(d, params["carbon_t1"], params["c2_t2"])) <= CONTROL_TOL:
                    bad.append(f"control fe {fc} at delay {d} is off the closed form")
            if not abs(it["fe_teleport"][0] - 1.0) <= DELAY0_TOL:
                bad.append("teleport fe at delay 0 is not 1")
            if not all(it["verdicts"]):
                bad.append(f"compare verdicts {it['verdicts']}")
        return problems

    def _recheck(self, items: list[dict], problems: dict[int, list[str]]) -> None:
        """Byte identity and cross-engine agreement on items spread over the run."""
        n = len(items)
        picks = sorted({round(i * (n - 1) / (GATE_SCAN_CHECKED_ITEMS - 1)) for i in range(GATE_SCAN_CHECKED_ITEMS)})
        child, result = self._scan("check", "--items", ",".join(str(items[i]["item"]) for i in picks))
        if result is None:
            for i in picks:
                problems[items[i]["item"]].append(f"check child exited {child.code}")
            return
        for i, again in zip(picks, result["items"]):
            pulse = again.pop("pulse_fe_teleport")
            if json.dumps(again, sort_keys=True) != json.dumps(items[i], sort_keys=True):
                problems[items[i]["item"]].append("outputs differ from the first computation")
            if any(not abs(a - b) <= CROSS_ENGINE_TOL for a, b in zip(items[i]["fe_teleport"], pulse)):
                problems[items[i]["item"]].append("teleport curve disagrees with the pulse engine")

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        child, result = self._scan(
            "run", "--seconds", repr(seconds), "--min-items", str(MIN_OPS)
        )
        m.peak_rss_mb = child.maxrss_mb
        if result is None:
            m.attempted = m.failed = 1
            m.problems.append(f"scan child exited {child.code}: {child.stderr[-300:]!r}")
            m.latencies, m.wall_s = [child.wall_s], child.wall_s
            return m
        items = result["items"]
        m.latencies = result["latency_s"]
        m.wall_s = result["wall_s"]
        m.cpu_s = result["cpu_s"]
        problems = self._check_items(items)
        self._recheck(items, problems)
        for it in items:
            m.attempted += 1
            if problems[it["item"]]:
                m.failed += 1
                m.problems += [f"item {it['item']}: {p}" for p in problems[it["item"]]]
            else:
                m.points += 2 * len(it["delays"])
        m.notes["child_wall_s"] = child.wall_s
        return m

    def run_pass(self, traced: bool, trace_dir: Path, outputs: dict, m: Measurement) -> Pass:
        """One child running a fixed number of items; outputs must match the first pass."""
        trace_file = trace_dir / "gate-scan.json"
        extra = ["--trace", str(trace_file)] if traced else []
        n = str(GATE_SCAN_TRACE_ITEMS)
        child, result = self._scan("run", "--min-items", n, "--max-items", n, *extra)
        m.attempted += GATE_SCAN_TRACE_ITEMS
        items = result["items"] if result else None
        first = outputs.setdefault("items", items)
        if items is None or items != first:
            m.failed += GATE_SCAN_TRACE_ITEMS
            m.problems.append(f"scan exited {child.code} or outputs differ between passes")
            return Pass(child.wall_s, None, 0)
        trace = json.loads(trace_file.read_text()) if traced else None
        trace_file.unlink(missing_ok=True)
        return Pass(child.wall_s, trace, 0)

    def check_pass_outputs(self, outputs: dict, m: Measurement) -> None:
        items = outputs.get("items") or []
        problems = self._check_items(items)
        if items:
            self._recheck(items, problems)
        bad = [i for i, p in problems.items() if p]
        m.failed += len(bad)
        m.problems += [f"item {i}: {problems[i]}" for i in bad]


WORKLOADS = {"pulse-long": PulseLongWorkload, "gate-scan": GateScanWorkload}


# ---------------------------------------------------------------- traces


# Span names behind a metric prefix, where they differ from the prefix.
SPAN_ALIASES = {"circuits.build": ("circuits.teleport_circuit", "circuits.control_circuit")}
SPAN_FIELDS = {"calls": "calls", "constructions": "calls", "s": "s", "self_s": "self_s"}
SPAN_METRICS = (
    "cli.main.s",
    "cli.self_s",
    "experiment.run_sweep.calls",
    "experiment.run_sweep.s",
    "experiment.build_process.s",
    "experiment.fit_decay.calls",
    "experiment.fit_decay.s",
    "experiment.compare_curves.s",
    "tomography.process_tomography.calls",
    "tomography.process_tomography.self_s",
    "tomography.state_tomography.calls",
    "qstate.pauli_expectation.calls",
    "circuits.build.calls",
    "circuits.build.s",
    "circuits.run_circuit.calls",
    "circuits.run_circuit.self_s",
    "nmr.run_circuit_pulse.calls",
    "nmr.run_circuit_pulse.self_s",
    "nmr.compile_gate.calls",
    "nmr.compile_gate.s",
    "nmr.simulate_schedule.calls",
    "nmr.simulate_schedule.self_s",
    "channels.apply_channel.calls",
    "channels.apply_channel.self_s",
    "channels.relaxation_channel.calls",
    "channels.relaxation_channel.s",
    "qstate.DensityMatrix.constructions",
    "qstate.DensityMatrix.s",
    "qstate.eigvalsh.calls",
    "qstate.lift_operator.calls",
    "qstate.lift_operator.s",
    "qstate.partial_trace.calls",
)
COUNTER_METRICS = ("nmr.rf_rotations", "nmr.free_evolutions", "channels.kraus_elements_applied")
POINT_LABELS = ("gate_teleport", "gate_control", "pulse_teleport", "pulse_control")
IMPORT_PACKAGES = ("nmrteleport", "numpy", "scipy", "yaml")


def layer_metrics(trace: dict) -> dict[str, float]:
    out = {}
    for name in SPAN_METRICS:
        if name == "cli.self_s":
            prefix, suffix = "cli.main", "self_s"
        else:
            prefix, suffix = name.rsplit(".", 1)
        spans = [trace["spans"].get(s, {}) for s in SPAN_ALIASES.get(prefix, (prefix,))]
        out[name] = sum(s.get(SPAN_FIELDS[suffix], 0) for s in spans)
    for name in COUNTER_METRICS:
        out[name] = trace["counters"].get(name, 0)
    points = trace["points"]
    total_points = sum(p["points"] for p in points.values())
    total_constructions = sum(p["constructions"] for p in points.values())
    out["qstate.constructions_per_point"] = total_constructions / total_points if total_points else 0
    for label in POINT_LABELS:
        p = points.get(label)
        out[f"qstate.constructions_per_point.{label}"] = p["constructions"] / p["points"] if p else 0
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds of ``import nmrteleport.cli`` per top-level package.

    A dependency's time is that of its outermost imports: everything
    imported beneath numpy, scipy or yaml counts for it, including modules
    of the other packages imported there first.  The rest of the work
    beneath ``nmrteleport`` counts for nmrteleport.  ``import.total_s`` is
    the sum of the four.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        stripped = name.lstrip()
        rows.append(((len(name) - len(stripped) - 1) // 2, stripped.strip(), int(self_us)))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    owners: list[str | None] = []  # owning package per nesting level, outermost first
    # -X importtime prints a module after the modules it imported; reversed,
    # every module comes before the ones it imported.
    for level, name, self_us in reversed(rows):
        top = name.split(".")[0]
        del owners[level:]
        parent = owners[-1] if owners else None
        owner = parent if parent not in (None, "nmrteleport") or top not in totals else top
        owners.append(owner)
        if owner is not None:
            totals[owner] += self_us
    out = {"import.total_s": sum(totals.values()) / 1e6}
    out.update({f"import.{p}_s": totals[p] / 1e6 for p in IMPORT_PACKAGES})
    return out


# ---------------------------------------------------------------- report


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile rank of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < MIN_OPS:
        return ordered[-1], 100.0
    return ordered[n - MIN_OPS], 100.0 * (n - TAIL_BEYOND) / n


def environment(load_before, load_after, blas) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "PyYAML": version("PyYAML"),
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "load_above_nproc": max(load_before[0], load_after[0]) > nproc,
        "machine": platform.machine(),
    }


def blas_info(runner: Runner):
    code = (
        "import json, numpy; "
        "print(json.dumps(numpy.show_config(mode='dicts')['Build Dependencies'].get('blas')))"
    )
    child = runner.spawn([PYTHON, "-c", code])
    try:
        return json.loads(child.stdout) if child.code == 0 else None
    except ValueError:
        return None


def time_setup(workload, runner: Runner, repeats: int) -> list[float]:
    setups = []
    for _ in range(repeats):
        child = runner.spawn(workload.setup_argv())
        if child.code != 0:
            raise Fatal(f"set-up exited {child.code}: {child.stderr[-500:]!r}")
        setups.append(child.wall_s)
    return setups


def run_untraced(workload, runner: Runner, seconds: float) -> tuple[dict, Measurement, dict]:
    setups = time_setup(workload, runner, SETUP_REPEATS // 2)
    m = workload.measure(seconds)
    setups += time_setup(workload, runner, SETUP_REPEATS - SETUP_REPEATS // 2)
    value, rank = tail(m.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(m.latencies), "s"),
        "latency_tail_s": (value, "s"),
        "points_per_s": (m.points / m.wall_s if m.wall_s > 0 else 0.0, "1/s"),
        "cpu_s_per_point": (m.cpu_s / max(m.points, 1), "s"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
        "success_ratio": ((m.attempted - m.failed) / max(m.attempted, 1), "ratio"),
    }
    details = {
        "operations": len(m.latencies),
        "tail_percentile": rank,
        "points": m.points,
        "workload_wall_s": m.wall_s,
        "fail_ratio": m.failed / max(m.attempted, 1),
        "setup_samples_s": setups,
        **m.notes,
    }
    return metrics, m, details


def run_traced(workload, runner: Runner, seconds: float, tmp: Path) -> tuple[dict, Measurement, dict]:
    imports = []
    for _ in range(IMPORTTIME_REPEATS):
        child = runner.spawn([PYTHON, "-X", "importtime", "-c", "import nmrteleport.cli"])
        if child.code != 0:
            raise Fatal(f"import exited {child.code}: {child.stderr[-500:]!r}")
        imports.append(parse_importtime(child.stderr.decode()))
    m = Measurement()
    outputs: dict = {}
    untraced, traced = [], []
    start = perf_counter()
    while runner.remaining() > 0 and (len(traced) < MIN_TRACED_PASSES or perf_counter() - start < seconds):
        untraced.append(workload.run_pass(False, tmp, outputs, m))
        traced.append(workload.run_pass(True, tmp, outputs, m))
    workload.check_pass_outputs(outputs, m)

    per_pass = [layer_metrics(p.trace) for p in traced if p.trace is not None]
    metrics: dict[str, tuple[float, str]] = {}
    for name in imports[0]:
        metrics[name] = (statistics.median(i[name] for i in imports), "s")
    if len(per_pass) < len(traced) or not per_pass:
        m.problems.append("a traced pass produced no trace")
        per_pass = per_pass or [layer_metrics({"spans": {}, "counters": {}, "points": {}})]
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            if any(v != values[0] for v in values):
                m.problems.append(f"counter {name} differs between traced passes: {values}")
            metrics[name] = (values[0], "count")
    metrics["cli.bytes_written"] = (traced[0].bytes_written, "bytes")
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    details = {
        "passes": len(traced),
        "untraced_pass_wall_s": [p.wall_s for p in untraced],
        "traced_pass_wall_s": [p.wall_s for p in traced],
    }
    return metrics, m, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "nmrteleport" / "__init__.py").is_file():
        print(f"error: no nmrteleport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        load_before = os.getloadavg()
        runner = Runner(tmp, deadline)
        workload = WORKLOADS[args.workload](runner, args.seed)
        warm = workload.warmup()  # discarded; fills the byte-code cache
        if warm.code != 0:
            raise Fatal(f"warm-up exited {warm.code}: {warm.stderr[-500:]!r}")
        if args.trace:
            metrics, m, details = run_traced(workload, runner, args.seconds, tmp)
        else:
            metrics, m, details = run_untraced(workload, runner, args.seconds)
        env = environment(load_before, os.getloadavg(), blas_info(runner))
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = m.failed == 0 and not m.problems and m.attempted > 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "details": details,
        "problems": m.problems[:50],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1, sort_keys=True)
    )
    for problem in m.problems[:20]:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
