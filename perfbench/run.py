#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of whole mbavf runs.

    python3 perfbench/run.py --workload ace_query --seed 1 --seconds 12 --trace 0

Run from the root of an mbavf source tree. The first run builds the
Release tools into .bench_build/; every op then spawns fresh processes
of the shipped CLIs, one op at a time (a closed loop with one client),
and checks each op's manifest against perfbench/expected.json. The
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RELEASE_DIR = BUILD_DIR / "release"
HARNESS_BUILD_DIR = BUILD_DIR / "harness"
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("ace_query", "design_grid", "strat_campaign", "attribution")

# Ops use 2 of the host's 4 vCPUs: this script keeps a core, and a
# serial layer still shows as CPU utilisation near 1/2.
THREADS = 2
# setup_s is the median of this many independent set-ups.
SETUP_REPEATS = 3
# A single process that runs longer than this is killed (and fails).
PROCESS_TIMEOUT_S = 120.0
# Manifest sections that are bit-identical at any --threads.
DETERMINISTIC_SECTIONS = ("run", "cache", "avf", "ser", "campaign",
                          "strata", "attribution", "analyze")

# design_grid: one op sweeps every design over the saved lud x2 arenas.
L1_DESIGNS = (("parity", "way", 2), ("secded", "way", 4),
              ("dected", "index", 4), ("parity", "logical", 1),
              ("secded", "index", 2))
VGPR_DESIGNS = (("parity", "inter", 2), ("secded", "intra", 1),
                ("dected", "inter", 4))
SMOKE_DESIGNS = (("l1", "parity", "way", 2), ("vgpr", "secded", "intra", 1))


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, build failed)."""


# --- Workload definitions --------------------------------------------


class Step:
    """One process of an op: a tool, its flags, and what to check."""

    def __init__(self, key, tool, args, arena=None, strata_key=None,
                 threads=THREADS):
        self.key = key              # expected.json config id
        self.tool = tool            # "mbavf" | "mbavf_analyze"
        self.args = args            # CLI flags; "{dir}" is the op directory
        self.arena = arena          # file name of an --arena-out output
        self.strata_key = strata_key  # seed-independent strata check
        self.threads = threads


class Spec:
    """A workload: optional set-up steps, then the op's steps."""

    def __init__(self, name, op, setup=None):
        self.name = name
        self.op = op
        self.setup = setup          # None: a set-up is one fresh op


def campaign_step(workload, budget, seed):
    tag = f"{workload}/b{budget}"
    return Step(f"campaign/{tag}/seed={seed}", "mbavf",
                ["--campaign", "--stratify", f"--workload={workload}",
                 f"--budget={budget}", f"--seed={seed}"],
                strata_key=f"strata/{tag}")


def make_spec(name, seed, smoke):
    """The steps of workload @p name; @p smoke selects toy sizes."""
    wl, scale = ("histogram", 1) if smoke else ("lud", 2)
    tag = f"{wl}{scale}"
    if name == "ace_query":
        return Spec(name, [
            Step(f"query/{tag}/{s}", "mbavf",
                 [f"--workload={wl}", f"--scale={scale}",
                  f"--structure={s}"])
            for s in ("l1", "vgpr")])
    if name == "design_grid":
        setup = [Step(f"arena/{tag}/{s}", "mbavf",
                      [f"--workload={wl}", f"--scale={scale}",
                       f"--structure={s}", f"--arena-out={{dir}}/arena_{s}.bin"],
                      arena=f"arena_{s}.bin")
                 for s in ("l1", "vgpr")]
        designs = SMOKE_DESIGNS if smoke else (
            [("l1",) + d for d in L1_DESIGNS] +
            [("vgpr",) + d for d in VGPR_DESIGNS])
        op = [Step(f"design/{tag}/{s}/{scheme}-{style}-{il}", "mbavf",
                   [f"--arena-in={{dir}}/arena_{s}.bin", f"--structure={s}",
                    f"--scheme={scheme}", f"--style={style}",
                    f"--interleave={il}", "--modes=8", "--windows=8"])
              for s, scheme, style, il in designs]
        return Spec(name, op, setup=setup)
    if name == "strat_campaign":
        if smoke:
            return Spec(name, [campaign_step("histogram", 30, seed)])
        return Spec(name, [campaign_step("minife", 600, seed)])
    if name == "attribution":
        wl = "histogram" if smoke else "nw"
        return Spec(name, [Step(f"analyze/{wl}", "mbavf_analyze",
                                [f"--workload={wl}"])])
    raise BenchError(f"unknown workload '{name}'")


# --- Build -------------------------------------------------------------


def child_env():
    """The environment of every child: temporary files (the compiler's)
    stay inside the checkout."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_build_command(argv):
    proc = subprocess.run([str(a) for a in argv], cwd=ROOT, env=child_env(),
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(map(str, argv))}")


def build_tools():
    """Configure (once) and build the Release mbavf CLIs."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no mbavf source tree")
    if not (RELEASE_DIR / "CMakeCache.txt").is_file():
        run_build_command(["cmake", "-S", ROOT, "-B", RELEASE_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"])
    run_build_command(["cmake", "--build", RELEASE_DIR, "-j", "4",
                       "--target", "mbavf_cli", "mbavf_analyze_cli"])
    return {"mbavf": RELEASE_DIR / "tools" / "mbavf",
            "mbavf_analyze": RELEASE_DIR / "tools" / "mbavf_analyze"}


def build_harness():
    """Build the traced-run harness against the Release libraries."""
    if not (HARNESS_BUILD_DIR / "CMakeCache.txt").is_file():
        run_build_command(["cmake", "-S", BENCH_DIR / "harness",
                           "-B", HARNESS_BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release",
                           f"-DMBAVF_SOURCE_DIR={ROOT}",
                           f"-DMBAVF_BUILD_DIR={RELEASE_DIR}"])
    run_build_command(["cmake", "--build", HARNESS_BUILD_DIR, "-j", "4"])
    return HARNESS_BUILD_DIR / "perfbench_trace"


# --- Processes -----------------------------------------------------------


class ProcResult:
    def __init__(self, spawned, exited, status, rss_kb, cpu_s):
        self.spawned = spawned      # perf_counter() just before the spawn
        self.exited = exited        # perf_counter() once it has exited
        self.status = status        # raw wait status
        self.rss_kb = rss_kb
        self.cpu_s = cpu_s

    def describe(self):
        if os.WIFSIGNALED(self.status):
            return f"killed by signal {os.WTERMSIG(self.status)}"
        return f"exit status {os.WEXITSTATUS(self.status)}"


def run_process(argv, out_path, err_path, kill_after=None):
    """Spawn @p argv, wait for it, and return its timestamps and rusage.

    The process is SIGKILLed after PROCESS_TIMEOUT_S (or @p kill_after,
    which the self-test uses to simulate a crashed op)."""
    argv = [str(a) for a in argv]
    env = child_env()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
    lock = threading.Lock()
    exited = [False]

    def kill():
        with lock:
            if not exited[0]:
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(
        PROCESS_TIMEOUT_S if kill_after is None else kill_after, kill)
    timer.start()
    try:
        # Wait without reaping so the timer can never signal a
        # recycled pid, then reap to collect the rusage.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        exited_at = time.perf_counter()
        with lock:
            exited[0] = True
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
    return ProcResult(spawned, exited_at, status, usage.ru_maxrss,
                      usage.ru_utime + usage.ru_stime)


# --- Output checking -----------------------------------------------------


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def observed_output(step, proc, workdir, manifest_path):
    """What a step produced, in the form expected.json stores."""
    out = {"exit": os.WEXITSTATUS(proc.status)
           if os.WIFEXITED(proc.status) else None,
           "sections": {}}
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError):
        manifest = {}
    for name in DETERMINISTIC_SECTIONS:
        if name in manifest:
            out["sections"][name] = digest(manifest[name])
    if step.arena:
        arena = workdir / step.arena
        out["arena"] = file_sha256(arena) if arena.is_file() else None
    if step.strata_key:
        strata = manifest.get("strata", {})
        out["strata"] = {"hash": strata.get("hash"),
                         "skipped_weight": strata.get("skipped_weight")}
    return out, manifest


class Checker:
    """Compares every step's output with the stored expected output."""

    def __init__(self, expected):
        self.configs = dict(expected.get("configs", {}))
        self.strata = expected.get("strata", {})

    def has(self, key):
        return key in self.configs

    def adopt(self, key, observed):
        """Use a reference run's output as the expected one."""
        self.configs[key] = {"exit": observed["exit"],
                             "sections": observed["sections"]}

    def check(self, step, proc, observed):
        """Return None when @p step's output is correct, else why not."""
        if os.WIFSIGNALED(proc.status):
            return proc.describe()
        if step.strata_key:
            want = self.strata.get(step.strata_key)
            if want is None:
                return f"no stored partition for {step.strata_key}"
            if observed.get("strata") != want:
                return (f"partition {observed.get('strata')} != stored "
                        f"{want}")
        want = self.configs.get(step.key)
        if want is None:
            return f"no expected output for {step.key}"
        if observed["exit"] != want["exit"]:
            return f"{proc.describe()}, expected {want['exit']}"
        got, wanted = observed["sections"], want["sections"]
        if got != wanted:
            bad = sorted(k for k in set(got) | set(wanted)
                         if got.get(k) != wanted.get(k))
            return f"manifest sections differ: {', '.join(bad)}"
        if step.arena and observed.get("arena") != want.get("arena"):
            return f"arena {step.arena} differs from the stored SHA-256"
        return None


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


# --- Ops -------------------------------------------------------------------


class OpResult:
    def __init__(self):
        self.wall = 0.0
        self.cpu_s = 0.0
        self.rss_kb = 0
        self.errors = []
        self.manifests = []         # (step, observed output, manifest)
        self.spans = []             # span documents of a traced op

    @property
    def ok(self):
        return not self.errors


class Runner:
    """Runs ops of one workload through the shipped tools or the harness."""

    def __init__(self, tools, checker, harness=None):
        self.tools = tools
        self.checker = checker
        self.harness = harness
        self.kill_after = None      # self-test hook: simulate a crash
        self.op_counter = 0

    def command(self, step, workdir, manifest, traced, spans):
        flags = [a.format(dir=workdir) for a in step.args] + [
            f"--threads={step.threads}", f"--manifest={manifest}"]
        if traced:
            return [self.harness, f"--tool={step.tool}",
                    f"--spans-out={spans}",
                    f"--op-id={self.op_counter}"] + flags
        return [self.tools[step.tool]] + flags

    def run_op(self, steps, workdir, traced=False):
        """Run @p steps back to back in @p workdir, then check each one.

        The op's wall time runs from the first spawn to the last exit;
        the checks read the outputs the steps left on disk afterwards,
        so their cost is not the program's."""
        workdir.mkdir(parents=True, exist_ok=True)
        self.op_counter += 1
        paths = [(workdir / f"step{i}.manifest.json",
                  workdir / f"step{i}.spans.json") for i in range(len(steps))]
        for path in (p for pair in paths for p in pair):
            if path.exists():
                path.unlink()
        commands = [self.command(step, workdir, manifest, traced, spans)
                    for step, (manifest, spans) in zip(steps, paths)]
        procs = [run_process(argv, workdir / f"step{i}.out",
                             workdir / f"step{i}.err", self.kill_after)
                 for i, argv in enumerate(commands)]

        result = OpResult()
        result.wall = procs[-1].exited - procs[0].spawned
        for step, proc, (manifest, spans) in zip(steps, procs, paths):
            result.cpu_s += proc.cpu_s
            result.rss_kb = max(result.rss_kb, proc.rss_kb)
            observed, doc = observed_output(step, proc, workdir, manifest)
            result.manifests.append((step, observed, doc))
            error = self.checker.check(step, proc, observed)
            if error:
                result.errors.append(f"{step.key}: {error}")
            if traced and spans.is_file():
                with open(spans) as f:
                    result.spans.append(json.load(f))
        return result


def prepare_reference(runner, spec, workdir):
    """Make sure every op step has an expected output.

    A strat_campaign seed with no stored output is checked against one
    --threads=1 op of the same seed (thread invariance) plus the stored
    seed-independent partition. Returns the number of reference ops
    run and their errors."""
    errors = []
    references = 0
    for step in spec.op:
        # Other steps without a stored output fail their own checks.
        if runner.checker.has(step.key) or not step.strata_key:
            continue
        log(f"no stored output for {step.key}; checking against --threads=1")
        ref = Step(step.key, step.tool, step.args, step.arena,
                   step.strata_key, threads=1)
        result = runner.run_op([ref], workdir)
        references += 1
        _, observed, _ = result.manifests[0]
        partition_ok = observed.get("strata") == runner.checker.strata.get(
            step.strata_key)
        if observed["exit"] == 0 and partition_ok:
            runner.checker.adopt(step.key, observed)
        else:
            errors.append(f"{step.key} reference: exit {observed['exit']}, "
                          f"partition {observed.get('strata')}")
    return references, errors


# --- Host diagnostics ------------------------------------------------------


def steal_seconds():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def provenance(manifest_doc):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    # The highest cache index is the last-level cache.
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            llc = (index / "size").read_text().strip()
        except OSError:
            pass
    build = manifest_doc.get("build", {}) if manifest_doc else {}
    return {"nproc": os.cpu_count(), "cpu_model": model, "llc": llc,
            "compiler": build.get("compiler"),
            "build_type": build.get("build_type"),
            "flags": build.get("flags"), "commit": build.get("git"),
            "python": platform.python_version()}


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


# --- End-to-end run --------------------------------------------------------


def e2e_run(runner, spec, seconds, workdir):
    """Set up, then run ops until @p seconds have passed.

    Each set-up runs in a fresh directory; the timed ops run in the
    last one. The set-ups leave the binaries, and design_grid's arenas,
    in the page cache, so they also serve as the warm-up."""
    references, failures = prepare_reference(runner, spec,
                                             workdir / "reference")
    reference_errors = len(failures)
    setups = [runner.run_op(spec.setup or spec.op, workdir / f"setup{i}")
              for i in range(SETUP_REPEATS)]
    op_dir = workdir / f"setup{SETUP_REPEATS - 1}"

    steal_before = steal_seconds()
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(runner.run_op(spec.op, op_dir))
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    steal = steal_seconds() - steal_before
    runs = setups + ops
    for r in runs:
        failures.extend(r.errors)
    attempted = references + len(runs)
    failed = reference_errors + sum(1 for r in runs if not r.ok)

    good = [o for o in ops if o.ok] or ops
    walls = [o.wall for o in good]
    metrics = {
        "op_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": max(o.rss_kb for o in ops) / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(s.wall for s in setups),
                    "unit": "s"},
        "setup_rss_mb": {"value": max(s.rss_kb for s in setups) / 1024.0,
                         "unit": "MB"},
    }
    last_doc = ops[-1].manifests[-1][2] if ops[-1].manifests else {}
    diagnostics = {
        "workload": spec.name,
        "ops": len(ops),
        "measured_s": elapsed,
        "op_p90_s": p90(walls),
        "op_p90_count": len(walls),
        "op_cpu_s_median": statistics.median(o.cpu_s for o in good),
        "op_cpu_s": [round(o.cpu_s, 4) for o in ops],
        "op_wall_s": [round(o.wall, 4) for o in ops],
        "setup_wall_s": [round(s.wall, 4) for s in setups],
        "host_steal_s": steal,
        "threads": THREADS,
        "provenance": provenance(last_doc),
    }
    return failures, attempted, failed, metrics, diagnostics


# --- Traced run --------------------------------------------------------------

# Span name -> layer (README "Layer-to-metric map").
SPAN_LAYER = {
    "ace.run": "simulator", "ace.sim": "simulator",
    "ace.liveness": "liveness", "ace.backward": "build",
    "arena.flatten": "arena", "arena.write": "arena", "arena.load": "arena",
    "sweep": "sweep",
    "analyze.lint": "attribution", "analyze.ref_sweep": "attribution",
    "analyze.attr": "attribution",
    "inject.golden": "campaign", "inject.stratify": "campaign",
    "inject.trials": "campaign",
    "obs.manifest": "manifest",
}
LAYERS = ("simulator", "liveness", "build", "arena", "sweep", "attribution",
          "campaign", "manifest", "harness")


def self_times(span_docs):
    """Self time per layer: each span minus what its children cover."""
    totals = {layer: 0.0 for layer in LAYERS}
    for doc in span_docs:
        spans = doc["spans"]
        children = {}
        for i, s in enumerate(spans):
            children.setdefault(s["parent"], []).append(i)
        for i, s in enumerate(spans):
            covered = 0.0
            cursor = s["start"]
            for c in sorted(children.get(i, []), key=lambda k: spans[k]["start"]):
                lo = max(cursor, spans[c]["start"])
                hi = min(s["end"], spans[c]["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            layer = SPAN_LAYER.get(s["name"], "harness")
            totals[layer] += max(0.0, s["end"] - s["start"] - covered)
    return totals


def span_sum(span_docs, name, field="wall"):
    total = 0.0
    for doc in span_docs:
        for s in doc["spans"]:
            if s["name"] == name:
                total += (s["end"] - s["start"]) if field == "wall" else s["cpu"]
    return total


def count_sum(span_docs, name):
    return sum(doc["counts"].get(name, 0) for doc in span_docs)


def count_max(span_docs, name):
    return max((doc["counts"].get(name, 0) for doc in span_docs), default=0)


def layer_metrics(traced):
    """Per-layer metrics from one traced op of every workload.

    @p traced maps a workload (and "design_grid.setup") to the span
    documents of its harness processes."""
    q = traced["ace_query"]
    setup = traced["design_grid.setup"]
    grid = traced["design_grid"]
    camp = traced["strat_campaign"]
    attr = traced["attribution"]
    everything = [d for docs in traced.values() for d in docs]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("gpu.sim_tracked_s", span_sum(q, "ace.sim"), "s")
    put("gpu.instrs", count_sum(q, "gpu.instrs"), "count")
    put("trace.liveness_s", span_sum(q, "ace.liveness"), "s")
    put("trace.defs", count_sum(q, "trace.defs"), "count")
    put("trace.dead_defs", count_sum(q, "trace.dead_defs"), "count")
    put("build.finalize_s", span_sum(q, "ace.backward"), "s")
    put("build.l1_segments", count_sum(q, "build.l1_segments"), "count")
    put("build.vgpr_segments", count_sum(q, "build.vgpr_segments"), "count")
    built = count_sum(q, "build.l1_segments") + count_sum(q, "build.vgpr_segments")
    put("build.useful_ratio",
        count_sum(q, "build.requested_segments") / built if built else 0.0,
        "ratio")
    put("build.peak_rss_mb", count_max(q, "build.peak_rss_kb") / 1024.0, "MB")
    put("arena.flatten_s", span_sum(q, "arena.flatten"), "s")
    put("arena.write_s", span_sum(setup, "arena.write"), "s")
    put("arena.load_s", span_sum(grid, "arena.load"), "s")
    put("arena.bytes", count_sum(setup, "arena.bytes"), "B")
    sweep_wall = span_sum(grid, "sweep")
    put("sweep.s", sweep_wall, "s")
    put("sweep.util", span_sum(grid, "sweep", "cpu") / (sweep_wall * THREADS)
        if sweep_wall else 0.0, "ratio")
    put("sweep.groups", count_sum(grid, "sweep.groups"), "count")
    put("analyze.lint_s", span_sum(attr, "analyze.lint"), "s")
    put("analyze.attr_s", span_sum(attr, "analyze.attr"), "s")
    put("analyze.ref_sweep_s", span_sum(attr, "analyze.ref_sweep"), "s")
    put("analyze.tags", count_sum(attr, "analyze.tags"), "count")
    put("inject.stratify_s", span_sum(camp, "inject.stratify"), "s")
    put("inject.strata", count_sum(camp, "inject.strata"), "count")
    put("inject.skipped_weight", count_sum(camp, "inject.skipped_weight"), "ratio")
    trials_wall = span_sum(camp, "inject.trials")
    put("inject.trials_s", trials_wall, "s")
    put("inject.trial_p50_s", count_max(camp, "inject.trial_p50_s"), "s")
    put("inject.util", span_sum(camp, "inject.trials", "cpu") / (trials_wall * THREADS)
        if trials_wall else 0.0, "ratio")
    for outcome in ("masked", "sdc", "crash", "hang"):
        put(f"inject.{outcome}", count_sum(camp, f"inject.{outcome}"), "count")
    put("obs.manifest_write_s", span_sum(everything, "obs.manifest"), "s")
    put("obs.manifest_bytes", count_sum(everything, "obs.manifest_bytes"), "B")
    for layer, seconds in self_times(everything).items():
        put(f"self.{layer}_s", seconds, "s")
    return m


def trace_run(runner, name, seed, seconds, workdir, smoke):
    """One traced op of every workload, then traced/untraced pairs of
    workload @p name until @p seconds have passed."""
    failures = []
    runs = []                       # every op and set-up, for the counts
    traced = {}
    specs = {w: make_spec(w, seed, smoke) for w in WORKLOADS}
    references = reference_errors = 0
    for w, spec in specs.items():
        n, errors = prepare_reference(runner, spec, workdir / w / "reference")
        failures.extend(errors)
        references += n
        reference_errors += len(errors)
        if spec.setup:
            runs.append(runner.run_op(spec.setup, workdir / w, traced=True))
            traced[f"{w}.setup"] = runs[-1].spans
        runs.append(runner.run_op(spec.op, workdir / w, traced=True))
        traced[w] = runs[-1].spans
    metrics = layer_metrics(traced)

    spec = specs[name]
    pairs = []
    start = time.perf_counter()
    while True:
        plain = runner.run_op(spec.op, workdir / name)
        tr = runner.run_op(spec.op, workdir / name, traced=True)
        runs += [plain, tr]
        pairs.append((plain.wall, tr.wall,
                      sum(d["spans"][0]["end"] - d["spans"][0]["start"]
                          for d in tr.spans if d["spans"])))
        if time.perf_counter() - start >= seconds:
            break
    for r in runs:
        failures.extend(r.errors)
    untraced = statistics.median(p[0] for p in pairs)
    traced_wall = statistics.median(p[1] for p in pairs)
    metrics["traced.op_s"] = {"value": traced_wall, "unit": "s"}
    metrics["traced.untraced_op_s"] = {"value": untraced, "unit": "s"}
    metrics["traced.overhead_ratio"] = {"value": traced_wall / untraced,
                                        "unit": "ratio"}
    diagnostics = {
        "workload": name, "pairs": len(pairs),
        "untraced_op_s": [round(p[0], 4) for p in pairs],
        "traced_op_s": [round(p[1], 4) for p in pairs],
        "traced_in_process_s": [round(p[2], 4) for p in pairs],
        "self_s_by_workload": {w: {k: round(v, 4) for k, v in self_times(d).items()}
                               for w, d in traced.items()},
    }
    trace_file = BUILD_DIR / "traces" / f"{name}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w") as f:
        json.dump({"workload": name, "seed": seed, "traced": traced}, f)
    diagnostics["spans_file"] = str(trace_file.relative_to(ROOT))
    failed = reference_errors + sum(1 for r in runs if not r.ok)
    return failures, references + len(runs), failed, metrics, diagnostics


# --- Recording expected outputs ----------------------------------------------


def record(tools, seeds):
    """Run every op configuration once and store its outputs."""
    checker = Checker({})
    runner = Runner(tools, checker)
    configs, strata = {}, {}
    workdir = BUILD_DIR / "work" / f"record-{os.getpid()}"
    for smoke in (False, True):
        for w in WORKLOADS:
            for seed in (seeds if w == "strat_campaign" else (seeds[0],)):
                spec = make_spec(w, seed, smoke)
                wdir = workdir / f"{w}-{smoke}-{seed}"
                for steps in ([spec.setup] if spec.setup else []) + [spec.op]:
                    res = runner.run_op(steps, wdir)
                    for step, observed, _ in res.manifests:
                        log(f"recorded {step.key}: exit {observed['exit']}")
                        entry = {"exit": observed["exit"],
                                 "sections": observed["sections"]}
                        if step.arena:
                            entry["arena"] = observed["arena"]
                        if step.key in configs and configs[step.key] != entry:
                            raise BenchError(f"{step.key} is not deterministic")
                        configs[step.key] = entry
                        if step.strata_key:
                            strata[step.strata_key] = observed["strata"]
    shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED_PATH, "w") as f:
        json.dump({"configs": dict(sorted(configs.items())),
                   "strata": dict(sorted(strata.items()))}, f, indent=1)
        f.write("\n")
    log(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")


# --- Main ----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes (histogram, budget 30, two designs)")
    p.add_argument("--record", action="store_true",
                   help="re-record perfbench/expected.json (only when the "
                        "benchmark itself changes)")
    args = p.parse_args(argv)
    if not args.record and not args.workload:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def execute(args, runner_hook=None):
    """Build, run one workload, and return the result object."""
    tools = build_tools()
    checker = Checker(load_expected())
    harness = build_harness() if args.trace else None
    runner = Runner(tools, checker, harness)
    if runner_hook:
        runner_hook(runner)
    workdir = BUILD_DIR / "work" / f"{args.workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    try:
        if args.trace:
            outcome = trace_run(runner, args.workload, args.seed, args.seconds,
                                workdir, args.smoke)
        else:
            outcome = e2e_run(runner, make_spec(args.workload, args.seed, args.smoke),
                              args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures, attempted, failed, metrics, diagnostics = outcome
    for failure in failures:
        log("FAILED", failure)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, diagnostics


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.record:
            record(build_tools(), seeds=list(range(1, 11)))
            return 0
        result, diagnostics = execute(args)
    except BenchError as e:
        log("error:", e)
        return 2
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
