#!/usr/bin/env python3
"""Benchmark of the gitbot CLI: one closed-loop client, one invocation at a time.

    python3 bench/run.py --workload analyze-mixed --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; paths are resolved from this file.
Inputs come from `gen.py`, are built from the seed and cached under
`.bench_cache/` (generation is never timed). Every invocation's output
is checked (`check.py`) before any number counts. With `--trace 0` the
last stdout line is the JSON result with the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics of a
traced in-process run (`tracer.py`). `--workload all` runs every
workload and prints one table. `--freeze` records the current program's
outputs for the seed in `reference.json`; run it only on the seed
commit.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import check
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = ROOT / ".bench_cache"
RUN_DIR = CACHE / f"run-{os.getpid()}"  # this process's scratch outputs, removed at exit
MODEL = BENCH / "model.json"  # the seed's shipped model, frozen with the benchmark
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 9
IMPORT_REPEATS = 5
MIN_INVOCATIONS = 2  # a train-grid invocation takes 10-15 s
KEEP_INPUTS = 6  # cached input sets kept per checkout
INVOCATION_TIMEOUT_S = 150

# Each CPU of a shared machine can run this benchmark's own pure-Python
# loop up to twice as slow, for a second or for minutes, when neighbours
# are busy, and a child's CPU time slows with its wall time. So while a
# child runs, a thread of this process times a fixed loop on the child's
# CPU every SAMPLE_INTERVAL_S, and the invocation is reported at the
# speed at which that loop takes CALIBRATION_REF_S of CPU time.
SAMPLE_INTERVAL_S = 0.2
CALIBRATION_REF_S = 0.006
_CALIBRATION_TEXT = ["fix race in session token cache", "update translations (de)",
                     "bump lodash to 1.02.13", "handle socket timeout gracefully"]


def child_env() -> dict:
    """The pinned environment of every child process."""
    home = CACHE / "home"
    home.mkdir(parents=True, exist_ok=True)
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": "src",  # the package is run from source, not installed
        "PYTHONHASHSEED": "0",
        "GIT_CONFIG_NOSYSTEM": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


# ------------------------------------------------------------------ inputs


def inputs_for(workload: str, seed: int, env: dict) -> tuple[Path, dict]:
    """The cached input directory for (workload, seed, generator version)."""
    root = CACHE / f"inputs-v{gen.GENERATOR_VERSION}"
    out = root / f"{workload}-{seed}"
    if not out.exists():
        partial = root / f"partial-{workload}-{seed}"
        shutil.rmtree(partial, ignore_errors=True)
        gen.generate(workload, seed, partial, env)
        partial.rename(out)
    os.utime(out)
    kept = sorted((p for p in root.iterdir() if not p.name.startswith("partial-")),
                  key=lambda p: p.stat().st_mtime)
    for stale in kept[:-KEEP_INPUTS]:
        shutil.rmtree(stale)
    return out, json.loads((out / "expected.json").read_text())


def command(workload: str, inputs: Path) -> list[str]:
    """gitbot arguments of one invocation, with paths relative to the checkout root."""
    rel = inputs.relative_to(ROOT)
    model = str(MODEL.relative_to(ROOT))
    if workload == "analyze-mixed":
        return ["analyze", "--json", "--verbose", "--model", model, str(rel / "repo.git")]
    if workload == "analyze-history":
        return ["analyze", "--json", "--verbose", "--model", model,
                "--mapping", str(rel / "mapping.csv"), str(rel / "repo.git")]
    return ["train", str(rel / "dataset.csv"), "-o", str(RUN_DIR.relative_to(ROOT) / "model.json")]


# --------------------------------------------------------------- invocation


@dataclass
class Invocation:
    seconds: float
    peak_rss_mb: float  # largest resident set of the invocation's process tree
    returncode: int
    stdout: bytes
    stderr: bytes
    calibration_s: float  # mean speed sample on the child's CPU while it ran

    @property
    def calibrated_s(self) -> float:
        return self.seconds * CALIBRATION_REF_S / self.calibration_s


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        curr = [i]
        for j, cb in enumerate(b, start=1):
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = curr
    return prev[-1]


def speed_sample() -> float:
    """CPU seconds this thread needs for a fixed pure-Python edit-distance loop."""
    start = time.thread_time()
    for _ in range(2):
        for a in _CALIBRATION_TEXT:
            for b in _CALIBRATION_TEXT:
                _edit_distance(a, b)
    return time.thread_time() - start


def _sample_child_cpu(pid: int, stop: threading.Event, samples: list[float]):
    """Until `stop`, take a speed sample on the CPU the child last ran on."""
    cpus = os.sched_getaffinity(0)
    while not stop.wait(SAMPLE_INTERVAL_S):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                cpu = int(handle.read().rsplit(")", 1)[1].split()[36])  # field 39
        except (OSError, ValueError, IndexError):
            return
        os.sched_setaffinity(0, {cpu})  # pins this thread only
        samples.append(speed_sample())
        os.sched_setaffinity(0, cpus)


def invoke(argv: list[str], env: dict) -> Invocation:
    """Run one child to completion; wall time from spawn to reaped exit."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    out_path, err_path = RUN_DIR / "stdout", RUN_DIR / "stderr"
    samples = [speed_sample()]  # untimed: covers invocations shorter than one interval
    stop = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        sampler = threading.Thread(target=_sample_child_cpu, args=(proc.pid, stop, samples))
        sampler.start()
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reports this child's rusage; ru_maxrss is the largest of
            # the child and the descendants it reaped (git), not their sum
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            stop.set()
            sampler.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                      out_path.read_bytes(), err_path.read_bytes(), statistics.fmean(samples))


def gitbot(args: list[str], env: dict) -> Invocation:
    return invoke([sys.executable, "-m", "gitbot", *args], env)


class Checker:
    """Checks each invocation's output and counts attempts and failures."""

    def __init__(self, workload: str, seed: int, expected: dict):
        self.workload = workload
        self.expected = expected
        references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = references.get(workload, {}).get(str(seed))
        self.min_messages = json.loads(MODEL.read_text())["feature_config"]["min_messages"]
        self.must_equal: bytes | None = None  # stdout every invocation must reproduce
        self.attempted = 0
        self.failed = 0

    def problems(self, inv: Invocation) -> list[str]:
        if inv.returncode != 0:
            tail = inv.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return [f"exit code {inv.returncode}: {' '.join(tail)}"]
        if self.must_equal is not None and inv.stdout != self.must_equal:
            return ["output differs from the untraced output"]
        if self.workload == "train-grid":
            model_path = RUN_DIR / "model.json"
            model = model_path.read_bytes() if model_path.exists() else None
            return check.check_train(inv.stdout, model, self.reference)
        return check.check_analyze(inv.stdout, self.expected, self.min_messages, self.reference)

    def count(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"{self.workload}: {problem}", file=sys.stderr)


def clear_model():
    (RUN_DIR / "model.json").unlink(missing_ok=True)


def loop(run, problems, checker: Checker, seconds: float, minimum: int) -> list[Invocation]:
    """Invoke strictly one at a time until the next one would overrun `seconds`."""
    done: list[Invocation] = []
    start = time.perf_counter()
    while len(done) < minimum or time.perf_counter() - start + done[-1].seconds <= seconds:
        clear_model()
        inv = run()
        checker.count(problems(inv))
        done.append(inv)
    return done


SETUP_ROWS = [{"name": "Solo Dev", "commits": 1, "empties": None, "patterns": None,
               "dispersion": None, "prediction": check.UNKNOWN}]


def setup_invocations(env: dict, checker: Checker) -> list[Invocation]:
    """`analyze` on a one-commit repository: start, imports, model load, one git log."""
    repo = gen.setup_repository(CACHE / "setup", env).relative_to(ROOT)
    args = ["analyze", "--json", "--verbose", "--model", str(MODEL.relative_to(ROOT)), str(repo)]

    def problems(inv: Invocation) -> list[str]:
        try:
            if inv.returncode == 0 and json.loads(inv.stdout) == SETUP_ROWS:
                return []
        except ValueError:
            pass
        return ["set-up run gave unexpected output"]

    return loop(lambda: gitbot(args, env), problems, checker, 0, SETUP_REPEATS)


# ----------------------------------------------------------------- reports


def environment() -> dict:
    def run(*argv):
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return "unknown"
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git": run("git", "--version"),
        "commit": run("git", "rev-parse", "HEAD"),  # "unknown" outside a git checkout
        "src_sha256": source.hexdigest(),
    }


def metric_units() -> tuple[dict, dict]:
    """Name to unit of the end-to-end and of the per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def result_line(checker: Checker, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    })


# --------------------------------------------------------------- workloads


def prepare(workload: str, seed: int):
    env = child_env()
    inputs, expected = inputs_for(workload, seed, env)
    argv = command(workload, inputs)
    checker = Checker(workload, seed, expected)
    clear_model()
    warm = gitbot(argv, env)  # untimed: fills __pycache__ and the page cache
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"{workload}: the warm-up invocation failed; no result")
    return env, argv, checker


def measure(workload: str, seed: int, seconds: float) -> tuple[Checker, dict, dict, dict]:
    """End-to-end metrics: set-up time, then invocations until `seconds` pass."""
    env, argv, checker = prepare(workload, seed)
    setups = setup_invocations(env, checker)
    runs = loop(lambda: gitbot(argv, env), checker.problems, checker, seconds, MIN_INVOCATIONS)
    values = {
        "invocation_s": statistics.median(inv.calibrated_s for inv in runs),
        "setup_s": statistics.median(inv.calibrated_s for inv in setups),
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in runs),
    }
    counts = {"invocation_s": len(runs), "setup_s": len(setups), "peak_rss_mb": len(runs)}
    raw = {
        "invocation_wall_s": statistics.median(inv.seconds for inv in runs),
        "setup_wall_s": statistics.median(inv.seconds for inv in setups),
        "calibration_s": statistics.median(inv.calibration_s for inv in runs + setups),
    }
    return checker, values, counts, raw


def import_seconds(env: dict) -> float:
    """Fresh-interpreter `import gitbot.cli` minus a bare interpreter start (medians)."""
    def timed(code: str) -> float:
        return statistics.median(invoke([sys.executable, "-c", code], env).calibrated_s
                                 for _ in range(IMPORT_REPEATS))

    return timed("import gitbot.cli") - timed("pass")


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[Checker, dict]:
    """Per-layer metrics: untraced runs, then traced runs whose output must match."""
    env, argv, checker = prepare(workload, seed)
    plain = loop(lambda: gitbot(argv, env), checker.problems, checker, seconds / 2, 2)
    spans_path = RUN_DIR / "trace.json"
    traced_argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *argv]
    results = []

    def traced_run() -> Invocation:
        inv = invoke(traced_argv, env)
        if inv.returncode == 0:
            result = json.loads(spans_path.read_text())
            inv.returncode = result["exit"]
            results.append((result["metrics"], inv))
        return inv

    checker.must_equal = plain[0].stdout
    loop(traced_run, checker.problems, checker, seconds / 2, 1)
    if not results:
        raise SystemExit(f"{workload}: no traced run completed; no result")
    results.sort(key=lambda r: r[0]["cli.main.s"])
    metrics, inv = results[(len(results) - 1) // 2]  # the run with the median wall time
    metrics["bench.trace_overhead"] = inv.calibrated_s / statistics.median(p.calibrated_s for p in plain)
    metrics["cli.import_s"] = import_seconds(env)
    return checker, metrics


def summary(workload: str, seed: int, checker: Checker, values: dict, counts: dict,
            units: dict, raw: dict) -> str:
    parts = [f"{name} {values[name]:.4f} {units[name]} (n={counts[name]})" for name in units]
    frac = checker.failed / checker.attempted
    parts.append(f"fail_frac {frac:.3f} ({checker.failed}/{checker.attempted})")
    parts.extend(f"{name} {value:.4f} s" for name, value in raw.items())
    return f"{workload} seed={seed}: " + ", ".join(parts)


def freeze(workload: str, seed: int):
    """Record the current program's outputs for `seed` as the reference."""
    env = child_env()
    inputs, expected = inputs_for(workload, seed, env)
    clear_model()
    inv = gitbot(command(workload, inputs), env)
    checker = Checker(workload, seed, expected)
    checker.reference = None
    problems = checker.problems(inv)
    if problems:
        raise SystemExit(f"{workload} seed {seed}: {problems}")
    if workload == "train-grid":
        entry = check.train_projection(inv.stdout, (RUN_DIR / "model.json").read_bytes())
    else:
        entry = check.analyze_projection(json.loads(inv.stdout))
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    references.setdefault(workload, {})[str(seed)] = entry
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"{workload} seed {seed}: reference recorded")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="record this program's outputs as the seed's reference")
    args = parser.parse_args()
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.freeze:
        for workload in workloads:
            freeze(workload, args.seed)
        return 0

    end_to_end, per_layer = metric_units()
    for workload in workloads:
        if args.trace:
            checker, values = measure_traced(workload, args.seed, args.seconds)
            line = result_line(checker, values, per_layer)
        else:
            checker, values, counts, raw = measure(workload, args.seed, args.seconds)
            print(summary(workload, args.seed, checker, values, counts, end_to_end, raw))
            line = result_line(checker, values, end_to_end)
        print("env " + json.dumps(environment(), sort_keys=True))
        print(f"{workload} {line}" if args.workload == "all" else line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

