#!/usr/bin/env python3
"""Build and run workloads of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: compile_suite, serve_corpus, eco_session (see perfbench/README.md),
or `all`, which runs the three in turn, prints one table of their metrics and
ends with one combined result line whose metric names carry the workload.
The first call configures and builds perfbench_driver, the xsfq library and
the xsfq_served daemon from the repository sources into .bench_build/; later
calls rebuild only when a source file changed.  The driver's report passes
through to stdout, and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
A traced run also writes its spans as Chrome trace JSON under
.bench_build/perfbench/traces/ and validates them with
tools/check_trace_json.py.  The exit status is non-zero, with no result
line, when the build fails, the driver fails or times out, or the trace is
invalid; it is non-zero with a result line when an output was wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("compile_suite", "serve_corpus", "eco_session")
ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
# A run should end within 180 s once built; the driver gets 170 s of that,
# leaving a margin for tearing down.
RUN_LIMIT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{' '.join(cmd[:2])} failed (log: {log_path})")


def source_stamp():
    """Sizes and mtimes of every file the build reads."""
    files = [Path("CMakeLists.txt")] + sorted(
        p for d in ("src", "examples", "tools", "perfbench")
        for p in Path(d).rglob("*")
        if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        st = p.stat()
        digest.update(f"{p}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return digest.hexdigest()


def build():
    """Configures once, then brings perfbench_driver up to date.

    The repository's rewrite-library generator step reruns on every
    `cmake --build` and relinks the library, the daemon and the driver
    (~4 s), so the build is skipped while no source file has changed since
    the last successful one.
    """
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    driver = BUILD_DIR / "perfbench_driver"
    stamp_file = BUILD_DIR / "sources.stamp"
    stamp = source_stamp()
    if (driver.exists() and stamp_file.exists()
            and stamp_file.read_text() == stamp):
        return driver
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        print("perfbench: configuring the benchmark build", file=sys.stderr)
        run_logged(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_DIR / "configure.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD_DIR), "--target",
                "perfbench_driver", "-j", jobs], BUILD_DIR / "build.log")
    stamp_file.write_text(stamp)
    return driver


def run_driver(cmd, limit_s):
    """Runs the driver in its own process group; returns (status, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("interrupted")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver did not finish within {limit_s:.0f} s")
    return proc.returncode, out


def run_workload(driver, workload, args):
    """Runs one workload; prints its report and returns its result dict."""
    # Relative paths keep the daemon's Unix socket path short wherever the
    # checkout sits (sun_path holds 108 bytes).
    work_dir = BUILD_DIR / "work" / f"{workload}-{os.getpid()}"
    # One file per workload, the latest traced run's, so repeated runs do not
    # pile up trace files in the checkout.
    trace_out = BUILD_DIR / "traces" / f"{workload}.json"
    cmd = [str(driver), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}"]
    if args.trace:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={trace_out}")
    started = time.monotonic()
    try:
        status, out = run_driver(cmd, RUN_LIMIT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if status not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(out)
        fail(f"{workload}: driver exited with status {status} and no result")
    print("\n".join(lines[:-1]))

    if args.trace:
        check = subprocess.run(
            [sys.executable, "tools/check_trace_json.py", str(trace_out)],
            capture_output=True, text=True)
        print(f"trace {trace_out}: "
              f"{(check.stdout + check.stderr).strip()}")
        if check.returncode != 0:
            fail(f"{workload}: the traced run's Chrome trace JSON is invalid")
    print(f"perfbench: {workload} took {time.monotonic() - started:.2f} s",
          file=sys.stderr)
    result["correct"] = bool(result.get("correct")) and status == 0
    return result


def print_summary(results):
    """One table over all workloads, then one combined result line."""
    names = list(dict.fromkeys(m for r in results.values()
                               for m in r["metrics"]))
    print(f"{'metric':<30}" + "".join(f"{w:>16}" for w in results) + "  unit")
    for name in names:
        cells = [r["metrics"].get(name) for r in results.values()]
        unit = next(c["unit"] for c in cells if c)
        print(f"{name:<30}" + "".join(
            f"{c['value']:>16.4f}" if c else f"{'-':>16}" for c in cells) +
              f"  {unit}")
    print(f"{'fail_ratio':<30}" + "".join(
        f"{r['failed']:>9}/{r['attempted']:<6}" for r in results.values()) +
          "  failed/attempted")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        fail("the repository sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    driver = build()
    if args.workload != "all":
        result = run_workload(driver, args.workload, args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {w: run_workload(driver, w, args) for w in WORKLOADS}
    print_summary(results)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
