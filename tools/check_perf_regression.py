#!/usr/bin/env python3
"""Gate a bench_perf run against the committed baseline.

Usage:
    check_perf_regression.py BASELINE.json RUN.json [RUN.json ...]
    check_perf_regression.py --update BASELINE.json RUN.json [RUN.json ...]
    check_perf_regression.py --self-test

bench_perf writes one row per (layer, circuit, metric).  The runs given are
merged first: every figure becomes the median across the runs, and every
counter must agree across them.  Several runs outvote one run that a noisy
host slowed or sped up as a whole.  The merged run passes when all of these
hold:

  * It has exactly the baseline's rows.  A baseline row missing from the
    run fails, and so does a row the baseline lacks: adding a row is a
    deliberate --update.
  * Every row's counters equal the baseline's.  They count work (cuts,
    replacements, node evaluations, nodes out, JJ, bytes), which no host
    changes; a new value means the code now does different work.
  * Every gated row's median cost in calibration units ("cal") is at most
    the row's band above the baseline's.  cal is the row's time divided by
    the time of a frozen calibration kernel run in the same process right
    before each rep, so it does not move with the speed of the host.

Wall times (ms) and "info" counters are printed, never gated.

--update writes the merged runs to BASELINE instead of gating them.  It
needs at least MIN_UPDATE_RUNS runs and exits 2 on fewer.  Each row's band
is BAND, or SPREAD times the furthest any run's median sat above the merged
median where that is wider: a row the calibration tracks less well (work
on other threads, such as a daemon round trip) gets the wider band its own
spread shows.
"""

import contextlib
import copy
import io
import json
import statistics
import sys

BAND = 0.20
SPREAD = 2.5  # the furthest of 10 runs lies ~1.5 sd out; 2.5x spans ~3.8 sd
# Five runs once gave the ECO rows 20% bands where twenty spread 0.80-1.79x.
MIN_UPDATE_RUNS = 10


def key(row):
    return f"{row['layer']}/{row['circuit']}/{row['metric']}"


def gate(baseline, current, out=print):
    """Returns the failure messages; prints one line per baseline row."""
    base = {key(r): r for r in baseline["rows"]}
    cur = {key(r): r for r in current["rows"]}
    failures = [f"{k}: not in the baseline" for k in cur if k not in base]
    for k, b in base.items():
        c = cur.get(k)
        if c is None:
            failures.append(f"{k}: missing from the run")
            continue
        for name in sorted(set(b["counters"]) | set(c["counters"])):
            if b["counters"].get(name) != c["counters"].get(name):
                failures.append(f"{k}: counter {name} "
                                f"{b['counters'].get(name)} -> "
                                f"{c['counters'].get(name)}")
        ratio = c["cal"]["median"] / b["cal"]["median"]
        status = "info"
        if b["gated"]:
            status = "ok" if ratio <= 1.0 + b["band"] else "FAIL"
        if status == "FAIL":
            failures.append(f"{k}: {c['cal']['median']:.4g} cal vs "
                            f"{b['cal']['median']:.4g} ({ratio - 1:+.0%}, "
                            f"band +{b['band']:.0%})")
        out(f"{status:4} {k:44} {c['ms']['median']:10.3f} ms "
            f"{c['cal']['median']:10.4g} cal {ratio:6.2f}x")
    return failures


def merge(runs):
    """Merges runs into one: per-figure medians; the counters must agree."""
    indexed = [{key(r): r for r in run["rows"]} for run in runs]
    if any(run.keys() != indexed[0].keys() for run in indexed):
        raise ValueError("the runs do not have the same rows")
    rows = []
    for first in runs[0]["rows"]:
        k = key(first)
        group = [run[k] for run in indexed]
        if any(r["counters"] != first["counters"] for r in group):
            raise ValueError(f"{k}: counters differ between runs")
        row = copy.deepcopy(first)
        for fig in ("ms", "cal"):
            row[fig] = {s: statistics.median(r[fig][s] for r in group)
                        for s in ("min", "median", "p90")}
        above = max(r["cal"]["median"] for r in group) / row["cal"]["median"]
        row["band"] = round(max(BAND, SPREAD * (above - 1.0)), 2)
        rows.append(row)
    kernels = {k: {"median": statistics.median(
        run["calibration_ms"][k]["median"] for run in runs)}
        for k in runs[0]["calibration_ms"]}
    return {"schema": runs[0]["schema"], "runs": len(runs),
            "calibration_ms": kernels, "rows": rows}


def sample_row(layer, metric, cal, gated, counters):
    return {"layer": layer, "circuit": "c6288", "metric": metric,
            "reps": 20, "iters": 1, "gated": gated, "kernel": "strash",
            "band": BAND,
            "ms": {"min": cal * 9, "median": cal * 10, "p90": cal * 11},
            "cal": {"min": cal * 0.9, "median": cal, "p90": cal * 1.1},
            "counters": counters, "info": {}}


SAMPLE = {"schema": "bench_perf/1",
          "calibration_ms": {"sweep": {"median": 12.0},
                             "strash": {"median": 11.0}},
          "rows": [sample_row("opt", "rewrite_pass", 0.5, True,
                              {"replacements": 762, "nodes_out": 2600}),
                   sample_row("serve", "warm_request", 0.06, False, {})]}


def edited(fn):
    run = copy.deepcopy(SAMPLE)
    fn(run["rows"])
    return run


def scaled(i, factor):
    """SAMPLE with row i's median cal multiplied by `factor`."""
    return edited(lambda rows: rows[i]["cal"].update(
        median=rows[i]["cal"]["median"] * factor))


DRIFT = edited(lambda rows: rows[0]["counters"].update(replacements=763))
MISSING = edited(lambda rows: rows.pop())

# (case, runs merged and gated, should pass[, baseline runs; else SAMPLE])
SELF_TEST_CASES = [
    ("an identical run passes", [SAMPLE], True),
    ("counter drift fails", [DRIFT], False),
    ("a ratio inside the band passes", [scaled(0, 1.10)], True),
    ("a ratio 30% above the baseline fails", [scaled(0, 1.30)], False),
    ("an ungated row may slow down", [scaled(1, 2.0)], True),
    ("a missing row fails", [MISSING], False),
    ("an extra row fails",
     [edited(lambda rows: rows.append(sample_row("sim", "new", 1.0, True, {})))],
     False),
    ("the median of three runs outvotes one slow run",
     [scaled(0, f) for f in (0.9, 1.0, 1.3)], True),
    ("runs whose counters differ fail", [SAMPLE, DRIFT], False),
    ("runs whose rows differ fail", [SAMPLE, MISSING], False),
    ("a noisy baseline row gets a wider band (75% here)",
     [scaled(0, 1.4)], True, [scaled(0, f) for f in (1.0, 1.0, 1.3)]),
]


def self_test():
    bad = 0
    for name, runs, should_pass, *base in SELF_TEST_CASES:
        baseline = merge(base[0]) if base else SAMPLE
        try:
            passed = not gate(baseline, merge(runs), out=lambda line: None)
        except ValueError:
            passed = False
        if passed != should_pass:
            bad += 1
            print(f"self-test FAIL: {name}")
    # The refusal comes before any file is read; these paths do not exist.
    too_few = ["--update", "BASELINE.json"] + ["RUN.json"] * (MIN_UPDATE_RUNS - 1)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            refused = main(["check_perf_regression.py"] + too_few) == 2
    except OSError:
        refused = False
    if not refused:
        bad += 1
        print(f"self-test FAIL: --update refuses {MIN_UPDATE_RUNS - 1} runs")
    print("self-test " + ("failed" if bad else "passed"))
    return 1 if bad else 0


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    args = argv[1:]
    if args == ["--self-test"]:
        return self_test()
    update = bool(args) and args[0] == "--update"
    paths = args[1:] if update else args
    if len(paths) < 2 or paths[0].startswith("--"):
        print(__doc__)
        return 2
    if update and len(paths) - 1 < MIN_UPDATE_RUNS:
        print(f"perf gate: --update needs at least {MIN_UPDATE_RUNS} runs, got "
              f"{len(paths) - 1}: fewer runs under-read each row's spread "
              "(docs/operations.md, 'The perf-gate workflow')")
        return 2
    try:
        current = merge([load(p) for p in paths[1:]])
    except ValueError as e:
        print(f"perf gate: {e}")
        return 1
    if update:
        # One row per line, so that a re-baseline diffs row by row.
        head = json.dumps({k: v for k, v in current.items() if k != "rows"})
        rows = ",\n  ".join(json.dumps(r) for r in current["rows"])
        with open(paths[0], "w") as f:
            f.write(f'{head[:-1]}, "rows": [\n  {rows}\n]}}\n')
        print(f"wrote {paths[0]} from {len(paths) - 1} run(s)")
        return 0
    baseline = load(paths[0])
    for k, v in current["calibration_ms"].items():
        print(f"calibration: {k} kernel {v['median']:.2f} ms (baseline host "
              f"{baseline['calibration_ms'][k]['median']:.2f} ms)")
    failures = gate(baseline, current)
    if failures:
        print(f"\nperf gate: {len(failures)} failure(s):")
        for line in failures:
            print(f"  {line}")
        print("intentional change? re-baseline with --update "
              "(docs/operations.md, 'The perf-gate workflow')")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
