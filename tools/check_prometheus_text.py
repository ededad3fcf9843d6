#!/usr/bin/env python3
"""Validate xsfq_served's Prometheus plaintext scrape (--stats output).

Usage:
    check_prometheus_text.py SCRAPE [LATER_SCRAPE]
    check_prometheus_text.py --self-test

Single-file checks (the exposition-format rules that actually bite):

  - every line is `name value` or `name{label="v",...} value`;
  - metric and label names match the Prometheus charset
    ([a-zA-Z_:][a-zA-Z0-9_:]*, labels without ':');
  - label values are double-quoted with only \\", \\\\ and \\n escapes;
  - values parse as finite floats (+Inf allowed only on `le` buckets — it
    lives in the label there, never in the value);
  - no duplicate series (same name + same label set twice in one scrape);
  - `_total` metrics and `_bucket`/`_count`/`_sum` histogram series carry
    no "timestamp" third column (xsfq never emits one).

With a second file, cross-scrape monotonicity: every `*_total` and
`*_count`/`*_bucket` series present in both scrapes must not decrease —
counters only go up within one daemon lifetime.

No third-party dependencies; exits nonzero with a message per violation.
"""

import re
import sys

METRIC_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# One label pair: name="value" with only \" \\ \n escapes inside.
LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"')

SELF_TEST_SAMPLE = """\
xsfq_build_info{version="0.1.0",git_sha="abc1234"} 1
xsfq_uptime_seconds 42
xsfq_jobs_submitted_total 6
xsfq_cache_hits_total{tier="full"} 3
xsfq_latency_ms_bucket{name="request_total",le="+Inf"} 6
xsfq_latency_ms_sum{name="request_total"} 123.5
xsfq_latency_ms_count{name="request_total"} 6
"""

SELF_TEST_LATER = """\
xsfq_build_info{version="0.1.0",git_sha="abc1234"} 1
xsfq_uptime_seconds 43
xsfq_jobs_submitted_total 8
xsfq_cache_hits_total{tier="full"} 4
xsfq_latency_ms_bucket{name="request_total",le="+Inf"} 8
xsfq_latency_ms_sum{name="request_total"} 140.0
xsfq_latency_ms_count{name="request_total"} 8
"""


def parse_line(line, where, errors):
    """Returns (series_key, metric_name, value) or None after reporting."""
    if line.startswith("#"):  # HELP/TYPE (the fleet scrape) or a comment
        return None
    # Split the sample value off the end; labels may contain spaces.
    if line.endswith("}") or " " not in line:
        errors.append(f"{where}: not `name[{{labels}}] value`: {line!r}")
        return None
    body, _, value_text = line.rpartition(" ")
    body = body.rstrip()
    if "{" in body:
        if not body.endswith("}"):
            errors.append(f"{where}: unterminated label set: {line!r}")
            return None
        name, _, labels_text = body[:-1].partition("{")
        # The pairs must tile the whole label string (with comma separators):
        # anything LABEL_PAIR_RE skipped is a syntax error.
        rebuilt, pairs, pos = [], [], 0
        for m in LABEL_PAIR_RE.finditer(labels_text):
            gap = labels_text[pos:m.start()]
            if gap not in ("", ","):
                errors.append(f"{where}: bad label syntax near {gap!r}: "
                              f"{line!r}")
                return None
            pairs.append((m.group(1), m.group(2)))
            rebuilt.append(m.group(0))
            pos = m.end()
        if pos != len(labels_text) or not pairs:
            errors.append(f"{where}: bad label syntax: {line!r}")
            return None
        for label, _ in pairs:
            if not LABEL_RE.match(label):
                errors.append(f"{where}: bad label name {label!r}: {line!r}")
                return None
    else:
        name, pairs = body, []
    if not METRIC_RE.match(name):
        errors.append(f"{where}: bad metric name {name!r}: {line!r}")
        return None
    label_map = dict(pairs)
    try:
        value = float(value_text)
    except ValueError:
        errors.append(f"{where}: bad sample value {value_text!r}: {line!r}")
        return None
    if value in (float("inf"), float("-inf")) or value != value:
        # +Inf belongs in the `le` label, never in the sample column.
        errors.append(f"{where}: non-finite sample value: {line!r}")
        return None
    series = name + "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"
    return series, name, value


def parse_scrape(text, label):
    errors = []
    series = {}
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parsed = parse_line(line, f"{label}:{i}", errors)
        if parsed is None:
            continue
        key, name, value = parsed
        if key in series:
            errors.append(f"{label}:{i}: duplicate series {key}")
            continue
        series[key] = (name, value)
    return series, errors


def monotonic_name(name):
    return name.endswith(("_total", "_count", "_bucket"))


def check_monotonic(first, later, errors):
    for key, (name, value) in first.items():
        if not monotonic_name(name):
            continue
        if key not in later:
            # Sparse exposition: buckets/fault sites may appear later only.
            continue
        later_value = later[key][1]
        if later_value < value:
            errors.append(f"counter went backwards: {key} {value} -> "
                          f"{later_value}")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "--self-test":
        first, errors = parse_scrape(SELF_TEST_SAMPLE, "sample")
        later, later_errors = parse_scrape(SELF_TEST_LATER, "later")
        errors += later_errors
        check_monotonic(first, later, errors)
        # The checker must also REJECT known-bad lines.
        for bad in ('xsfq_bad metric 1', 'xsfq_x{tier=full} 1',
                    '9leading_digit 1', 'xsfq_x 1 2 3 nonsense',
                    'xsfq_x +Inf'):
            _, bad_errors = parse_scrape(bad, "bad")
            if not bad_errors:
                errors.append(f"self-test: accepted bad line {bad!r}")
        if errors:
            for e in errors:
                print(f"check_prometheus_text: SELF-TEST FAILED: {e}",
                      file=sys.stderr)
            return 1
        print("check_prometheus_text: self-test OK")
        return 0

    with open(argv[1], "r", encoding="utf-8") as f:
        first, errors = parse_scrape(f.read(), argv[1])
    if len(argv) > 2:
        with open(argv[2], "r", encoding="utf-8") as f:
            later, later_errors = parse_scrape(f.read(), argv[2])
        errors += later_errors
        check_monotonic(first, later, errors)
    if errors:
        for e in errors:
            print(f"check_prometheus_text: {e}", file=sys.stderr)
        return 1
    print(f"check_prometheus_text: OK ({len(first)} series)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
