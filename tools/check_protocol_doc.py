#!/usr/bin/env python3
"""Cross-check docs/protocol.md constant tables against src/serve/protocol.hpp.

No-build twin of tests/test_protocol_doc.cpp: CI's docs job runs this in
seconds without a compiler, so a doc/header mismatch fails fast even on
doc-only pushes.  The compiled test remains the authoritative check (it
reads the enums through the C++ compiler, not a regex).

Usage: check_protocol_doc.py [REPO_ROOT]     (default: repo containing this
script).  Exit 0 = in sync, 1 = drift, 2 = parse failure.
"""

import os
import re
import sys


def parse_header_enum(text, enum_name):
    """Returns {name: value} for one `enum class NAME : ... { ... };`."""
    m = re.search(r"enum class %s[^{]*\{(.*?)\};" % enum_name, text, re.S)
    if not m:
        raise SystemExit(f"error: enum {enum_name} not found in header")
    body = re.sub(r"//[^\n]*", "", m.group(1))  # strip comments
    entries = {}
    for name, value in re.findall(r"(\w+)\s*=\s*(\d+)", body):
        entries[name] = int(value)
    if not entries:
        raise SystemExit(f"error: enum {enum_name} parsed empty")
    return entries


def parse_doc_table(text, heading):
    """Returns {name: value} from '| `name` | value |' rows under heading."""
    start = text.find(heading)
    if start < 0:
        raise SystemExit(f"error: doc section {heading!r} not found")
    end = text.find("\n## ", start)
    section = text[start:end if end >= 0 else len(text)]
    rows = {}
    for name, value in re.findall(r"^\| `(\w+)` \|\s*(\d+)\s*\|",
                                  section, re.M):
        if name in rows:
            raise SystemExit(f"error: duplicate doc row {name!r}")
        rows[name] = int(value)
    if not rows:
        raise SystemExit(f"error: no table rows under {heading!r}")
    return rows


def bold_number_after(text, marker):
    m = re.search(re.escape(marker) + r".*?\*\*(\d+)\*\*", text, re.S)
    if not m:
        raise SystemExit(f"error: doc lost the line {marker!r}")
    return int(m.group(1))


def retired_numbers(text):
    """The numbers of the 'Retired numbers, never reused:' sentence, minus
    those inside parentheses (the retired messages' names)."""
    m = re.search(r"Retired numbers, never reused:([^.]*)\.", text)
    if not m:
        raise SystemExit("error: doc lost the retired-numbers sentence")
    return {int(n) for n in re.findall(r"\d+", re.sub(r"\([^)]*\)", "",
                                                       m.group(1)))}


def diff(label, doc, header, problems):
    for name in sorted(set(doc) | set(header)):
        if name not in header:
            problems.append(f"{label}: doc documents {name!r} "
                            "which the header does not define")
        elif name not in doc:
            problems.append(f"{label}: header defines {name!r} "
                            "which the doc does not document")
        elif doc[name] != header[name]:
            problems.append(f"{label}: {name!r} documented as {doc[name]} "
                            f"but defined as {header[name]}")


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    header_path = os.path.join(root, "src", "serve", "protocol.hpp")
    doc_path = os.path.join(root, "docs", "protocol.md")
    with open(header_path) as f:
        header = f.read()
    with open(doc_path) as f:
        doc = f.read()

    problems = []

    version = re.search(
        r"protocol_version\s*=\s*(\d+)", header)
    if not version:
        raise SystemExit("error: protocol_version not found in header")
    doc_version = bold_number_after(doc, "Protocol version:")
    if doc_version != int(version.group(1)):
        problems.append(f"protocol version: documented {doc_version}, "
                        f"header says {version.group(1)}")

    payload = re.search(
        r"max_frame_payload\s*=\s*(\d+)u?\s*<<\s*(\d+)", header)
    if not payload:
        raise SystemExit("error: max_frame_payload not found in header")
    header_payload = int(payload.group(1)) << int(payload.group(2))
    doc_payload = bold_number_after(doc, "Maximum payload length:")
    if doc_payload != header_payload:
        problems.append(f"max payload: documented {doc_payload}, "
                        f"header says {header_payload}")

    msg_types = parse_header_enum(header, "msg_type")
    diff("message type", parse_doc_table(doc, "## Message types"),
         msg_types, problems)
    for name, value in sorted(msg_types.items()):
        if value in retired_numbers(doc):
            problems.append(f"message type: {name!r} reuses retired "
                            f"number {value}")
    diff("error code", parse_doc_table(doc, "## Error codes"),
         parse_header_enum(header, "error_code"), problems)

    if problems:
        print(f"docs/protocol.md out of sync with src/serve/protocol.hpp "
              f"({len(problems)} problem(s)):")
        for p in problems:
            print(f"  {p}")
        return 1
    print("docs/protocol.md is in sync with src/serve/protocol.hpp")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
