#!/usr/bin/env python3
"""Check that every engine event label in src/ maps to a layer.

The traced run charges each event to a layer by its label (layers.cc).
This test scans the simulator sources for every event-label literal and
every generated label form, asks the benchmark binary to classify them,
and fails when one falls through to no layer, so a new label cannot
silently inflate another layer's share.

Usage (from the repository root, after perfbench/run.py has built the
benchmark once):

    python3 perfbench/test_label_map.py

Exit status 0 when every label maps, 1 otherwise.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "uqsim_perfbench")

# The instance name the generated service forms expand with; the
# classifier is told it is an instance, as a traced simulation would be.
SAMPLE_INSTANCE = "svc.0"

# Generated label forms: the source text that builds the label (a
# regular expression over one statement) -> a sample label it produces.
GENERATED_FORMS = {
    r'stageLabels_\.push_back\(name_ \+ "/" \+ stage\.name\)':
        SAMPLE_INSTANCE + "/stage",
    r'spawnLabel_ = name_ \+ "/spawn"': SAMPLE_INSTANCE + "/spawn",
    r'retireLabel_ = name_ \+ "/retire"': SAMPLE_INSTANCE + "/retire",
    # IrqService is named "<machine>/irq" by Machine.
    r'doneLabel_\(name_ \+ "/done"\)': "m0/irq/done",
    r'serviceLabel = "bighouse/" \+ station\.config\.name':
        "bighouse/station",
}

# Callees whose string-literal arguments name an RNG stream or an
# explorer choice site, never an event.
NON_EVENT_CALLEE = re.compile(
    r"^(timerNudge|windowShift|choose|makeStream|RngStream)$|[Rr]ng_?$")

LABEL_SHAPE = re.compile(r"^[a-z][a-z0-9_-]*(/[a-z0-9_-]+)+$")
SCHEDULE_CALL = re.compile(r"\b(scheduleAt|scheduleAfter|schedule)\s*\(")
# Non-empty: an empty default marks a free event slot, not an event.
LABEL_DEFAULT = re.compile(r'\blabel\s*=\s*"([^"]+)"')
# A statement that builds a *Label_ member (or an obj.xLabel field) by
# concatenation.
GENERATED_LABEL = re.compile(
    r"\b(\w*Labels?_|\w+\.\w*Label)\s*(=|\(|\.push_back\()[^;]*\+[^;]*")


def skip_string(text, i):
    """Index just past the string literal that starts at text[i]."""
    j = i + 1
    while j < len(text) and text[j] != '"':
        j += 2 if text[j] == "\\" else 1
    return j + 1


def strip_comments(text):
    """Blank out comments, keeping string literals and line numbers."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] == '"':
            j = skip_string(text, i)
            out.append(text[i:j])
            i = j
        elif text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def enclosing_callee(text, pos):
    """Name of the innermost call whose parentheses enclose pos."""
    depth = 0
    i = pos - 1
    while i >= 0:
        c = text[i]
        if c == ")":
            depth += 1
        elif c == "(":
            if depth == 0:
                m = re.search(r"([A-Za-z_]\w*)\s*$", text[:i])
                return m.group(1) if m else ""
            depth -= 1
        elif c in ";{}" and depth == 0:
            return ""
        i -= 1
    return ""


def call_arguments(text, open_paren):
    """Top-level argument strings of the call opened at open_paren."""
    args = []
    depth = 0
    start = open_paren + 1
    i = open_paren
    while i < len(text):
        c = text[i]
        if c == '"':
            i = skip_string(text, i)
            continue
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i].strip())
                return args
        elif c == "," and depth == 1:
            args.append(text[start:i].strip())
            start = i + 1
        i += 1
    return args


def scan_sources():
    """Returns ({literal label: first location}, [(form, location)])."""
    literals = {}
    generated = []
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(base, name)
            with open(path, encoding="utf-8") as handle:
                text = strip_comments(handle.read())
            rel = os.path.relpath(path, ROOT)

            def where(pos):
                return "%s:%d" % (rel, text.count("\n", 0, pos) + 1)

            for m in re.finditer(r'"([^"\\]*)"', text):
                if not LABEL_SHAPE.match(m.group(1)):
                    continue
                if NON_EVENT_CALLEE.search(enclosing_callee(text,
                                                            m.start())):
                    continue
                literals.setdefault(m.group(1), where(m.start()))
            for m in SCHEDULE_CALL.finditer(text):
                args = call_arguments(text, m.end() - 1)
                if len(args) >= 3 and re.fullmatch(r'"[^"]*"', args[-1]):
                    literals.setdefault(args[-1][1:-1], where(m.start()))
            for m in LABEL_DEFAULT.finditer(text):
                literals.setdefault(m.group(1), where(m.start()))
            for m in GENERATED_LABEL.finditer(text):
                statement = " ".join(m.group(0).split())
                generated.append((statement, where(m.start())))
    return literals, generated


def classify(labels):
    command = [BINARY, "--classify", "--instance", SAMPLE_INSTANCE]
    result = subprocess.run(command, input="\n".join(labels) + "\n",
                            capture_output=True, text=True, check=True)
    return dict(line.split("\t") for line in result.stdout.splitlines())


def main():
    if not os.path.isfile(BINARY):
        print("build the benchmark first: python3 perfbench/run.py ...",
              file=sys.stderr)
        return 1
    literals, generated = scan_sources()
    problems = []

    labels = dict(literals)
    seen_forms = set()
    for statement, where in generated:
        matches = [form for form in GENERATED_FORMS
                   if re.search(form, statement)]
        if not matches:
            problems.append("%s: generated label form not in "
                            "GENERATED_FORMS: %s" % (where, statement))
        for form in matches:
            seen_forms.add(form)
            labels.setdefault(GENERATED_FORMS[form], where)
    for form in GENERATED_FORMS:
        if form not in seen_forms:
            problems.append("GENERATED_FORMS entry no longer in src/: "
                            + form)

    layers = classify(sorted(labels))
    for label in sorted(labels):
        layer = layers.get(label, "unmapped")
        print("%-28s %-10s %s" % (label, layer, labels[label]))
        if layer == "unmapped":
            problems.append("%s: label \"%s\" maps to no layer "
                            "(perfbench/layers.cc)" % (labels[label], label))

    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("%d labels, %d generated forms, %d problems"
          % (len(labels), len(seen_forms), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
