#!/usr/bin/env python3
"""Check one JSON result file against tier-1 gates.

    python3 scripts/bench_gate.py FILE [--ok MESSAGE] 'PATH OP VALUE | MESSAGE' ...

PATH is a dotted key path into the file's JSON object (`run_heavy.speedup`),
OP is `==`, `<=` or `>=`, and VALUE is a JSON literal (`true`, `0`, `2.0`).
Gates are checked in order: the first that fails prints
`tier1: FAIL — MESSAGE` and exits 1, and so does a missing field. `{PATH}`
in a message is replaced by that field's value. When every gate passes,
the --ok message is printed the same way.
"""

import json
import operator
import re
import sys

OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


def lookup(doc, path):
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            raise KeyError(path)
        doc = doc[key]
    return doc


def render(doc, message):
    return re.sub(r"\{([\w.]+)\}", lambda m: json.dumps(lookup(doc, m.group(1))), message)


def holds(actual, op, expected):
    # `true == 1` in Python; a boolean gate must read a boolean.
    if isinstance(actual, bool) != isinstance(expected, bool):
        return False
    return OPS[op](actual, expected)


def main(argv):
    path, args = argv[0], argv[1:]
    ok = None
    if args[:1] == ["--ok"]:
        ok, args = args[1], args[2:]
    with open(path) as f:
        doc = json.load(f)
    try:
        for gate in args:
            check, message = (part.strip() for part in gate.split("|", 1))
            field, op, literal = check.split()
            if not holds(lookup(doc, field), op, json.loads(literal)):
                print(f"tier1: FAIL — {render(doc, message)}")
                return 1
        if ok is not None:
            print(render(doc, ok))
    except KeyError as e:
        print(f"tier1: FAIL — {path} has no field {e.args[0]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
