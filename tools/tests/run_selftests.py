#!/usr/bin/env python3
"""Self-tests for ccg_lint.py.

Every directory under fixtures/ is a tiny translation unit with a known
expected outcome: positive fixtures must produce specific findings
(right rule, right function in the chain), negative fixtures must come
back clean. The r2_allow fixture runs twice — once bare (must flag) and
once with its allowlist (must pass) — so the allowlist plumbing itself
is under test, not just the rules.

The selftest is hermetic: it needs only a Python interpreter. Exit 0 if
every case behaves, 1 otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, os.pardir, "ccg_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# (name, fixture, extra args, expected exit, must contain, must not contain)
CASES = [
    ("R1 flags a parallel-path rng draw",
     "r1_bad", [], 1,
     ["[R1 shared-rng]", "draw_helper", "fix::round_body"], []),
    ("R1 honors commit-phase-sequential",
     "r1_good", [], 0,
     ["clean"], ["[R1"]),
    ("R2 flags an alloc behind zero-alloc",
     "r2_bad", [], 1,
     ["[R2 zero-alloc]", "push_back", "fix::warm_path"], []),
    ("R2 honors cold-path and inline allow",
     "r2_good", [], 0,
     ["clean"], ["[R2"]),
    ("R2 flags without the allowlist",
     "r2_allow", [], 1,
     ["[R2 zero-alloc]", "resize"], []),
    ("R2 honors the allowlist file",
     "r2_allow",
     ["--allowlist", os.path.join(FIXTURES, "r2_allow", "allow.txt")], 0,
     ["clean"], ["[R2"]),
    ("R3 flags a throw escaping a public method",
     "r3_bad", [], 1,
     ["[R3 no-throw]", "throw", "fix::Solver::solve"], []),
    ("R3 honors catch-boundary",
     "r3_good", [], 0,
     ["clean"], ["[R3"]),
    ("R4 flags bad grammar and duplicates",
     "r4_bad", [], 1,
     ["[R4 failpoint-name]", "BadName", "duplicate failpoint name"], []),
    ("R4 passes unique conforming names",
     "r4_good", [], 0,
     ["clean"], ["[R4"]),
]


def run_case(case):
    name, fixture, extra, want_exit, want, ban = case
    cmd = [sys.executable, LINT,
           "--root", os.path.join(FIXTURES, fixture),
           "--src", "."] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    problems = []
    if proc.returncode != want_exit:
        problems.append(f"exit {proc.returncode}, wanted {want_exit}")
    for w in want:
        if w not in out:
            problems.append(f"missing {w!r}")
    for b in ban:
        if b in out:
            problems.append(f"unexpected {b!r}")
    return problems, out


def main():
    failures = 0
    for case in CASES:
        problems, out = run_case(case)
        if problems:
            failures += 1
            print(f"FAIL  {case[0]}")
            for p in problems:
                print(f"      {p}")
            for line in out.strip().splitlines():
                print(f"      | {line}")
        else:
            print(f"ok    {case[0]}")
    total = len(CASES)
    print(f"{total - failures}/{total} selftests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
