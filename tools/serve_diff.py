#!/usr/bin/env python3
"""serve_diff.py — diff `sps_sim serve` between two builds on hostile lines.

Renders two fixed protocol scripts for a small EASY machine:

  clean  ~400 submits with query, cancel and stats lines, fields separated
         by every classic-locale whitespace character the grammar allows;
  mixed  the same lines with a table of hostile lines spliced in: sign
         wraps on unsigned fields, trailing junk, overflow, bare signs and
         extra tokens.

Then it requires:
  * the clean-script output of the candidate to be byte-identical to the
    baseline's (accepted lines keep their replies);
  * every hostile line to draw an `err <verb>: expected: ...` reply from
    the candidate;
  * the candidate's mixed output with those replies removed to equal its
    clean output, i.e. no hostile line changed any state.

Usage:
  serve_diff.py --candidate build/tools/sps_sim --baseline old/sps_sim

Exit status: 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import subprocess
import sys

HOSTILE = [
    "cancel -4294967295", "submit {t} 1 10 10 -1", "submit {t} -5 10 10",
    "submit {t} 1 10 10junk", "cancel 4294967296", "query 4294967296",
    "submit 9223372036854775808 1 10 10", "submit {t} 1 10 -9223372036854775809",
    "cancel -", "cancel +", "submit - 1 10 10", "submit + 1 10 10",
    "submit {t} +1 10 10", "query -0", "cancel 1 1", "query 0 x",
    "submit {t} 1 10 10 0 0", "submit {t} 1 10 10 # note", "stats now",
]
SEPARATORS = [" ", "\t", " \v", "\f", " \r"]


def scripts() -> tuple[list[str], list[str], set[int]]:
    """The clean and mixed scripts, and the mixed-script indices of the
    hostile lines (every line draws exactly one reply)."""
    rng = random.Random(7)
    clean: list[str] = []
    mixed: list[str] = []
    hostile: set[int] = set()
    t = 0
    for i in range(400):
        t += rng.randint(0, 40)
        fields = ["submit", t, rng.randint(1, 4), rng.randint(1, 200),
                  rng.randint(200, 400), rng.randint(0, 64)]
        lines = [rng.choice(SEPARATORS).join(map(str, fields))]
        if i % 9 == 4:
            lines.append(f"query {i // 2}")
        if i % 13 == 6:
            lines.append(f"cancel {i}")
        if i % 17 == 0:
            lines.append("stats\r")
        clean += lines
        mixed += lines
        if i % 20 == 10:
            for line in HOSTILE[(i // 20) % len(HOSTILE)::8]:
                hostile.add(len(mixed))
                mixed.append(line.format(t=t))
    for line in HOSTILE:
        hostile.add(len(mixed))
        mixed.append(line.format(t=t))
    clean.append("drain")
    mixed.append("drain")
    return clean, mixed, hostile


def serve(binary: str, script: list[str]) -> list[str]:
    out = subprocess.run(
        [binary, "serve", "--procs", "4", "--policy", "easy"],
        input="\n".join(script) + "\n", capture_output=True, text=True,
        check=True)
    return out.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--candidate", required=True, help="sps_sim to check")
    parser.add_argument("--baseline", required=True,
                        help="sps_sim to compare against")
    args = parser.parse_args()

    clean, mixed, hostile = scripts()
    clean_out = serve(args.candidate, clean)
    mixed_out = serve(args.candidate, mixed)
    failures: list[str] = []
    if serve(args.baseline, clean) != clean_out:
        failures.append("clean-script output differs from the baseline")
    for i in sorted(hostile):
        if ": expected: " not in mixed_out[i]:
            failures.append(f"hostile line {mixed[i]!r} got {mixed_out[i]!r}")
    rest = [r for i, r in enumerate(mixed_out) if i not in hostile]
    if rest != clean_out:
        failures.append("a hostile line changed state: the mixed output "
                        "without its hostile replies differs from clean")
    for failure in failures:
        print(f"serve_diff: {failure}", file=sys.stderr)
    print(f"serve_diff: {len(hostile)} hostile lines, "
          f"{len(clean)} clean lines: {'FAIL' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
