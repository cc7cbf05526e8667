#!/usr/bin/env python3
"""Hostile-input memory bound for usher-cli's parser.

Writes a 4 MiB source made only of ';' and runs `usher-cli --no-run` on
it. The parser must reject it with exit code 2, and the child's peak RSS
(getrusage RUSAGE_CHILDREN) must stay under 64 MB: the lexer streams
tokens, so memory does not grow with the number of tokens in the input.

Usage:
  check_hostile_input.py CLI_BIN

Prints "check_hostile_input: OK" on success; the ctest entry keys off it.
"""

import os
import resource
import subprocess
import sys
import tempfile

SOURCE_BYTES = 4 * 1024 * 1024
RSS_LIMIT_MB = 64


def fail(msg):
    print(f"check_hostile_input: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    cli = argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "semicolons.tc")
        with open(path, "w") as f:
            f.write(";" * SOURCE_BYTES)
        proc = subprocess.run([cli, path, "--no-run"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if proc.returncode != 2:
        fail(f"exit code {proc.returncode}, expected 2; stderr: "
             f"{proc.stderr[:200]!r}")
    if "expected 'global' or 'func' at top level" not in proc.stderr:
        fail(f"missing the top-level diagnostic; stderr: {proc.stderr[:200]!r}")
    if peak_mb >= RSS_LIMIT_MB:
        fail(f"peak RSS {peak_mb:.1f} MB, limit {RSS_LIMIT_MB} MB")
    print(f"check_hostile_input: OK (peak RSS {peak_mb:.1f} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
