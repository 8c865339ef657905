#!/usr/bin/env python3
"""Compare the command-line artifacts of the working tree with a git ref's.

Usage: python tools/artifact_diff.py REF

Checks REF out into a temporary git worktree, runs the same cuspgrowth
commands against its src/ tree and against the working tree's, one output
directory per command, and compares the two sets of output directories
file by file.  Each command's exit code and console output are compared
too.  The worktree is removed afterwards.

Exits 0 when everything is byte-identical, 1 on any difference, which
it lists, and 2 when REF cannot be checked out.  A change that moves the
numerics on purpose shows here as a difference; record it where the
change is described.  Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (output directory, command line); the catalog commands run every family
RUNS = (
    ("profile-validate", ["profile-validate", "--name", "all"]),
    ("cusp-analyze", ["cusp-analyze", "--name", "all"]),
    ("lattice-classify", ["lattice-classify"]),
    ("example-run", ["example-run", "--name", "all", "--Rmax", "500"]),
    ("oracle-verify", ["oracle-verify"]),
    ("oracle-verify-rcap14", ["oracle-verify", "--Rcap", "14", "--seed", "1"]),
)

# lines of unified diff shown per differing text file
SHOWN_LINES = 20


def run_commands(src: Path, out: Path) -> None:
    """Run every command against the package in ``src``, writing into
    ``out``; each command's exit code and console output go to
    ``<directory>.console``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out.mkdir()
    for name, argv in RUNS:
        print(f"  {' '.join(argv)}", flush=True)
        proc = subprocess.run(
            [sys.executable, "-m", "cuspgrowth.cli", *argv, "--out", name],
            cwd=out, env=env, capture_output=True, text=True)
        (out / f"{name}.console").write_text(
            f"exit code {proc.returncode}\n{proc.stdout}{proc.stderr}")


def _files(top: Path) -> set[str]:
    return {str(p.relative_to(top)) for p in top.rglob("*") if p.is_file()}


def compare(old: Path, new: Path) -> list[str]:
    """A description of every difference between the two directories."""
    found = []
    old_files, new_files = _files(old), _files(new)
    found += [f"only at the ref: {f}" for f in sorted(old_files - new_files)]
    found += [f"only in the working tree: {f}"
              for f in sorted(new_files - old_files)]
    for rel in sorted(old_files & new_files):
        a, b = (old / rel).read_bytes(), (new / rel).read_bytes()
        if a == b:
            continue
        found.append(f"differs: {rel}")
        try:
            lines = list(difflib.unified_diff(
                a.decode().splitlines(), b.decode().splitlines(),
                f"ref/{rel}", f"tree/{rel}", lineterm=""))
        except UnicodeDecodeError:
            continue
        found += ["    " + line for line in lines[:SHOWN_LINES]]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git commit to compare against, e.g. HEAD~")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "ref-tree"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                           "--detach", "--quiet", str(checkout),
                           args.ref]).returncode:
            print(f"cannot check out {args.ref!r}", file=sys.stderr)
            return 2
        try:
            print(f"ref {args.ref}:", flush=True)
            run_commands(checkout / "src", tmp / "ref")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(checkout)], check=True)
        print("working tree:", flush=True)
        run_commands(ROOT / "src", tmp / "tree")
        found = compare(tmp / "ref", tmp / "tree")
    for line in found:
        print(line)
    print(f"artifacts differ from {args.ref}" if found
          else f"every artifact is byte-identical to {args.ref}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
