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
    # deep excursion integrals, with many panels per radius
    ("cusp-analyze-rmax4000", ["cusp-analyze", "--name", "all",
                               "--Rmax", "4000"]),
    ("lattice-classify", ["lattice-classify"]),
    ("example-run", ["example-run", "--name", "all", "--Rmax", "500"]),
    # below the sampled-claim radius: prediction claims and the
    # transient note only
    ("example-run-rmax60", ["example-run", "--name", "all", "--Rmax", "60"]),
    ("example-run-plot", ["example-run", "--name", "exotic-div-5.3b",
                          "--plot-script"]),
    ("oracle-verify", ["oracle-verify"]),
    ("oracle-verify-rcap14", ["oracle-verify", "--Rcap", "14", "--seed", "1"]),
    ("help", ["--help"]),
    # accepted catalog overrides
    ("profile-validate-gamma", ["profile-validate", "--name",
                                "critical-infinite-5.4b", "--gamma", "0.3"]),
    ("cusp-analyze-b-m", ["cusp-analyze", "--name", "sparse-5.2",
                          "--b", "4", "--M", "4"]),
    ("example-run-overrides", ["example-run", "--name",
                               "critical-finite-5.4a", "--gamma", "0.3",
                               "--b", "3.5", "--Rmax", "60"]),
    # bridge ladders on bands the defaults do not reach: every family at
    # other fast rates (at 2.5 no ramp fraction bridges the critical head
    # band [2, 9], and the run exits 2 naming it), and wide critical windows
    ("profile-validate-b35", ["profile-validate", "--name", "all",
                              "--b", "3.5"]),
    ("profile-validate-b25", ["profile-validate", "--name", "all",
                              "--b", "2.5"]),
    # the same bridge error comes before a later family's layout error
    # (critical-infinite-5.4b needs beta in (1+gamma, 2+gamma)): the
    # catalog is built in one batch, which raises what building the
    # families in order raises first
    ("lattice-classify-b25-gamma01", ["lattice-classify", "--b", "2.5",
                                      "--gamma", "0.1"]),
    ("profile-validate-mu-m", ["profile-validate", "--name",
                               "critical-finite-5.4a", "--mu", "0.2",
                               "--M", "5"]),
    # the head band [2, 16] of both critical families, where the ladder's
    # best-ranked ramp fraction leaves the envelope sandwich and the
    # second-ranked one is kept
    ("profile-validate-m4", ["profile-validate", "--name", "all",
                             "--M", "4"]),
    # failed claims, which exit 1 and print the FAIL lines of the reports
    ("example-run-m4", ["example-run", "--name", "critical-finite-5.4a",
                        "--M", "4"]),
    ("example-run-gamma09", ["example-run", "--name",
                             "critical-infinite-5.4b", "--gamma", "0.9"]),
    # a deeper power-decay band: the horizon sets the kernel's terms
    ("example-run-rmax4000", ["example-run", "--name",
                              "critical-infinite-5.4b", "--Rmax", "4000"]),
    ("oracle-verify-rcap83", ["oracle-verify", "--Rcap", "8.3"]),
    # configuration errors, which exit 2 with a message naming the flag
    ("example-run-rmax5", ["example-run", "--Rmax", "5"]),
    ("oracle-verify-b", ["oracle-verify", "--b", "3"]),
    ("cusp-analyze-gamma", ["cusp-analyze", "--name",
                            "critical-infinite-5.4b", "--gamma", "0.3"]),
    ("oracle-verify-delta2", ["oracle-verify", "--Rcap", "14",
                              "--delta", "2"]),
    # a family past the first rejects the override: exits 2 having
    # written nothing, not even the families that ran before it
    ("example-run-mu045", ["example-run", "--name", "all", "--mu", "0.45"]),
    # a spacing base inside the float range whose window edges overflow it
    ("profile-validate-huge-m", ["profile-validate", "--name", "sparse-5.2",
                                 "--M", "1" + "0" * 300]),
    # window edges inside the float range whose squares overflow it
    ("profile-validate-deep-m", ["profile-validate", "--name",
                                 "critical-finite-5.4a", "--M",
                                 "1" + "0" * 21]),
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
