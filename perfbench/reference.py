"""Comparison of CLI artifacts against the frozen reference tables.

Columns whose name starts with ``log_`` are natural logs of integrals
computed to a relative tolerance ``rel_tol``; a relative error e moves a
log by about e, and a band value chains a few such integrals (cached
excursion integral, interpolation, convolution).  They may therefore
differ from the reference by ``LOG_TOL_PER_REL_TOL * rel_tol`` nats.
Every other column (radii, exact oracle counts) must match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

LOG_TOL_PER_REL_TOL = 10.0


def log_tolerance(rel_tol: float) -> float:
    """Allowed absolute difference, in nats, of a ``log_`` column."""
    return LOG_TOL_PER_REL_TOL * rel_tol


@dataclass
class Checks:
    """Attempted and failed checks, with a message per failure."""
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages)


def _same(ref: float, got: float, tol: float) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return False
    if math.isinf(ref) or math.isinf(got):
        return ref == got
    return abs(got - ref) <= tol


def compare_csv(ref_text: str, got_text: str, rel_tol: float,
                label: str) -> Checks:
    """One check per reference value; a shape mismatch is one failed check."""
    checks = Checks()
    ref_rows = [line.split(",") for line in ref_text.strip().splitlines()]
    got_rows = [line.split(",") for line in got_text.strip().splitlines()]
    if ref_rows[0] != got_rows[0] or len(ref_rows) != len(got_rows):
        checks.check(False, f"{label}: header or row count differs "
                            f"from the reference")
        return checks
    tols = [log_tolerance(rel_tol) if col.startswith("log_") else 0.0
            for col in ref_rows[0]]
    for lineno, (ref, got) in enumerate(zip(ref_rows[1:], got_rows[1:]), 2):
        if len(got) != len(ref):
            checks.check(False, f"{label}:{lineno}: column count differs")
            continue
        for col, tol, r, g in zip(ref_rows[0], tols, ref, got):
            try:
                ok = _same(float(r), float(g), tol)
            except ValueError:
                ok = False
            checks.check(ok, f"{label}:{lineno}: {col} is {g}, "
                             f"reference {r} (tolerance {tol!r})")
    return checks
