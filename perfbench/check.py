"""Correctness check of one sweep against the reference, and failure counts.

An output value is within tolerance when |value - ref| <= rel_tol * |ref|.
Non-finite values must match exactly: an inf threshold (no positive root)
is a result and must be inf in the reference too.  Reference values whose
two quadrature orders disagree are unverified: they are counted and
listed, never compared and never dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# A verified value further off than this is a wrong answer, not a
# tolerance miss, and makes the run incorrect.
GROSS_REL_ERR = 1e-3


@dataclass
class Comparison:
    checked: int = 0          # verified reference values
    within: int = 0
    unverified: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    extra: list = field(default_factory=list)
    nonfinite_mismatch: list = field(default_factory=list)
    gross: list = field(default_factory=list)
    worst_rel_err: float = 0.0

    @property
    def within_tol_frac(self) -> float:
        return self.within / self.checked if self.checked else 0.0

    @property
    def ok(self) -> bool:
        return not (self.missing or self.extra or self.nonfinite_mismatch
                    or self.gross)


def compare(values: dict, ref_outputs: list, rel_tol: float) -> Comparison:
    """values: (point index, name) -> float; ref_outputs: [i, name, v, ok]."""
    c = Comparison()
    seen = set()
    for i, name, ref, verified in ref_outputs:
        key = (i, name)
        seen.add(key)
        value = values.get(key)
        if value is None:
            c.missing.append(key)
            continue
        if not verified:
            c.unverified.append(key)
            continue
        c.checked += 1
        if not (math.isfinite(ref) and math.isfinite(value)):
            if value == ref:
                c.within += 1
            else:
                c.nonfinite_mismatch.append(key)
            continue
        err = abs(value - ref)
        rel = err / abs(ref) if ref else (0.0 if err == 0 else math.inf)
        c.worst_rel_err = max(c.worst_rel_err, rel)
        if err <= rel_tol * abs(ref):
            c.within += 1
        elif rel > GROSS_REL_ERR:
            c.gross.append(key)
    c.extra = sorted(k for k in values if k not in seen)
    return c


def failures(calls, sweep) -> tuple[int, int, int]:
    """(attempted, not converged or raised, raised) for one sweep.

    A component result fails when it reports converged=False or raises.
    A CLI exit code 4 must be explained by such a result; if none is
    seen, the job itself counts as one more failed result.  A component
    that raises aborts the call around it, so sweep errors beyond the
    component errors were raised elsewhere and count the same way.
    """
    attempted = len(calls)
    raised = sum(1 for c in calls if c.error is not None)
    failed = raised + sum(1 for c in calls
                          if c.error is None and not c.result.converged)
    escaped = max(0, len(sweep.errors) - raised)
    if sweep.exit_code not in (None, 0) and failed + escaped == 0:
        escaped += 1
    return max(attempted, 1), failed + escaped, raised + escaped
