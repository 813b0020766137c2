"""Output checks: every answer the benchmark times is also verified.

Each check returns a list of human-readable failures; an empty list means
the outputs are correct.  A run with any failure prints ``"correct": false``
and exits non-zero.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: A served label is accepted when its reference probability is within this
#: distance of the reference maximum.  The server runs a compiled float32
#: tape and the reference the eager float32 forward; their probabilities
#: differ by rounding only (~1e-6), so this admits near-ties and nothing else.
LABEL_PROB_TOLERANCE = 1e-4


def acceptable_labels(probabilities: np.ndarray, tolerance: float = LABEL_PROB_TOLERANCE) -> List[frozenset]:
    """For each row of reference probabilities, the labels a correct server may return."""
    probabilities = np.asarray(probabilities)
    best = probabilities.max(axis=1, keepdims=True)
    return [frozenset(np.flatnonzero(row >= top - tolerance).tolist()) for row, top in zip(probabilities, best)]


def check_labels(what: str, returned: Iterable[Tuple[int, int]], accepted: Sequence[frozenset]) -> List[str]:
    """``returned`` holds ``(pool index, served label)`` pairs."""
    failures = []
    for index, label in returned:
        if label not in accepted[index]:
            failures.append(f"{what}: window {index} served label {label}, reference {sorted(accepted[index])}")
    return failures[:5] + ([f"{what}: {len(failures) - 5} more label mismatches"] if len(failures) > 5 else [])


def check_stream_done(done: Optional[Mapping[str, int]], sent_windows: int) -> List[str]:
    """The session's closing line must account for every window it was sent."""
    if done is None:
        return ["stream: session ended without a done line"]
    failures = []
    if done.get("windows") != sent_windows:
        failures.append(f"stream: done line counts {done.get('windows')} windows, {sent_windows} were sent")
    if done.get("ok") != done.get("windows"):
        failures.append(f"stream: only {done.get('ok')} of {done.get('windows')} windows answered ok")
    if done.get("shed") or done.get("deadline_exceeded"):
        failures.append(f"stream: {done.get('shed')} shed, {done.get('deadline_exceeded')} past deadline")
    return failures


def check_finite(what: str, losses: Sequence[float]) -> List[str]:
    if not losses:
        return [f"{what}: no training loss was observed"]
    bad = [i for i, value in enumerate(losses) if not math.isfinite(value)]
    return [f"{what}: {len(bad)} of {len(losses)} losses are not finite (first at {bad[0]})"] if bad else []


def check_band(what: str, value: float, band: Tuple[float, float]) -> List[str]:
    """``value`` must lie in the closed ``band`` set from its spread across seeds."""
    low, high = band
    if not (math.isfinite(value) and low <= value <= high):
        return [f"{what}: {value:.5g} outside the seed band [{low:.5g}, {high:.5g}]"]
    return []


def check_compile_stats(before: Dict[str, float], after: Dict[str, float]) -> List[str]:
    """No trace, fallback or quarantine may happen while the run is timed."""
    return [
        f"jit: {key} went from {before[key]:g} to {after[key]:g} during the timed window"
        for key in ("traces", "fallbacks", "quarantines")
        if after[key] != before[key]
    ]
