"""Optional on-disk cache for sequence prefixes.

Activated by the MOMENTGATE_CACHE_DIR environment variable; entries are
content-addressed by a hash of the canonical spec JSON, so a cache can be
shared between runs and machines without coordination.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from array import array
from typing import Optional

import numpy as np

from .sequences import WeightSequence, spec_to_json

__all__ = ["cache_dir", "spec_key", "warm", "persist"]

_MIN_PERSIST = 2048


def cache_dir() -> Optional[str]:
    d = os.environ.get("MOMENTGATE_CACHE_DIR")
    return d if d else None


def spec_key(seq: WeightSequence) -> str:
    canonical = json.dumps(spec_to_json(seq.spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _path(seq: WeightSequence, d: str) -> str:
    return os.path.join(d, spec_key(seq) + ".npy")


def warm(seq: WeightSequence) -> bool:
    """Seed the prefix from the cache; stale or inconsistent files are ignored."""
    d = cache_dir()
    if d is None:
        return False
    path = _path(seq, d)
    if not os.path.exists(path):
        return False
    try:
        values = np.load(path)
    except (OSError, ValueError):
        return False
    if values.dtype != np.float64 or values.ndim != 1 or len(values) <= len(seq._prefix):
        return False
    # trust only the bits a cold run writes: log M_0 = +0.0 and every later
    # value is its predecessor plus the generator's increment, exactly as
    # _ensure sums them; a finite end keeps inf + inc == inf out
    if values[0] != 0.0 or np.signbit(values[0]) or not np.isfinite(values[-1]):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        expected = values[:-1] + seq.inc_array(0, len(values) - 1)
    if not np.array_equal(values[1:], expected):
        return False
    prefix = array("d")
    prefix.frombytes(memoryview(values).cast("B"))
    seq._prefix = prefix
    return True


def persist(seq: WeightSequence) -> bool:
    """Store the materialized prefix if it grew enough to be worth keeping."""
    d = cache_dir()
    if d is None or len(seq._prefix) < _MIN_PERSIST:
        return False
    os.makedirs(d, exist_ok=True)
    path = _path(seq, d)
    data = np.asarray(seq._prefix, dtype=float)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True
