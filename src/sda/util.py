"""Small shared helpers: seeding, sigmoid, tie-aware argmax, atomic file writes."""

from __future__ import annotations

import os
import random
import tempfile

import numpy as np


def derive_seed(master: int, label: str) -> int:
    """Deterministic per-stage seed derived from the master seed and a label.

    Keeps every stochastic stage independently seeded while a single
    master seed governs the whole run. The seed is the first 32 bits of
    ``random.Random`` seeded with the string ``"{master}:{label}"``, which
    the interpreter hashes with its built-in SHA-512 (never ``hash()``), so
    it is the same in every run and needs neither ``hashlib`` nor OpenSSL.
    """
    return random.Random(f"{master}:{label}").getrandbits(32)


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def first_max(values: np.ndarray, scale: float) -> int:
    """The lowest index whose value is within ``1e-12 * scale`` of the
    maximum: an argmax whose ties do not fall to rounding."""
    return int(np.argmax(values >= values.max() - 1e-12 * scale))


def atomic_write_text(path: str, text: str) -> None:
    """Write a file via temp-then-rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_float(x: float) -> str:
    """Shortest round-trip float formatting, stable across runs."""
    return repr(float(x))
