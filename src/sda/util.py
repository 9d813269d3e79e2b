"""Small shared helpers: seeding, sigmoid, tie-aware argmax, atomic file writes."""

from __future__ import annotations

import os
import random
import tempfile

import numpy as np

from .errors import ConfigError


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
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, in one
    pass: min(z, -z) is exactly -z or z, so its exp is the exp either branch
    takes and never overflows. Unlike -|z|, it keeps a nan's sign bit."""
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def first_max(values: np.ndarray, scale: float) -> int:
    """The lowest index whose value is within ``1e-12 * scale`` of the
    maximum: an argmax whose ties do not fall to rounding."""
    return int(np.argmax(values >= values.max() - 1e-12 * scale))


def atomic_write_text(path: str, text: str) -> None:
    """Write a file via temp-then-rename so readers never see partial output;
    a path that cannot be written is a ConfigError that names it. The file
    gets the mode a plain ``open(path, "w")`` would, 0666 less the umask,
    not the temp file's owner-only 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    umask = os.umask(0)  # reading the umask sets it: put it straight back
    os.umask(umask)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def fmt_float(x: float) -> str:
    """Shortest round-trip float formatting, stable across runs."""
    return repr(float(x))
