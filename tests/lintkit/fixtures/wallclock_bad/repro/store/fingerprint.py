"""Fixture: a fingerprint root importing a helper with wallclock calls."""

import hashlib

from repro.store import stamps


def digest(lines):
    text = "\n".join(lines) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), stamps.stamp
