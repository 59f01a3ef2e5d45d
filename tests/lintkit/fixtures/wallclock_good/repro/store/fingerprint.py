"""Fixture: a fingerprint root that imports nothing time-dependent."""

import hashlib


def digest(lines):
    text = "\n".join(lines) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
