"""Fixture: wallclock use the fingerprint root never imports -- not flagged."""

import time


def metadata_timestamp():
    # Fine: repro.store.fingerprint does not reach this module.
    return time.time()
