"""Fixture: reachable from repro.store.fingerprint; the wallclock calls are bad."""

import time
import uuid
from datetime import datetime

stamp = 0.0


def impure_payload():
    return {
        "at": time.time(),
        "when": datetime.now(),
        "token": uuid.uuid4(),
    }
