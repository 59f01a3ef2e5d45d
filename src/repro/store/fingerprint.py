"""Content-addressed fingerprints of runs: what exactly did this job compute?

A stored run is keyed by a SHA-256 over everything that determines its
result: the *content* of the instance (the canonical serialization hash from
:func:`repro.workloads.format.instance_fingerprint`, not the spec string --
``ti:200`` fingerprints differently if the generator changes), the flow,
engine and pipeline, the seed, and a digest of the code-relevant
:class:`~repro.core.config.FlowConfig` knobs.  Equal fingerprints therefore
mean "same computation"; a config or generator change shows up as a
fingerprint change even when the spec strings match, which is exactly the
signal ``repro compare`` surfaces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Optional, Sequence

import numpy as np

__all__ = ["canonical_json", "config_digest", "job_fingerprint"]


def _jsonable(value: Any) -> Any:
    """Best-effort canonical JSON value; falls back to ``repr`` for opaques."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Non-compare fields are derived state (caches), not identity: two
        # configs that compare equal must digest equally.
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, compact separators, no NaN drift."""
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


def config_digest(config: Any) -> str:
    """SHA-256 over a :class:`FlowConfig`'s canonical JSON form."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def job_fingerprint(
    *,
    instance_fingerprint: str,
    flow: str,
    engine: str,
    pipeline: Optional[Sequence[str]],
    seed: Optional[int],
    config_digest: str,
) -> str:
    """The run store's content address for one synthesis job."""
    payload = {
        "instance_fingerprint": instance_fingerprint,
        "flow": flow,
        "engine": engine,
        "pipeline": list(pipeline) if pipeline is not None else None,
        "seed": seed,
        "config_digest": config_digest,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
