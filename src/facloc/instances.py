"""Versioned on-disk instance files.

An instance file is a single JSON document bundling the agent reports, the
metric, the facility count with optional capacities, and (optionally) the
mechanism to run on it.  The schema is flat and strict: unknown keys are
rejected so a typo cannot silently drop a field, and the "version" field
must match SCHEMA_VERSION exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .mechanisms import (
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    descriptor_from_dict,
    descriptor_to_dict,
    profile_from_dict,
    spec_from_dict,
)

SCHEMA_VERSION = 1

_KNOWN_KEYS = frozenset(
    {"version", "agents", "metric", "facilities", "capacities", "mechanism"}
)


@dataclass(frozen=True)
class Instance:
    """A parsed instance file: who is where, what to place, and (optionally)
    which mechanism to place it with."""

    profile: AgentProfile
    spec: FacilitySpec
    mechanism: MechanismDescriptor | None = None


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    unknown = sorted(set(doc) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(f"unknown instance fields: {', '.join(unknown)}")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"instance version must be {SCHEMA_VERSION}, got {version!r}"
        )
    profile = profile_from_dict(doc)
    spec = spec_from_dict(doc)
    spec.require_feasible_for(profile.n)
    mechanism = None
    if doc.get("mechanism") is not None:
        mechanism = descriptor_from_dict(doc["mechanism"])
        implied = mechanism.implied_facilities
        if implied is not None and implied != spec.m:
            raise ValueError(
                f"mechanism places {implied} facilities but the instance asks for {spec.m}"
            )
    return Instance(profile=profile, spec=spec, mechanism=mechanism)


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "metric": instance.profile.metric.value,
        "agents": [list(a) for a in instance.profile.agents],
        "facilities": instance.spec.m,
    }
    if instance.spec.capacities is not None:
        doc["capacities"] = list(instance.spec.capacities)
    if instance.mechanism is not None:
        doc["mechanism"] = descriptor_to_dict(instance.mechanism)
    return doc


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read instance file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"instance file {path} nests too deeply to parse") from None
    return instance_from_dict(doc)


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_dict(instance), indent=2, sort_keys=True) + "\n"
    )
