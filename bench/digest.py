"""Results digest: a sha256 over trial results, reports and CSV bytes.

Every dataclass field takes part, nested records (probes) included, and
floats are written with repr, so two results hash alike only when they
are bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def canon(x) -> str:
    """Canonical text of a result value; dict items are sorted by key."""
    if dataclasses.is_dataclass(x):
        inner = ",".join(f"{f.name}={canon(getattr(x, f.name))}"
                         for f in dataclasses.fields(x))
        return f"{type(x).__name__}({inner})"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(x.items())) + "}"
    return repr(x)


def trial_digest(*results) -> str:
    return hashlib.sha256("\n".join(canon(r) for r in results).encode()).hexdigest()


def batch_digest(results, reports, csv_bytes: bytes | None) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(canon(r).encode() + b"\n")
    for rep in reports:
        h.update(canon(rep).encode() + b"\n")
    if csv_bytes is not None:
        h.update(csv_bytes)
    return h.hexdigest()


def reference_entry(results, reports, csv_bytes: bytes | None) -> dict:
    """Digest of each paired trial (results alternate baseline, scored)
    and of the whole batch."""
    pairs = [trial_digest(results[i], results[i + 1]) for i in range(0, len(results), 2)]
    return {"pairs": pairs, "batch": batch_digest(results, reports, csv_bytes)}


def conserved(r) -> bool:
    """Packet conservation: every packet sent is delivered, dropped or in flight."""
    return r.total_sent == r.total_delivered + r.total_dropped + r.total_in_flight


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def write_reference(doc: dict) -> None:
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
