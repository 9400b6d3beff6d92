"""Canonical hashing: pinned digests and canonicalisation invariants.

The pinned digests guard the cache-key contract: any change to spec
canonicalisation, the schema constant or the digest recipe splits every
existing cache, so it must show up here as a loud failure, not as a
silent full-miss sweep.
"""

import json

import pytest

from repro.exec import RunSpec, canonical_json, spec_digest
from repro.exec.hashing import CACHE_SCHEMA, engine_fingerprint

#: a fixed engine fingerprint so the pins don't move with source edits
FIXED_FP = "0" * 64

PINNED = {
    RunSpec(): "4882a9a3c38bcc378fbb6192cd1420647265629e8b252a633"
               "ffc91337ab21611",
    RunSpec(platform="hpc", config="single_renderer", pipelines=3):
        "3be14328a712cd42e5ec751199227e93baae94ad3059dc29f73fac637b92fd89",
    RunSpec(config="mcpc_renderer", pipelines=5, arrangement="flipped",
            frames=100, seed=7,
            frequency_plan={"blur": 400.0, "render": 800.0}):
        "bc70e9bdabce2d4f16ac339fd888b49fd3db4213bb959af3639dc6cf0a2a4f65",
    # the engine is part of the identity: batched results never alias
    # event results in the cache
    RunSpec(engine="batched"):
        "e2dc0f884c7a20b89e34b08e7125c54c2cf325c159a2f4899125adde46a779b6",
}


def test_pinned_digests():
    assert CACHE_SCHEMA == 1
    for spec, digest in PINNED.items():
        assert spec.digest(FIXED_FP) == digest, spec


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a  # compact separators


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"v": float("nan")})


def test_digest_changes_with_fingerprint_and_spec():
    spec = RunSpec().as_dict()
    assert spec_digest(spec, "a" * 64) != spec_digest(spec, "b" * 64)
    other = RunSpec(pipelines=2).as_dict()
    assert spec_digest(spec, FIXED_FP) != spec_digest(other, FIXED_FP)


def test_equivalent_plan_forms_hash_identically():
    as_dict = RunSpec(frequency_plan={"render": 800, "blur": 400})
    as_items = RunSpec(frequency_plan=(("blur", 400.0), ("render", 800.0)))
    assert as_dict == as_items
    assert as_dict.digest(FIXED_FP) == as_items.digest(FIXED_FP)


def test_spec_dict_round_trips_through_json():
    spec = RunSpec(config="n_renderers", pipelines=4, arrangement="flipped",
                   frequency_plan={"blur": 533.0},
                   placement=("ordered", (0,), ((1, 2, 3),), 4))
    doc = json.loads(json.dumps(spec.as_dict()))
    clone = RunSpec.from_dict(doc)
    assert clone == spec
    assert clone.digest(FIXED_FP) == spec.digest(FIXED_FP)


def test_engine_fingerprint_is_stable_sha256():
    fp = engine_fingerprint()
    assert fp == engine_fingerprint()
    assert len(fp) == 64
    int(fp, 16)  # hex
