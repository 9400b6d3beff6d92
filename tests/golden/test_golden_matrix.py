"""Golden-run regression suite.

Every scenario of the small matrix (3 configurations x 3 arrangements,
plus a DVFS run) is simulated and compared field-by-field against its
committed snapshot, on both engines: the event engine must reproduce
every field, the batched engine every timing field
(:data:`~tests.golden.harness.BATCHED_FIELDS`), bit for bit.  The frame
checksums come from the film, computed once per scenario.  A mismatch
means an engine change altered *simulated results*, not just wall-clock
speed — which is either a bug or a deliberate model change that must
regenerate the goldens via ``pytest tests/golden --update-goldens`` in
its own, clearly-labelled PR.
"""

import pytest

from .harness import (BATCHED_FIELDS, SCENARIOS, capture, capture_batched,
                      load_snapshot, write_snapshot)


def _diff(expected, actual, prefix=""):
    """Human-readable list of leaf-level differences."""
    out = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                out.append(f"{prefix}{key}: unexpected (={actual[key]!r})")
            elif key not in actual:
                out.append(f"{prefix}{key}: missing (was {expected[key]!r})")
            else:
                out.extend(_diff(expected[key], actual[key],
                                 f"{prefix}{key}."))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{prefix}len: {len(expected)} != {len(actual)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(_diff(e, a, f"{prefix}{i}."))
    elif expected != actual:
        out.append(f"{prefix[:-1]}: {expected!r} != {actual!r}")
    return out


def _expected(scenario):
    expected = load_snapshot(scenario)
    assert expected is not None, (
        f"no snapshot for {scenario!r}; run "
        "`pytest tests/golden --update-goldens` and commit the result"
    )
    return expected


def _assert_same(scenario, expected, golden):
    differences = _diff(expected, golden)
    assert not differences, (
        f"{scenario}: simulated results changed:\n  " +
        "\n  ".join(differences)
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden(scenario, update_goldens):
    """The event engine and the film reproduce the whole snapshot."""
    golden = capture(scenario)
    if update_goldens:
        write_snapshot(scenario, golden)
        pytest.skip(f"snapshot for {scenario} rewritten")
    _assert_same(scenario, _expected(scenario), golden)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_batched(scenario):
    """The batched engine serves the scenario and reproduces every
    timing field of the snapshot."""
    expected = _expected(scenario)
    _assert_same(scenario, {k: expected[k] for k in BATCHED_FIELDS},
                 capture_batched(scenario))


def test_every_scenario_produces_frames():
    """Sanity: the film has one distinct frame per simulated frame."""
    golden = capture("mcpc_renderer-ordered")
    assert golden["frames_displayed"] == golden["frames"]
    assert len(golden["frame_checksums"]) == golden["frames"]
    # All frames hash differently (the walkthrough moves the camera).
    assert len(set(golden["frame_checksums"])) == golden["frames"]
