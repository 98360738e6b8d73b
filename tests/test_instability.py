"""Unit tests for the instability injector (loggen.instability)."""
import pytest

from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate


@pytest.fixture(scope="module")
def stream():
    return generate(StreamSpec(n_sessions=150, n_sources=4, anomaly_rate=0.1, seed=11))


def test_zero_ratio_is_identity(stream):
    out, counts = instability.inject(stream, 0.0)
    assert len(out) == len(stream)
    assert all(v == 0 for v in counts.values())
    assert out["message"].equals(stream["message"])


def test_ratio_bounds_validated(stream):
    with pytest.raises(ValueError):
        instability.inject(stream, -0.1)
    with pytest.raises(ValueError):
        instability.inject(stream, 1.1)
    with pytest.raises(ValueError):
        instability.inject(stream, 0.1, kinds=("bogus",))


def test_alteration_count_close_to_ratio(stream):
    _, counts = instability.inject(stream, 0.2)
    total = sum(counts.values())
    assert total == pytest.approx(0.2 * len(stream), rel=0.05)


def test_session_labels_unchanged(stream):
    out, _ = instability.inject(stream, 0.2)
    before = stream.groupby("session_id")["is_anomaly"].any()
    after = out.groupby("session_id")["is_anomaly"].any()
    assert before.sort_index().equals(after.sort_index())


def test_only_normal_lines_altered(stream):
    out, _ = instability.inject(stream, 0.2, kinds=("twist", "parse_error"))
    anom_before = stream[stream["is_anomaly"]].sort_values("line_id")
    anom_after = out[out["is_anomaly"]].sort_values("line_id")
    assert anom_before["message"].tolist() == anom_after["message"].tolist()


def test_twist_changes_event_id_and_text(stream):
    out, counts = instability.inject(stream, 0.15, kinds=("twist",))
    assert counts["twist"] > 0
    twisted = out[out["event_id"].str.endswith("~")]
    assert len(twisted) == counts["twist"]
    originals = stream.set_index("line_id")["message"]
    for r in twisted.itertuples():
        assert r.message != originals[r.line_id]


def test_parse_error_creates_new_ids(stream):
    out, counts = instability.inject(stream, 0.15, kinds=("parse_error",))
    bogus = out[out["event_id"].str.contains("#pe")]
    assert len(bogus) == counts["parse_error"] > 0


def test_dup_adds_rows(stream):
    out, counts = instability.inject(stream, 0.1, kinds=("dup",))
    assert len(out) == len(stream) + counts["dup"]


def test_dup_rows_get_fresh_line_ids(stream):
    out, counts = instability.inject(stream, 0.1, kinds=("dup",))
    assert counts["dup"] > 0
    assert out["line_id"].is_unique
    # the originals keep their ids
    assert set(stream["line_id"]) <= set(out["line_id"])


def test_shuffle_preserves_multiset_of_events(stream):
    out, _ = instability.inject(stream, 0.15, kinds=("shuffle",))
    before = sorted(stream["event_id"])
    after = sorted(out["event_id"])
    assert before == after


def test_deterministic_in_seed(stream):
    a, ca = instability.inject(stream, 0.1, seed=3)
    b, cb = instability.inject(stream, 0.1, seed=3)
    assert ca == cb
    assert a["message"].tolist() == b["message"].tolist()


def test_sequence_parse_noise_rate_zero():
    seqs = {"a": ["x", "y"], "b": ["z"]}
    assert instability.sequence_parse_noise(seqs, 0.0) == seqs


def test_sequence_parse_noise_replaces_ids():
    seqs = {"a": ["x"] * 1000}
    out = instability.sequence_parse_noise(seqs, 0.3, seed=5)
    noisy = [e for e in out["a"] if "#pe" in e]
    assert len(noisy) == pytest.approx(300, rel=0.15)
    assert all(e.startswith("x#pe") for e in noisy)


def test_sequence_parse_noise_preserves_length():
    seqs = {"a": ["x", "y", "z"] * 10}
    out = instability.sequence_parse_noise(seqs, 0.5)
    assert len(out["a"]) == 30
