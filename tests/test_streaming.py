"""Integration tests for the Structured Streaming pipeline (streaming.pipeline)."""
import json
import os
import shutil

import pytest

from repro.core.monilog import MoniLog
from repro.evaluation.labels import prf
from repro.loggen.generator import StreamSpec, generate
from repro.streaming.pipeline import (FLUSH_SESSION, StreamingMoniLog,
                                      write_stream_files)


@pytest.fixture(scope="module")
def fitted(spark):
    train = generate(StreamSpec(n_sessions=300, n_sources=2, anomaly_rate=0.0, seed=80))
    return MoniLog(spark).fit(spark.createDataFrame(train))


@pytest.fixture(scope="module")
def run(spark, fitted, tmp_path_factory):
    work = str(tmp_path_factory.mktemp("monilog-stream"))
    test = generate(StreamSpec(n_sessions=80, n_sources=2, anomaly_rate=0.1,
                               session_spread_s=200.0, seed=81))
    inp = os.path.join(work, "input")
    write_stream_files(test, inp, n_files=3)
    sm = StreamingMoniLog(fitted, work, session_gap="30 seconds", watermark="5 seconds")
    q, _ = sm.start(inp)
    try:
        sm.drain(q)
    finally:
        q.stop()
    return test, sm, q


def test_write_stream_files_layout(tmp_path):
    pdf = generate(StreamSpec(n_sessions=10, seed=5))
    paths = write_stream_files(pdf, str(tmp_path / "in"), n_files=3)
    assert len(paths) == 4  # 3 batches + flush
    total = 0
    last = json.loads(open(paths[-1]).read())
    assert last["session_id"] == FLUSH_SESSION
    for p in paths[:-1]:
        with open(p) as f:
            total += sum(1 for _ in f)
    assert total == len(pdf)


def test_requires_fitted_model(spark, tmp_path):
    with pytest.raises(RuntimeError):
        StreamingMoniLog(MoniLog(spark), str(tmp_path))


def test_every_session_scored_exactly_once(run):
    test, sm, _ = run
    preds = sm.predictions()
    assert len(preds) == test["session_id"].nunique()
    assert preds["session_id"].is_unique
    assert FLUSH_SESSION not in set(preds["session_id"])


def test_streaming_detection_quality(run):
    test, sm, _ = run
    preds = sm.predictions()
    truth = test.groupby("session_id")["is_anomaly"].any().astype(int)
    merged = preds.set_index("session_id").join(truth.rename("y"))
    r = prf(merged["y"].tolist(), merged["pred"].tolist())
    assert r.recall >= 0.75
    assert r.f1 >= 0.7


def test_reports_and_classification(run):
    _, sm, _ = run
    assert len(sm.reports) == int(sm.predictions()["pred"].sum())
    stats = sm.monilog.pools.stats()
    assert sum(stats.values()) == len(sm.reports)


def test_multiple_microbatches_processed(run):
    *_, q = run
    assert sum(p.numInputRows > 0 for p in q.recentProgress) >= 3


def test_state_partitions_capped_at_task_slots(spark, run):
    *_, q = run
    slots = spark.sparkContext.defaultParallelism
    ops = [op for p in q.recentProgress for op in p.stateOperators]
    assert ops and all(op.numShufflePartitions <= slots for op in ops)
    # start() lowers the setting for its own query only
    assert spark.conf.get("spark.sql.shuffle.partitions") == os.environ.get(
        "SPARK_SHUFFLE_PARTITIONS", "64")


@pytest.fixture(scope="module")
def late(fitted, tmp_path_factory):
    """Stream 20 sessions and the flush record, then a file of records
    older than the watermark the flush advanced."""
    work = str(tmp_path_factory.mktemp("monilog-late"))
    test = generate(StreamSpec(n_sessions=20, n_sources=2, anomaly_rate=0.0, seed=82))
    inp = os.path.join(work, "input")
    write_stream_files(test, inp, n_files=1)
    late_rows = test.head(10).assign(session_id=lambda d: "late-" + d["session_id"])
    sm = StreamingMoniLog(fitted, work, session_gap="30 seconds", watermark="5 seconds")
    q, _ = sm.start(inp)
    try:
        sm.drain(q)
        scored = sm.predictions()
        # copied, so the file is newer than the flush and read after it
        path = write_stream_files(late_rows, os.path.join(work, "late"), n_files=1)[0]
        shutil.copy(path, os.path.join(inp, "late.json"))
        sm.drain(q)
    finally:
        q.stop()
    return late_rows, scored, sm, q


def test_late_rows_counted_not_scored(late):
    late_rows, scored, sm, q = late
    dropped = sum(op.numRowsDroppedByWatermark
                  for p in q.recentProgress for op in p.stateOperators)
    assert dropped > 0
    preds = sm.predictions()
    assert not set(late_rows["session_id"]) & set(preds["session_id"])
    assert preds["session_id"].is_unique
    assert len(scored) == 20
    assert preds.equals(scored)


@pytest.fixture(scope="module")
def batch_and_stream(spark, tmp_path_factory):
    """Fit a model, detect 40 sessions in batch, then stream the same
    lines in 2 files; the persistent RDDs left afterwards are returned."""
    spark.catalog.clearCache()  # caches other test modules left behind
    train = generate(StreamSpec(n_sessions=200, n_sources=8, anomaly_rate=0.0, seed=4))
    ml = MoniLog(spark).fit(spark.createDataFrame(train))
    test = generate(StreamSpec(n_sessions=40, n_sources=8, anomaly_rate=0.05,
                               session_spread_s=400.0, seed=5))
    batch, _ = ml.detect(spark.createDataFrame(test))
    work = str(tmp_path_factory.mktemp("monilog-batch-vs-stream"))
    inp = os.path.join(work, "input")
    write_stream_files(test, inp, n_files=2)
    sm = StreamingMoniLog(ml, work, session_gap="30 seconds", watermark="10 seconds")
    q, _ = sm.start(inp)
    try:
        sm.drain(q)
    finally:
        q.stop()
    return batch, sm.predictions(), dict(spark.sparkContext._jsc.getPersistentRDDs())


def test_streaming_predictions_equal_batch_detect(batch_and_stream):
    batch, streamed, _ = batch_and_stream
    assert len(streamed) == len(batch) == 40
    assert (streamed.set_index("session_id")["pred"].to_dict()
            == batch.set_index("session_id")["pred"].to_dict())


def test_no_parse_cache_left_behind(batch_and_stream):
    *_, persistent = batch_and_stream
    assert persistent == {}
