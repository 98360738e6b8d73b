"""MoniLog as a Structured Streaming dataflow (§II, Fig. 1).

One streaming query reproduces the three-step architecture over a
multi-source file stream (the container has no Kafka; a file source
exercises the same micro-batch dataflow, watermarking and stateful
aggregation paths — DESIGN.md substitution 4)::

    readStream.json → parse_partitions → withWatermark
        → groupBy(session_window, session_id).collect_list
        → foreachBatch(score + classify)

* **Parse**: every micro-batch is parsed inside the plan by distributed
  Drain's single partition-local pass against the template catalogue
  ``fit`` learned (:func:`~repro.parsing.distributed.parse_partitions`);
  no driver action runs. A catalogue hit has the same template in every
  micro-batch as in batch ``detect``. A miss keeps the final template of
  its partition-local Drain tree: batch ``detect`` folds the miss
  templates on the driver, which is a Spark action and cannot run in the
  middle of a streaming plan. Both detectors see a miss as an unseen
  event either way (the n-gram model flags any event outside its
  vocabulary, the quantitative model has no range for its template), so
  streaming predictions equal batch predictions on the same lines; only
  the template text of a miss in a report differs from batch.
* **Structure + detect + classify**: the parsed stream is watermarked on
  event time and aggregated with ``session_window`` (MoniLog's "windowed
  aggregation for sequence structuring"); each *closed* session window
  is scored by the sequential + quantitative models in ``foreachBatch``,
  and every anomalous session becomes an :class:`AnomalyReport` routed
  through the §V classifier.

The session-window state is split over ``spark.sql.shuffle.partitions``
state-store partitions, and every trigger loads and commits each of them,
with data or without; streaming does not coalesce them as adaptive
execution does for a batch shuffle. :meth:`StreamingMoniLog.start`
therefore starts the query with no more state partitions than the
context has task slots. The checkpoint records the count, so a restart
keeps it.
"""
from __future__ import annotations

import json
import os
import threading
import time

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.streaming import StreamingQuery

from repro.classify.pools import AnomalyReport, make_report
from repro.core.monilog import MoniLog
from repro.parsing.distributed import parse_partitions
from repro.parsing.drain import extract_variables
from repro.parsing.preprocess import preprocess

RAW_SCHEMA = T.StructType([
    T.StructField("line_id", T.LongType()),
    T.StructField("ts", T.TimestampType()),
    T.StructField("source", T.StringType()),
    T.StructField("level", T.StringType()),
    T.StructField("message", T.StringType()),
    T.StructField("session_id", T.StringType()),
])

FLUSH_SESSION = "__flush__"


def write_stream_files(pdf: pd.DataFrame, directory: str, *, n_files: int = 4,
                       flush_delay_s: float = 3600.0) -> list[str]:
    """Materialise a generated stream as JSON files in arrival order (one
    micro-batch per file with ``maxFilesPerTrigger=1``). A trailing flush
    record with a far-future timestamp advances the event-time watermark
    so every session window closes."""
    os.makedirs(directory, exist_ok=True)
    pdf = pdf.sort_values("arrival_ts").reset_index(drop=True)
    paths = []
    bounds = [int(round(i * len(pdf) / n_files)) for i in range(n_files + 1)]
    for i in range(n_files):
        chunk = pdf.iloc[bounds[i]:bounds[i + 1]]
        path = os.path.join(directory, f"batch-{i:04d}.json")
        with open(path, "w") as f:
            for r in chunk.itertuples():
                f.write(json.dumps({
                    "line_id": int(r.line_id),
                    "ts": pd.Timestamp(r.ts).isoformat(),
                    "source": r.source, "level": r.level,
                    "message": r.message, "session_id": r.session_id,
                }) + "\n")
        paths.append(path)
    flush_ts = pd.Timestamp(pdf["ts"].max()) + pd.Timedelta(seconds=flush_delay_s)
    flush_path = os.path.join(directory, f"batch-{n_files:04d}-flush.json")
    with open(flush_path, "w") as f:
        f.write(json.dumps({
            "line_id": -1, "ts": flush_ts.isoformat(), "source": "flush",
            "level": "INFO", "message": "flush", "session_id": FLUSH_SESSION,
        }) + "\n")
    paths.append(flush_path)
    # the file source takes files oldest first by modification time, read
    # at millisecond resolution; files written within one millisecond would
    # leave their order to the directory listing, and a flush read early
    # drops the rest of the stream as late
    now = time.time()
    for i, path in enumerate(paths):
        os.utime(path, (now - len(paths) + i,) * 2)
    return paths


class StreamingMoniLog:
    """Run a fitted :class:`MoniLog` as a Structured Streaming pipeline."""

    def __init__(self, monilog: MoniLog, workdir: str, *,
                 session_gap: str = "30 seconds",
                 watermark: str = "10 seconds") -> None:
        if not monilog._fitted:
            raise RuntimeError("fit the MoniLog instance before streaming")
        self.monilog = monilog
        self.workdir = workdir
        self.session_gap = session_gap
        self.watermark = watermark
        self.checkpoint = os.path.join(workdir, "checkpoint")
        self.results: list[dict] = []
        self.reports: list[AnomalyReport] = []
        self._lock = threading.Lock()

    # -- detect + classify, per micro-batch of closed session windows -----
    def _score_batch(self, batch_df: DataFrame, batch_id: int) -> None:
        pdf = batch_df.toPandas()
        if pdf.empty:
            return
        seqm = self.monilog.seq_model
        quantm = self.monilog.quant_model
        structured = self.monilog.config.structured
        for r in pdf.itertuples():
            if r.session_id == FLUSH_SESSION:
                continue
            lines = sorted(list(r.lines), key=lambda s: (s["ts"], s["line_id"]))
            events = [s["template"] for s in lines]
            seq_flag = seqm.is_anomalous(events)
            quant_flag = any(
                quantm.line_flag(s["template"], extract_variables(
                    s["template"], preprocess(s["message"], structured=structured)))
                for s in lines)
            pred = int(seq_flag or quant_flag)
            with self._lock:
                self.results.append({"session_id": r.session_id, "pred": pred,
                                     "seq_pred": int(seq_flag),
                                     "quant_pred": int(quant_flag)})
            if pred:
                report = make_report(r.session_id, lines[0]["source"], events,
                                     [s["level"] for s in lines],
                                     "quant" if (quant_flag and not seq_flag) else "seq")
                pool, level = self.monilog.classifier.ingest(
                    self.monilog.pools, route=True, report=report)
                with self._lock:
                    self.reports.append(report)

    # -- wiring -----------------------------------------------------------
    def start(self, input_dir: str, *, max_files_per_trigger: int = 1
              ) -> tuple[StreamingQuery, StreamingQuery]:
        """Start the pipeline's one query. Returns it twice, as the pair
        ``(parse, detect)`` the two-query pipeline returned."""
        spark = self.monilog.spark
        raw = (spark.readStream.schema(RAW_SCHEMA)
               .option("maxFilesPerTrigger", max_files_per_trigger)
               .json(input_dir))
        parsed = parse_partitions(raw, self.monilog.catalogue,
                                  structured=self.monilog.config.structured)
        sessions = (parsed
                    .withWatermark("ts", self.watermark)
                    .groupBy(F.session_window(F.col("ts"), self.session_gap),
                             F.col("session_id"))
                    .agg(F.collect_list(F.struct("ts", "line_id", "source", "level",
                                                 "message", "template")).alias("lines")))
        # a query takes its state partition count from the session conf
        # when it starts; one state partition per task slot at most
        key = "spark.sql.shuffle.partitions"
        session_parts = spark.conf.get(key)
        spark.conf.set(key, str(min(int(session_parts),
                                    spark.sparkContext.defaultParallelism)))
        try:
            query = (sessions.writeStream
                     .outputMode("append")
                     .foreachBatch(self._score_batch)
                     .option("checkpointLocation", self.checkpoint)
                     .start())
        finally:
            spark.conf.set(key, session_parts)
        return query, query

    def drain(self, *queries: StreamingQuery, rounds: int = 1) -> None:
        """Process everything currently available, ``rounds`` times over
        each distinct query."""
        for _ in range(rounds):
            for q in dict.fromkeys(queries):
                q.processAllAvailable()

    def predictions(self) -> pd.DataFrame:
        with self._lock:
            return pd.DataFrame(self.results)
