"""MoniLog as a Structured Streaming dataflow (§II, Fig. 1).

Two chained streaming queries reproduce the three-step architecture over
a multi-source file stream (the container has no Kafka; a file source
exercises the same micro-batch dataflow, watermarking and stateful
aggregation paths — DESIGN.md substitution 4):

* **Stage A — parse**: a JSON file stream of raw log records is parsed
  micro-batch by micro-batch inside ``foreachBatch`` through the fitted
  model (``MoniLog.parse``: one partition-local pass against the template
  catalogue, plus a driver fold of the unmatched lines); the structured
  stream (template column added) lands in a parquet dir.
* **Stage B — structure + detect + classify**: a parquet file stream of
  structured records is watermarked on event time and aggregated with
  ``session_window`` (MoniLog's "windowed aggregation for sequence
  structuring"); each *closed* session window is scored by the
  broadcast sequential + quantitative models in ``foreachBatch``, and
  every anomalous session becomes an :class:`AnomalyReport` routed
  through the §V classifier.

Event identity is the *template string*. Every micro-batch is parsed
against the catalogue ``fit`` learned and never changes, so a known event
has the same template in every micro-batch as in batch ``detect``, and
streaming predictions equal batch predictions on the same lines. Only the
templates of lines the catalogue does not match are folded per
micro-batch; they are unseen at scoring time, exactly the §III
instability case the detectors are measured on.
"""
from __future__ import annotations

import json
import os
import threading
import time

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.classify.pools import AnomalyReport, make_report
from repro.core.monilog import MoniLog
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

STRUCTURED_SCHEMA = T.StructType(RAW_SCHEMA.fields + [
    T.StructField("template", T.StringType()),
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
        self.structured_dir = os.path.join(workdir, "structured")
        self.checkpoints = os.path.join(workdir, "checkpoints")
        os.makedirs(self.structured_dir, exist_ok=True)
        self.results: list[dict] = []
        self.reports: list[AnomalyReport] = []
        self.batches_parsed = 0
        self._lock = threading.Lock()

    # -- stage A ----------------------------------------------------------
    def _parse_batch(self, batch_df: DataFrame, batch_id: int) -> None:
        if batch_df.isEmpty():
            return
        flush = (batch_df.filter(F.col("session_id") == FLUSH_SESSION)
                 .withColumn("template", F.lit("flush")))
        payload = batch_df.filter(F.col("session_id") != FLUSH_SESSION)
        with self.monilog.parse(payload) as (parsed, _):
            out = parsed.select(*[f.name for f in RAW_SCHEMA.fields], "template")
            out.unionByName(flush).write.mode("append").parquet(self.structured_dir)
        with self._lock:
            self.batches_parsed += 1

    # -- stage B ----------------------------------------------------------
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
    def start(self, input_dir: str, *, max_files_per_trigger: int = 1):
        """Start both queries; returns (parse_query, detect_query)."""
        spark = self.monilog.spark
        raw = (spark.readStream.schema(RAW_SCHEMA)
               .option("maxFilesPerTrigger", max_files_per_trigger)
               .json(input_dir))
        q_parse = (raw.writeStream
                   .foreachBatch(self._parse_batch)
                   .option("checkpointLocation", os.path.join(self.checkpoints, "parse"))
                   .start())

        structured = (spark.readStream.schema(STRUCTURED_SCHEMA)
                      .option("maxFilesPerTrigger", 64)
                      .parquet(self.structured_dir))
        sessions = (structured
                    .withWatermark("ts", self.watermark)
                    .groupBy(F.session_window(F.col("ts"), self.session_gap),
                             F.col("session_id"))
                    .agg(F.collect_list(F.struct("ts", "line_id", "source", "level",
                                                 "message", "template")).alias("lines")))
        q_detect = (sessions.writeStream
                    .outputMode("append")
                    .foreachBatch(self._score_batch)
                    .option("checkpointLocation", os.path.join(self.checkpoints, "detect"))
                    .start())
        return q_parse, q_detect

    def drain(self, q_parse, q_detect, *, rounds: int = 6) -> None:
        """Process everything currently available through both stages."""
        for _ in range(rounds):
            q_parse.processAllAvailable()
            q_detect.processAllAvailable()

    def predictions(self) -> pd.DataFrame:
        with self._lock:
            return pd.DataFrame(self.results)
