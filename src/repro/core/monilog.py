"""MoniLog core: the three-step system of §II (Fig. 1).

``MoniLog`` wires the components end-to-end over Spark DataFrames:

1. **Parse** — distributed Drain (with §IV structured-data extraction)
   turns the raw message stream into ``(cluster_id, template)``, matching
   each line against the template catalogue ``fit`` learned;
2. **Detect** — Spark sessionization structures sequences, the trained
   sequential (n-gram/DeepLog-style) + quantitative models score them
   (distributed via broadcast + ``mapInPandas``) and anomalous sessions
   become :class:`AnomalyReport`;
3. **Classify** — the §V classifier assigns each report a pool and a
   criticality, learning passively from admin actions.

Training (``fit``) consumes an *anomaly-free* stream — the deployment
regime the paper argues for in §III (labelled anomalies are rare and
injecting them is error-prone).

The streaming pipeline (:mod:`repro.streaming.pipeline`) runs the same
catalogue parse and the same trained models per micro-batch and closed
session window.
"""
from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.classify.classifier import AnomalyClassifier
from repro.classify.pools import AnomalyReport, PoolSystem, make_report
from repro.detect.ngram import NGramDetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.scoring import score_sequences
from repro.detect.sequences import session_sequences
from repro.parsing.distributed import fold_misses, parse_partitions
from repro.parsing.drain import Drain, extract_variables
from repro.parsing.preprocess import preprocess


@dataclasses.dataclass
class MoniLogConfig:
    depth: int = 4
    st: float = 0.5
    structured: bool = True      # §IV JSON/XML extraction
    h: int = 4                   # n-gram history
    g: int = 9                   # top-g candidates (DeepLog default)
    quant_k: float = 8.0


class MoniLog:
    """End-to-end MoniLog instance over one SparkSession."""

    def __init__(self, spark: SparkSession, config: MoniLogConfig | None = None) -> None:
        self.spark = spark
        self.config = config or MoniLogConfig()
        self.seq_model = NGramDetector(h=self.config.h, g=self.config.g)
        self.quant_model = ValueRangeDetector(k=self.config.quant_k)
        self.classifier = AnomalyClassifier()
        self.pools = PoolSystem()
        self.catalogue = Drain(depth=self.config.depth, st=self.config.st)
        self._fitted = False

    # -- step 1: parsing --------------------------------------------------
    @contextlib.contextmanager
    def parse(self, raw: DataFrame) -> Iterator[tuple[DataFrame, Drain]]:
        """Parse a raw stream (line_id, ts, source, message, session_id,
        ...) once against the template catalogue (empty before ``fit``).

        Yields ``(parsed, misses)``: ``parsed`` is the structured stream,
        every input column plus ``cluster_id``/``template``; ``misses`` is
        the Drain tree the templates of unmatched lines were folded into
        (with an empty catalogue, the catalogue ``fit`` keeps). The single
        partition-local pass is persisted while the block runs, so actions
        on ``parsed`` inside it do not parse again, and unpersisted when
        the block exits.
        """
        local = parse_partitions(raw, self.catalogue,
                                 structured=self.config.structured).persist()
        try:
            parsed, _, misses = fold_misses(local, self.catalogue)
            yield parsed, misses
        finally:
            local.unpersist()

    @staticmethod
    def _event_col(parsed: DataFrame) -> DataFrame:
        # the parser's template is the event identity for detection: a
        # known event keeps its catalogue template in every later parse
        return parsed.withColumnRenamed("template", "event_template")

    # -- step 2: detection ------------------------------------------------
    def fit(self, train_raw: DataFrame) -> "MoniLog":
        """Learn the template catalogue and train the sequential +
        quantitative models on a normal stream."""
        self.catalogue = Drain(depth=self.config.depth, st=self.config.st)
        with self.parse(train_raw) as (parsed, catalogue):
            parsed = self._event_col(parsed)
            seqs = session_sequences(parsed, event_col="event_template").toPandas()
            rows = parsed.select("event_template", "message").toPandas()
        self.catalogue = catalogue
        self.seq_model.fit([list(s) for s in seqs["events"]])
        self.quant_model.fit(
            (r.event_template,
             extract_variables(r.event_template,
                               preprocess(r.message, structured=self.config.structured)))
            for r in rows.itertuples())
        self._fitted = True
        return self

    def detect(self, raw: DataFrame) -> tuple[pd.DataFrame, list[AnomalyReport]]:
        """Score a stream; returns (per-session predictions, reports)."""
        if not self._fitted:
            raise RuntimeError("call fit() before detect()")
        with self.parse(raw) as (parsed, _):
            parsed = self._event_col(parsed)
            seq_df = session_sequences(parsed, event_col="event_template")
            seq_pred = score_sequences(seq_df, self.seq_model).toPandas()
            lines = parsed.select("session_id", "source", "level",
                                  "event_template", "message").toPandas()

        quant_flags: dict[str, bool] = {}
        for r in lines.itertuples():
            if quant_flags.get(r.session_id):
                continue
            values = extract_variables(
                r.event_template, preprocess(r.message, structured=self.config.structured))
            if self.quant_model.line_flag(r.event_template, values):
                quant_flags[r.session_id] = True
        preds = seq_pred.rename(columns={"pred": "seq_pred"}).copy()
        preds["quant_pred"] = [int(quant_flags.get(s, False)) for s in preds["session_id"]]
        preds["pred"] = ((preds["seq_pred"] == 1) | (preds["quant_pred"] == 1)).astype(int)

        # one groupby pass: each session's line positions
        at = lines.groupby("session_id", sort=False).indices
        source, events, levels = (lines[c].to_numpy()
                                  for c in ("source", "event_template", "level"))
        reports: list[AnomalyReport] = []
        for r in preds[preds["pred"] == 1].itertuples():
            i = at[r.session_id]
            detector = "quant" if (r.quant_pred and not r.seq_pred) else "seq"
            reports.append(make_report(r.session_id, source[i[0]], events[i].tolist(),
                                       levels[i].tolist(), detector))
        return preds, reports

    # -- step 3: classification -------------------------------------------
    def classify(self, reports: list[AnomalyReport]) -> list[tuple[AnomalyReport, str, str]]:
        """Route reports through the pool system by prediction."""
        out = []
        for rep in reports:
            pool, level = self.classifier.ingest(self.pools, route=True, report=rep)
            out.append((rep, pool, level))
        return out

    def run(self, raw: DataFrame) -> list[tuple[AnomalyReport, str, str]]:
        """Full pipeline on a batch: detect then classify."""
        _, reports = self.detect(raw)
        return self.classify(reports)
