"""The traced run: per-layer timings and counts, spans, and UDF profiles.

The spans are recorded here, around calls into each layer's public
functions; nothing inside ``repro`` is instrumented. ``traced_detect``
calls the functions in the order ``MoniLog.detect`` calls them and
materialises each result before the next step, so every span holds one
layer's own work. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import contextlib
import glob
import os
import pstats
import statistics
import time

from repro.classify.pools import PoolSystem, make_report
from repro.detect.ngram import NGramDetector
from repro.detect.quantitative import ValueRangeDetector
from repro.detect.scoring import score_sequences
from repro.detect.sequences import session_sequences
from repro.parsing.distributed import parse_distributed
from repro.parsing.drain import Drain, extract_variables
from repro.parsing.preprocess import preprocess

# durationMs parts of a trigger: addBatch in ms; the small parts, a few
# whole milliseconds each, as their share of the trigger time
SMALL_DURATION_KEYS = ("queryPlanning", "walCommit", "commitOffsets", "latestOffset",
                       "getBatch")
TOP_FRAMES = 12


class Tracer:
    """Spans (id, name, parent, start, end) in seconds since the tracer
    began. With a ``JobCounter``, a span opened with ``spark=True`` runs
    under its own job group and records its Spark jobs and tasks."""

    def __init__(self, jobs=None) -> None:
        self.spans: list[dict] = []
        self.jobs = jobs
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, *, spark: bool = False):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        group = self.jobs.group(name) if spark and self.jobs else None
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            if group:
                rec["spark"] = self.jobs.counts(group)

    @staticmethod
    def seconds(rec: dict) -> float:
        return rec["end"] - rec["start"]


def traced_detect(model, raw, tracer: Tracer) -> dict:
    """Run detect + classify layer by layer; returns the layer metrics."""
    cfg = model.config
    m: dict[str, float] = {}
    with tracer.span("detect") as root:
        with tracer.span("parsing.distributed", spark=True) as sp:
            parsed, mapping = parse_distributed(raw, depth=cfg.depth, st=cfg.st,
                                                structured=cfg.structured)
            parsed = parsed.withColumnRenamed("template", "event_template").persist()
            n_lines = parsed.count()
        m["parse_distributed.s"] = Tracer.seconds(sp)
        m["parse_distributed.lines_per_s"] = n_lines / m["parse_distributed.s"]
        m["parse_distributed.local_templates"] = len(mapping)
        m["parse_distributed.global_templates"] = len({gid for gid, _ in mapping.values()})
        m["parse_distributed.spark_tasks"] = sp["spark"]["tasks"]

        with tracer.span("detect.sequences", spark=True) as sp:
            seq_df = session_sequences(parsed, event_col="event_template").persist()
            n_sessions = seq_df.count()
        m["session_sequences.s"] = Tracer.seconds(sp)
        m["session_sequences.sessions"] = n_sessions

        with tracer.span("detect.scoring", spark=True) as sp:
            seq_pred = score_sequences(seq_df, model.seq_model).toPandas()
        m["score_sequences.s"] = Tracer.seconds(sp)
        m["score_sequences.sessions_per_s"] = len(seq_pred) / m["score_sequences.s"]

        with tracer.span("detect.collect_lines", spark=True) as sp:
            lines = parsed.select("session_id", "source", "level",
                                  "event_template", "message").toPandas()
        m["collect_lines.s"] = Tracer.seconds(sp)

        with tracer.span("detect.quantitative") as sp:
            quant_flags: dict[str, bool] = {}
            for r in lines.itertuples():
                if quant_flags.get(r.session_id):
                    continue
                values = extract_variables(
                    r.event_template, preprocess(r.message, structured=cfg.structured))
                if model.quant_model.line_flag(r.event_template, values):
                    quant_flags[r.session_id] = True
            preds = seq_pred.rename(columns={"pred": "seq_pred"})
            preds["quant_pred"] = [int(quant_flags.get(s, False)) for s in preds["session_id"]]
            preds["pred"] = ((preds["seq_pred"] == 1) | (preds["quant_pred"] == 1)).astype(int)
        m["quant.lines_per_s"] = len(lines) / Tracer.seconds(sp)

        with tracer.span("classify.make_report") as sp:
            by_session = lines.groupby("session_id")
            reports = []
            for r in preds[preds["pred"] == 1].itertuples():
                sess = by_session.get_group(r.session_id)
                detector = "quant" if (r.quant_pred and not r.seq_pred) else "seq"
                reports.append(make_report(
                    r.session_id, sess["source"].iloc[0], sess["event_template"].tolist(),
                    sess["level"].tolist(), detector))
        m["make_report.s"] = Tracer.seconds(sp)

        with tracer.span("classify") as sp:
            model.pools = PoolSystem()
            model.classify(reports)
        m["classify.reports"] = len(reports)
        m["classify.reports_per_s"] = len(reports) / Tracer.seconds(sp)
        m["classify.pool.default"] = model.pools.stats().get("default", 0)
        seq_df.unpersist()
        parsed.unpersist()
    m["detect.traced_s"] = Tracer.seconds(root)

    # in-process layers on the same input, without Spark
    messages = lines["message"].tolist()
    with tracer.span("parsing.preprocess") as sp:
        for msg in messages:
            preprocess(msg, structured=cfg.structured)
    m["preprocess.lines_per_s"] = len(messages) / Tracer.seconds(sp)
    with tracer.span("parsing.drain") as sp:
        drain = Drain(depth=cfg.depth, st=cfg.st,
                      preprocess=lambda msg: preprocess(msg, structured=cfg.structured))
        drain.parse_many(messages)
    m["drain.lines_per_s"] = len(messages) / Tracer.seconds(sp)
    m["drain.templates"] = drain.n_templates()
    sequences = [list(s) for _, s in lines.groupby("session_id", sort=False)["event_template"]]
    with tracer.span("detect.ngram") as sp:
        windows = sum(len(model.seq_model.window_flags(s)) for s in sequences)
    m["ngram.windows_per_s"] = windows / Tracer.seconds(sp)
    return m


def traced_fit(model_config, train_raw, tracer: Tracer) -> dict:
    """Run ``MoniLog.fit``'s three phases as separate spans."""
    cfg = model_config
    m = {}
    with tracer.span("fit"):
        with tracer.span("fit.parse", spark=True) as sp:
            parsed, _ = parse_distributed(train_raw, depth=cfg.depth, st=cfg.st,
                                          structured=cfg.structured)
            parsed = parsed.withColumnRenamed("template", "event_template").persist()
            parsed.count()
        m["fit.parse_s"] = Tracer.seconds(sp)
        with tracer.span("fit.sequences", spark=True) as sp:
            seqs = session_sequences(parsed, event_col="event_template").toPandas()
            NGramDetector(h=cfg.h, g=cfg.g).fit([list(s) for s in seqs["events"]])
        m["fit.seq_s"] = Tracer.seconds(sp)
        with tracer.span("fit.quantitative", spark=True) as sp:
            rows = parsed.select("event_template", "message").toPandas()
            ValueRangeDetector(k=cfg.quant_k).fit(
                (r.event_template,
                 extract_variables(r.event_template,
                                   preprocess(r.message, structured=cfg.structured)))
                for r in rows.itertuples())
        m["fit.quant_s"] = Tracer.seconds(sp)
        parsed.unpersist()
    return m


def p50(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def trigger_ms(passes: list[dict], queries=("parse", "detect")) -> list[float]:
    """``triggerExecution`` of the non-empty micro-batches of ``queries``."""
    return [p["durationMs"]["triggerExecution"] for ps in passes for q in queries
            for p in ps[q] if p["numInputRows"] > 0]


def stream_metrics(passes: list[dict]) -> dict:
    """Per-query micro-batch figures from ``recentProgress`` of every pass.

    Each pass dict holds ``wall_s`` and the progress dicts of the ``parse``
    and ``detect`` queries (``StreamingQueryProgress.json``, parsed)."""
    m: dict[str, float] = {}
    busy = []
    n_passes = max(len(passes), 1)  # no passes when every pass raised
    for q in ("parse", "detect"):
        nonempty = [p for ps in passes for p in ps[q] if p["numInputRows"] > 0]
        m[f"stream.{q}_batches"] = len(nonempty) / n_passes
        m[f"stream.{q}.trigger_ms_p50"] = p50(trigger_ms(passes, (q,)))
        m[f"stream.{q}.addBatch_ms_p50"] = p50(
            [p["durationMs"].get("addBatch", 0) for p in nonempty])
        total = sum(p["durationMs"]["triggerExecution"] for p in nonempty)
        for key in SMALL_DURATION_KEYS:
            part = sum(p["durationMs"].get(key, 0) for p in nonempty)
            m[f"stream.{q}.{key}_share"] = part / total if total else 0.0
    for ps in passes:
        busy.append(sum(p["durationMs"].get("triggerExecution", 0)
                        for q in ("parse", "detect") for p in ps[q]) / 1000 / ps["wall_s"])
    m["stream.busy_share"] = p50(busy)
    ops = [op for ps in passes for p in ps["detect"] for op in p.get("stateOperators", [])]
    m["stream.rows_dropped_by_watermark"] = sum(
        op.get("numRowsDroppedByWatermark", 0) for op in ops) / n_passes
    m["stream.state_rows"] = max((op.get("numRowsTotal", 0) for op in ops), default=0)
    m["stream.state_memory_bytes"] = max((op.get("memoryUsedBytes", 0) for op in ops), default=0)
    return m


def profile_udfs(spark, model, raw, out_dir: str) -> tuple[dict, dict]:
    """One ``MoniLog.detect`` call with the PySpark UDF profiler on.

    Returns ``(metrics, profiles)``: the input rows each ``mapInPandas``
    UDF processed (the call count of its per-row function) and its top
    frames by tottime."""
    spark.conf.set("spark.sql.pyspark.udf.profiler", "perf")
    try:
        model.detect(raw)
    finally:
        spark.conf.unset("spark.sql.pyspark.udf.profiler")
    os.makedirs(out_dir, exist_ok=True)
    spark.profile.dump(out_dir, type="perf")
    spark.profile.clear()
    per_row = {"local_parse": ("drain.py", "parse"),
               "score_sequences": ("ngram.py", "is_anomalous")}
    rows = {name: 0 for name in per_row}
    profiles = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.pstats"))):
        stats = pstats.Stats(path).stats
        for name, (fname, func) in per_row.items():
            calls = sum(nc for (f, _, fn), (_, nc, _, _, _) in stats.items()
                        if fn == func and os.path.basename(f) == fname)
            if not calls:
                continue
            rows[name] += calls
            top = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:TOP_FRAMES]
            profiles[name] = {
                "udf_profile": os.path.basename(path),
                "input_rows": calls,
                "top_frames": [{"frame": f"{os.path.basename(f)}:{ln}({fn})", "ncalls": nc,
                                "tottime_s": tt, "cumtime_s": ct}
                               for (f, ln, fn), (_, nc, tt, ct, _) in top],
            }
    m = {f"udf.{name}.rows": n for name, n in rows.items()}
    return m, profiles
