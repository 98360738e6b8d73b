"""End-to-end MoniLog demo: train on a clean stream, then run the
Structured Streaming pipeline over a fresh multi-source stream and print
the detected anomaly reports with their pool/criticality assignments."""
import os
import shutil
import tempfile

from _common import get_spark

from repro.core.monilog import MoniLog
from repro.evaluation.labels import prf
from repro.loggen.generator import StreamSpec, generate
from repro.streaming.pipeline import StreamingMoniLog, write_stream_files

if __name__ == "__main__":
    spark = get_spark("monilog-stream")
    train = generate(StreamSpec(n_sessions=2000, n_sources=8, anomaly_rate=0.0, seed=1))
    ml = MoniLog(spark).fit(spark.createDataFrame(train))
    test = generate(StreamSpec(n_sessions=500, n_sources=8, anomaly_rate=0.05,
                               session_spread_s=600.0, seed=2))
    work = tempfile.mkdtemp(prefix="monilog-demo-")
    try:
        inp = os.path.join(work, "input")
        write_stream_files(test, inp, n_files=6)
        sm = StreamingMoniLog(ml, work)
        q, _ = sm.start(inp)
        try:
            sm.drain(q)
        finally:
            q.stop()
        preds = sm.predictions()
        truth = test.groupby("session_id")["is_anomaly"].any().astype(int)
        merged = preds.set_index("session_id").join(truth.rename("y"))
        print("streaming detection:", prf(merged["y"].tolist(), merged["pred"].tolist()).row())
        print(f"{len(sm.reports)} anomaly reports; pools: {dict(ml.pools.stats())}")
        for r in sm.reports[:10]:
            print(f"  {r.report_id}  src={r.source}  det={r.detector}  lines={r.n_lines}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spark.stop()
