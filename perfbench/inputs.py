"""Workload inputs, generated from the run's seed with ``repro.loggen``.

Every workload fits on the same kind of training stream (anomaly-free
sessions from 8 source profiles) and then scores a test stream whose
shape is what the workload is about. The same seed always yields the
same frames; nothing here touches Spark.

Run as a script, it generates and writes one run's inputs, so that the
benchmark's driver process never holds the generator's allocations:

    PYTHONPATH=src python3 perfbench/inputs.py --workload batch-unstable \
        --seed 1 --out DIR --rounds 3 --parts 4 [--stream] [--tiny]

It writes ``DIR/train`` and ``DIR/test`` (parquet, ``--parts`` files
each), with ``--stream`` also ``DIR/stream`` and ``DIR/stream-warmup``
(JSON stream files), ``--rounds`` times over, and prints one JSON line:
the seconds of each round, the input sizes and the injected instability.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import time

import numpy as np
import pandas as pd

from repro.loggen import instability
from repro.loggen.generator import StreamSpec, generate
from repro.streaming.pipeline import write_stream_files

N_SOURCES = 8
TRAIN_SESSIONS = 2000
STREAM_FILES = 2  # JSON files, one micro-batch each, per streaming pass
WARMUP_STREAM_SESSIONS = 40


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    mode: str                 # "batch": detect + classify calls; "stream": StreamingMoniLog passes
    test_sessions: int
    anomaly_rate: float
    instability: float = 0.0  # share of lines altered by loggen.instability.inject
    session_spread_s: float = 600.0


WORKLOADS = {
    w.name: w for w in (
        Workload("batch-unstable", "batch", test_sessions=2000, anomaly_rate=0.2,
                 instability=0.1),
        Workload("stream-microbatch", "stream", test_sessions=1000, anomaly_rate=0.05,
                 session_spread_s=400.0),
    )
}

# a tiny variant of every workload, used by the self-test only
TINY = {name: dataclasses.replace(w, test_sessions=max(40, w.test_sessions // 50))
        for name, w in WORKLOADS.items()}
TINY_TRAIN_SESSIONS = 200


def _us(pdf: pd.DataFrame) -> pd.DataFrame:
    # Spark reads only microsecond parquet timestamps
    for col in ("ts", "arrival_ts"):
        pdf[col] = pdf[col].astype("datetime64[us]")
    return pdf


def make_inputs(w: Workload, seed: int, *, train_sessions: int = TRAIN_SESSIONS
                ) -> tuple[pd.DataFrame, pd.DataFrame, dict[str, int]]:
    """``(train, test, injected)``: the training stream, the stream the
    workload scores, and the per-kind counts of injected instability."""
    train = generate(StreamSpec(n_sessions=train_sessions, n_sources=N_SOURCES,
                                anomaly_rate=0.0, seed=seed * 3 + 1))
    test = generate(StreamSpec(n_sessions=w.test_sessions, n_sources=N_SOURCES,
                               anomaly_rate=w.anomaly_rate,
                               session_spread_s=w.session_spread_s, seed=seed * 3 + 2))
    injected: dict[str, int] = {}
    if w.instability:
        test, injected = instability.inject(test, w.instability, seed=seed * 3 + 3)
        # inject() copies a duplicated line with its line_id; a duplicated
        # record is a record of its own, as generate() numbers its
        # duplicates, so line ids are re-assigned in arrival order
        test["line_id"] = np.arange(len(test), dtype=np.int64)
    return _us(train), _us(test), injected


def head_sessions(test: pd.DataFrame, n: int) -> pd.DataFrame:
    """The lines of the first ``n`` sessions (by id) of a stream."""
    keep = sorted(test["session_id"].unique())[:n]
    return test[test["session_id"].isin(keep)]


def labels(test: pd.DataFrame) -> pd.Series:
    """Session label (1 = anomalous) from the generator's ground truth."""
    return test.groupby("session_id")["is_anomaly"].any().astype(int)


def sizes(test: pd.DataFrame) -> dict[str, int]:
    return {"lines": int(len(test)),
            "sessions": int(test["session_id"].nunique()),
            "templates": int(test["event_id"].nunique()),
            "anomalous_sessions": int(labels(test).sum())}


def write_parquet_parts(pdf: pd.DataFrame, directory: str, n_parts: int) -> None:
    """Write ``pdf`` as ``n_parts`` parquet files of consecutive rows, the
    slices ``createDataFrame`` would give ``n_parts`` tasks, so that
    ``spark.read.parquet`` yields one partition per file."""
    os.makedirs(directory)
    bounds = np.linspace(0, len(pdf), n_parts + 1).round().astype(int)
    for i in range(n_parts):
        pdf.iloc[bounds[i]:bounds[i + 1]].to_parquet(
            os.path.join(directory, f"part-{i:05d}.parquet"), index=False)


def write_inputs(w: Workload, seed: int, out: str, *, train_sessions: int, parts: int,
                 stream: bool) -> dict:
    """Generate one run's inputs and write them under ``out`` (emptied first)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    train, test, injected = make_inputs(w, seed, train_sessions=train_sessions)
    write_parquet_parts(train, os.path.join(out, "train"), parts)
    write_parquet_parts(test, os.path.join(out, "test"), parts)
    if stream:
        write_stream_files(test, os.path.join(out, "stream"), n_files=STREAM_FILES)
        warm = head_sessions(test, WARMUP_STREAM_SESSIONS)
        # no flush record: sessions stay open, so the warm-up pass runs
        # one trigger of each query and scores nothing
        os.remove(write_stream_files(warm, os.path.join(out, "stream-warmup"), n_files=1)[-1])
    return {"train": sizes(train), "test": sizes(test), "injected": injected,
            "parts": parts, "stream_files": STREAM_FILES}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description="Generate and write one run's inputs.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--stream", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    w = (TINY if args.tiny else WORKLOADS)[args.workload]
    train_sessions = TINY_TRAIN_SESSIONS if args.tiny else TRAIN_SESSIONS
    rounds = []
    for _ in range(args.rounds):
        t = time.perf_counter()
        meta = write_inputs(w, args.seed, args.out, train_sessions=train_sessions,
                            parts=args.parts, stream=args.stream)
        rounds.append(time.perf_counter() - t)
    print(json.dumps(dict(meta, round_s=rounds)))


if __name__ == "__main__":
    main()
