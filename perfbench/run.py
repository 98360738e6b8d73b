"""MoniLog benchmark: fit, batch detect + classify, and Structured Streaming.

    python3 perfbench/run.py --workload batch-unstable --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Set-up starts Spark, generates the
workload's inputs from ``--seed`` with ``repro.loggen`` in a child process
and writes them as parquet, one file per core (and as JSON stream files),
three times, fits ``MoniLog`` and makes one warm-up call. It then resets
the driver's peak-RSS mark. The measured phase drives the public API
in a closed loop (one caller; each call starts when the previous one has
returned) for ``--seconds``: ``MoniLog.detect`` + ``MoniLog.classify`` for
batch workloads, ``StreamingMoniLog.start``/``drain``/``predictions`` for
the streaming one. Every call's output is checked (see ``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it holds the details: environment, input
sizes, every sample, and the workload-specific names of the metrics with
units and sample counts. ``--trace 1`` also writes spans and UDF profiles
to ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 3
SESSION_GAP = "30 seconds"
WATERMARK = "10 seconds"
MAX_DRAIN_ROUNDS = 10
INPUTS_TIMEOUT_S = 120
CACHED_PARTITIONING = "spark.sql.optimizer.canChangeCachedPlanOutputPartitioning"


def now() -> float:
    return time.perf_counter()


def median(xs) -> float:
    return float(statistics.median(xs))


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not in /proc/self/status")


def reset_peak_rss() -> float:
    """Return freed memory to the OS and restart the kernel's high-water
    mark (VmHWM) at the current RSS, so that a later ``peak_rss_mb`` covers
    only what runs after this call. Returns the RSS at the reset, in MB."""
    import ctypes
    import gc

    import pyarrow

    gc.collect()
    pyarrow.default_memory_pool().release_unused()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return peak_rss_mb()


def cpu_times() -> list[int]:
    """The machine's aggregate CPU times (the ``cpu`` line of /proc/stat)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between
    (the 8th field, steal): noise from outside that the timings include."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test (not for measurements)")
    return p.parse_args(argv)


class Bench:
    """One benchmark run: set-up, the measured closed loop, checks, and
    (with tracing) the per-layer run."""

    def __init__(self, args, work: str) -> None:
        import inputs

        self.args = args
        self.work = work
        self.w = (inputs.TINY if args.tiny else inputs.WORKLOADS)[args.workload]
        self.stream = self.w.mode == "stream"
        self.attempted = 0
        self.failed = 0
        self.n_reports = 0
        self.problems: list[str] = []
        self.agree: list[float] = []
        self.detect_counts: list[dict] = []
        self._passes = 0
        self.d: dict = {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "tiny": args.tiny}

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        import pandas as pd

        import inputs
        import spark_env
        from repro.core.monilog import MoniLog

        t = now()
        self.spark, conf = spark_env.start(self.work, SRC)
        spark_start_s = now() - t
        self.jobs = spark_env.JobCounter(self.spark)
        import pyspark
        self.d["env"] = {"nproc": spark_env.nproc(), "spark": self.spark.version,
                         "pyspark": pyspark.__version__, "python": sys.version.split()[0],
                         "git_sha": git_sha(), "spark_conf": conf}

        # generate and write the inputs in a child process, several times:
        # the median round (plus the child's start) is the input part of
        # the set-up time
        data = os.path.join(self.work, "inputs")
        self.stream_dir = os.path.join(data, "stream")
        self.warm_stream_dir = os.path.join(data, "stream-warmup")
        cmd = [sys.executable, os.path.join(HERE, "inputs.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--out", data, "--rounds", str(SETUP_ROUNDS),
               "--parts", str(spark_env.nproc())]
        cmd += ["--stream"] if self.stream or self.args.trace else []
        cmd += ["--tiny"] if self.args.tiny else []
        t = now()
        out = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                             text=True, timeout=INPUTS_TIMEOUT_S)
        child_s = now() - t
        if out.returncode != 0:
            raise RuntimeError("input generation failed:\n" + out.stderr[-2000:])
        meta = json.loads(out.stdout.strip().splitlines()[-1])
        rounds = meta.pop("round_s")
        input_s = median(rounds) + child_s - sum(rounds)
        test_path = os.path.join(data, "test")
        self.train_df = self.spark.read.parquet(os.path.join(data, "train"))
        self.test_df = self.spark.read.parquet(test_path)
        self.truth = inputs.labels(pd.read_parquet(test_path, columns=["session_id",
                                                                      "is_anomaly"]))
        self.sessions = self.truth.index
        meta["test"]["spark_partitions"] = self.test_df.rdd.getNumPartitions()
        self.d["inputs"] = meta

        group = self.jobs.group("fit")
        t = now()
        self.model = MoniLog(self.spark).fit(self.train_df)
        fit_s = now() - t
        self.fit_counts = self.jobs.counts(group)

        # warm-up: the first detect + classify; its predictions are the
        # reference every later call on this input must reproduce
        t = now()
        ref, _ = self._detect_call()
        warmup_s = now() - t
        if ref is None:
            raise RuntimeError("warm-up detect failed: " + "; ".join(self.problems))
        self.reference = ref.drop_duplicates("session_id").set_index("session_id")["pred"]
        stream_warmup_s = self._stream_warmup() if self.stream else 0.0
        self.setup_s = spark_start_s + input_s + fit_s + warmup_s + stream_warmup_s
        self.d["setup"] = {"spark_start_s": spark_start_s, "input_round_s": rounds,
                           "input_child_s": child_s, "input_s": input_s,
                           "first_fit_s": fit_s, "warmup_detect_s": warmup_s,
                           "warmup_stream_s": stream_warmup_s,
                           "fit_spark": self.fit_counts}

    # -- one measured operation -------------------------------------------
    def _detect_call(self):
        """One closed-loop ``detect`` + ``classify`` call. Returns
        ``(predictions or None, seconds)``."""
        from repro.classify.pools import PoolSystem

        self.model.pools = PoolSystem()  # every call routes into empty pools
        group = self.jobs.group("detect")
        t = now()
        try:
            preds, reports = self.model.detect(self.test_df)
            self.model.classify(reports)
        except Exception:  # a call that raises fails all its sessions
            self.problems.append(traceback.format_exc(limit=3))
            return None, now() - t
        dt = now() - t
        self.detect_counts.append(self.jobs.counts(group))
        self.n_reports = len(reports)
        return preds, dt

    def _stream_pass(self, input_dir: str, n_sessions: int):
        """Stream the files of ``input_dir`` through a fresh
        ``StreamingMoniLog`` until ``n_sessions`` sessions are scored.
        Returns ``(predictions, record)``."""
        from repro.classify.pools import PoolSystem
        from repro.streaming.pipeline import StreamingMoniLog

        self.model.pools = PoolSystem()
        self._passes += 1
        pass_dir = os.path.join(self.work, f"stream-pass-{self._passes}")
        sm = StreamingMoniLog(self.model, pass_dir, session_gap=SESSION_GAP,
                              watermark=WATERMARK)
        rounds = 0
        t = now()
        q_parse, q_detect = sm.start(input_dir)
        try:
            while True:
                sm.drain(q_parse, q_detect, rounds=1)
                rounds += 1
                if rounds >= MAX_DRAIN_ROUNDS or len(sm.predictions()) >= n_sessions:
                    break
            wall = now() - t
        finally:
            q_parse.stop()
            q_detect.stop()
            shutil.rmtree(pass_dir, ignore_errors=True)
        preds = sm.predictions()
        self.n_reports = len(sm.reports)
        rec = {"wall_s": wall, "drain_rounds": rounds,
               "parse": [json.loads(p.json) for p in q_parse.recentProgress],
               "detect": [json.loads(p.json) for p in q_detect.recentProgress]}
        return preds, rec

    def _stream_call(self):
        """One closed-loop streaming pass over the workload's stream files.
        Returns ``(predictions or None, pass record or None, seconds)``."""
        t = now()
        try:
            preds, rec = self._stream_pass(self.stream_dir, len(self.sessions))
        except Exception:  # a pass that raises fails all its sessions
            self.problems.append(traceback.format_exc(limit=3))
            return None, None, now() - t
        return preds, rec, rec["wall_s"]

    def _stream_warmup(self) -> float:
        """One drain of a small first slice of the input, so the measured
        passes do not pay the process's first-stream costs."""
        t = now()
        self._stream_pass(self.warm_stream_dir, 0)
        return now() - t

    def _check(self, preds):
        import checks

        return checks.check_call(self.sessions, preds, n_reports=self.n_reports,
                                 pool_total=sum(self.model.pools.stats().values()),
                                 reference=self.reference)

    def _count(self, c) -> None:
        self.attempted += c.attempted
        self.failed += c.failed
        self.agree.append(c.agree)
        self.problems.extend(c.problems)

    # -- measured phase ---------------------------------------------------
    def measure(self) -> None:
        import checks

        times, self.passes, first = [], [], None
        # the driver's peak RSS is taken over the measured calls only
        self.d["driver_rss_at_start_mb"] = reset_peak_rss()
        cpu0 = cpu_times()
        t0 = now()
        # closed loop: a call starts only if it should end within --seconds
        while not times or now() - t0 + median(times) <= self.args.seconds:
            if self.stream:
                preds, rec, dt = self._stream_call()
                if rec is not None:
                    self.passes.append(rec)
            else:
                preds, dt = self._detect_call()
            c = self._check(preds)
            self._count(c)
            times.append(dt)
            if first is None and c.failed < c.attempted:
                first = preds
        self.times = times
        self.peak_rss_mb = peak_rss_mb()
        self.d["cpu_steal_share"] = steal_share(cpu0, cpu_times())
        self.lines_per_s = self.d["inputs"]["test"]["lines"] / median(times)
        self.quality = checks.quality(first, self.truth) if first is not None else None
        self.d["measured"] = {
            "op": "stream pass" if self.stream else "detect+classify", "op_s": times,
            "detect_spark": self.detect_counts,
            "stream_passes": [{k: rec[k] for k in ("wall_s", "drain_rounds")}
                              for rec in self.passes]}

    def end_to_end(self) -> dict:
        q = self.quality or {"f1": 0.0, "specificity": 0.0}
        return {
            "setup_s": self.setup_s,
            "lines_per_s": self.lines_per_s,
            "f1": q["f1"],
            "specificity": q["specificity"],
            "agree_share": statistics.fmean(self.agree),
            "scored_share": 1 - self.failed / self.attempted,
            "driver_peak_rss_mb": self.peak_rss_mb,
        }

    def named(self) -> dict:
        """The metrics under the names the workload defines them by, each
        with unit and sample count (``n``)."""
        n_ops = len(self.times)
        q = self.quality or {}
        out = {"setup_s": {"value": self.setup_s, "unit": "s", "n": SETUP_ROUNDS},
               "f1": {"value": q.get("f1"), "unit": "share", "n": len(self.sessions)},
               "fpr": {"value": q.get("fpr"), "unit": "share",
                       "n": q.get("normal_sessions")},
               "failed_share": {"value": self.failed / self.attempted, "unit": "share",
                                "n": self.attempted},
               "driver_peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MB",
                                      "n": n_ops}}
        if self.stream:
            import layers

            lat = layers.trigger_ms(self.passes)
            out["stream_lines_per_s"] = {"value": self.lines_per_s, "unit": "lines/s",
                                         "n": n_ops}
            out["stream_batch_ms_p50"] = {"value": layers.p50(lat), "unit": "ms",
                                          "n": len(lat)}
            out["stream_batch_agree"] = {"value": statistics.fmean(self.agree),
                                         "unit": "share", "n": len(self.sessions) * n_ops}
        else:
            out["detect_lines_per_s"] = {"value": self.lines_per_s, "unit": "lines/s",
                                         "n": n_ops}
        return out

    # -- traced run -------------------------------------------------------
    def traced(self) -> dict:
        import layers
        from repro.core.monilog import MoniLog

        if self.stream:  # the untraced detect baseline and its job counts
            _, dt = self._detect_call()
            untraced = dt
        else:
            untraced = median(self.times)
        tracer = layers.Tracer(self.jobs)
        # the traced steps cache their outputs; let AQE coalesce a cached
        # plan's partitions as it does the uncached plan of an untraced call
        self.spark.conf.set(CACHED_PARTITIONING, "true")
        try:
            m = layers.traced_detect(self.model, self.test_df, tracer)
            m.update(layers.traced_fit(self.model.config, self.train_df, tracer))
        finally:
            self.spark.conf.unset(CACHED_PARTITIONING)
        m["trace_overhead_share"] = m.pop("detect.traced_s") / untraced - 1
        with tracer.span("fit.untraced") as sp:
            MoniLog(self.spark).fit(self.train_df)
        m["fit.s"] = layers.Tracer.seconds(sp)
        last = self.detect_counts[-1]
        m["detect.spark_jobs"] = last["jobs"]
        m["detect.spark_tasks"] = last["tasks"]
        m["detect.spark_tasks_failed"] = last["tasks_failed"]
        m["fit.spark_jobs"] = self.fit_counts["jobs"]
        passes = self.passes
        probe = None
        if not self.stream:
            # the streaming layer, probed on this workload's input; a
            # difference from batch is recorded, not counted as a failure
            with tracer.span("streaming.warmup"):
                self._stream_warmup()
            with tracer.span("streaming.pipeline"):
                preds, rec, _ = self._stream_call()
            c = self._check(preds)
            probe = {"agree": c.agree, "problems": c.problems}
            passes = [rec] if rec is not None else []
        m.update(layers.stream_metrics(passes))
        m["stream.batch_agree_share"] = probe["agree"] if probe else statistics.fmean(self.agree)
        with tracer.span("profile.detect"):
            pm, profiles = layers.profile_udfs(
                self.spark, self.model, self.test_df, os.path.join(self.work, "profile"))
        m.update(pm)
        repeat = {k: len({c[k] for c in self.detect_counts}) == 1
                  for k in ("jobs", "tasks", "tasks_failed")}
        self.d["trace"] = {"spans": tracer.spans, "udf_profiles": profiles,
                           "detect_spark_counts_repeat_within_run": repeat,
                           "untraced_detect_s": untraced, "stream_probe": probe}
        return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "monilog.py")):
        print(f"perfbench: no MoniLog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    bench = Bench(args, work)
    try:
        bench.setup()
        bench.measure()
        values = bench.traced() if args.trace else bench.end_to_end()
        details = dict(bench.d, named_metrics=bench.named(), problems=bench.problems[:20])
    finally:
        if hasattr(bench, "spark"):
            import spark_env
            spark_env.stop(bench.spark)
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(details, f, indent=1, default=str)
        details["trace_file"] = os.path.relpath(path, ROOT)
        details.pop("trace", None)
    print(json.dumps(details, default=str))
    result = {"correct": bench.failed == 0 and not bench.problems,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                          for m in spec["per_layer" if args.trace else "end_to_end"]}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
