"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

1. Corrupted prediction sets (a session missing, one predicted twice, the
   flush record predicted, a report missing, a prediction changed, no
   prediction at all) must raise the failed count.
2. Every workload of ``BENCHMARK.json`` runs once untraced and once
   traced on tiny inputs; the last output line must carry exactly the
   result keys and every end-to-end (untraced) or per-layer (traced)
   metric with its unit. The tiny runs check the harness, not the
   program: a program defect they show is printed, not asserted.

Exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def test_corrupted_predictions() -> None:
    import pandas as pd

    from checks import check_call
    from repro.streaming.pipeline import FLUSH_SESSION

    sessions = pd.Index([f"s{i}" for i in range(10)])
    good = pd.DataFrame({"session_id": list(sessions), "pred": [1, 1] + [0] * 8})
    ref = good.set_index("session_id")["pred"]
    ok = check_call(sessions, good, n_reports=2, pool_total=2, reference=ref)
    check(ok.failed == 0 and ok.attempted == 10 and ok.agree == 1.0, "clean predictions pass")

    missing = good.iloc[1:]
    c = check_call(sessions, missing, n_reports=1, pool_total=1, reference=ref)
    check(c.failed == 1, "a missing session fails")
    twice = pd.concat([good, good.iloc[[5]]])
    c = check_call(sessions, twice, n_reports=2, pool_total=2, reference=ref)
    check(c.failed == 1, "a session predicted twice fails")
    flush = pd.concat([good, pd.DataFrame({"session_id": [FLUSH_SESSION], "pred": [0]})])
    c = check_call(sessions, flush, n_reports=2, pool_total=2, reference=ref)
    check(c.failed == 10, "a predicted flush record fails the whole call")
    c = check_call(sessions, good, n_reports=1, pool_total=1, reference=ref)
    check(c.failed == 10, "a missing report fails the whole call")
    c = check_call(sessions, good, n_reports=2, pool_total=1, reference=ref)
    check(c.failed == 10, "pools that lose a report fail the whole call")
    flipped = good.assign(pred=[1, 1, 1] + [0] * 7)
    c = check_call(sessions, flipped, n_reports=3, pool_total=3, reference=ref)
    check(c.failed == 1 and c.agree == 0.9, "a prediction that differs from the reference fails")
    c = check_call(sessions, None)
    check(c.failed == 10, "a call that raised fails all its sessions")
    c = check_call(sessions, pd.DataFrame(), reference=ref)
    check(c.failed == 10 and c.agree == 0.0, "a pass that scored nothing fails all its sessions")


def test_tiny_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--tiny"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            check(out.returncode == 0, f"{w['name']} trace={trace} exits 0")
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{w['name']} trace={trace} result keys")
            check(result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"],
                  f"{w['name']} trace={trace} attempted/failed counts")
            check(result["correct"] == (result["failed"] == 0 and not details["problems"]),
                  f"{w['name']} trace={trace} correct agrees with the checks")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{w['name']} trace={trace} prints every {kind} metric with its unit")
            check(all(isinstance(v["value"], float) for v in result["metrics"].values()),
                  f"{w['name']} trace={trace} values are numbers")
            named = details["named_metrics"]
            check(all({"value", "unit", "n"} <= set(v) for v in named.values()),
                  f"{w['name']} trace={trace} named metrics carry unit and sample count")
            if not result["correct"]:
                print(f"   note: tiny {w['name']} found {result['failed']} failed sessions: "
                      f"{details['problems'][:3]}")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    test_corrupted_predictions()
    test_tiny_runs()
    print("selftest passed")
