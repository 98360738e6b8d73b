"""Correctness checks and detection quality of one scoring call.

One operation is one session to score. A session fails if it is missing
from the predictions, predicted more than once, or predicted differently
from the reference prediction (when the call has one). Every session of
a call fails if the call raised or its output breaks an invariant:
the flush record must not be predicted, there is one report per flagged
session, and the pools hold exactly the reports.
"""
from __future__ import annotations

import dataclasses

import pandas as pd

from repro.evaluation.labels import prf
from repro.streaming.pipeline import FLUSH_SESSION


@dataclasses.dataclass
class CallCheck:
    attempted: int
    failed: int
    problems: list[str]
    agree: float          # share of sessions whose prediction equals the reference


COLUMNS = ("session_id", "pred")


def _predictions(preds: pd.DataFrame) -> pd.DataFrame:
    """``preds`` itself, or an empty frame when it has none of the
    prediction columns (a streaming pass that scored nothing)."""
    if set(COLUMNS) <= set(preds.columns):
        return preds
    return pd.DataFrame({"session_id": pd.Series(dtype=object),
                         "pred": pd.Series(dtype="int64")})


def check_call(sessions: pd.Index, preds: pd.DataFrame | None, *, n_reports: int = 0,
               pool_total: int = 0, reference: pd.Series | None = None) -> CallCheck:
    """Check one call's per-session predictions (columns ``session_id``,
    ``pred``) against the sessions it was given."""
    n = len(sessions)
    if preds is None:
        return CallCheck(n, n, ["call raised"], 0.0)
    preds = _predictions(preds)
    problems = []
    counts = preds["session_id"].value_counts()
    expected = set(sessions)
    missing = expected - set(counts.index)
    twice = set(counts.index[counts > 1]) & expected
    if missing:
        problems.append(f"{len(missing)} sessions not predicted")
    if twice:
        problems.append(f"{len(twice)} sessions predicted more than once")
    if FLUSH_SESSION in counts.index:
        problems.append("flush record predicted")
    extra = set(counts.index) - expected - {FLUSH_SESSION}
    if extra:
        problems.append(f"{len(extra)} predictions for unknown sessions")
    flagged = int(preds["pred"].sum())
    if n_reports != flagged:
        problems.append(f"{n_reports} reports for {flagged} flagged sessions")
    if pool_total != n_reports:
        problems.append(f"pools hold {pool_total} reports, expected {n_reports}")
    pred = preds.drop_duplicates("session_id").set_index("session_id")["pred"]
    agree = 1.0
    differ: set = set()
    if reference is not None:
        both = pred.reindex(sessions)
        same = both.eq(reference.reindex(sessions))
        agree = float(same.mean())
        differ = set(same.index[~same]) - missing
        if differ:
            problems.append(f"{len(differ)} predictions differ from the reference")
    whole_call = FLUSH_SESSION in counts.index or extra or n_reports != flagged \
        or pool_total != n_reports
    failed = n if whole_call else len(missing | twice | differ)
    return CallCheck(n, failed, problems, agree)


def quality(preds: pd.DataFrame, truth: pd.Series) -> dict[str, float]:
    """Session-level F1 and false-positive rate against generator labels."""
    pred = _predictions(preds).drop_duplicates("session_id").set_index("session_id")["pred"]
    pred = pred.reindex(truth.index).fillna(0).astype(int)
    r = prf(truth.tolist(), pred.tolist())
    normal = int((truth == 0).sum())
    fpr = r.fp / normal if normal else 0.0
    return {"f1": r.f1, "fpr": fpr, "specificity": 1.0 - fpr, "normal_sessions": normal}
