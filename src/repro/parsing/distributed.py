"""Distributed Drain — the paper's planned §IV contribution.

Drain keeps one mutable parse tree, so it does not distribute as-is. The
scheme here ("distributed version of research tree-based log parsing
method") parses a Spark DataFrame of messages against a **template
catalogue**: a Drain tree of known templates, learned once (by
``MoniLog.fit``) and then only read, as Drain3 keeps and reuses its
learned state. Parsing runs in two steps:

1. **One partition-local pass** (:func:`parse_partitions`, one
   ``mapInPandas``). Every input column passes through, so no join puts
   the result back together. A line that ``Drain.match_only`` matches in
   the catalogue (a *hit*) gets the catalogue's cluster id and template
   unchanged; the catalogue is never generalised, so event identity stays
   that of the training events. Every other line (a *miss*) is parsed by
   a Drain tree local to the partition and leaves the pass with its
   cluster's final local template and no id. Nothing is shared between
   partitions.
2. **Driver-side fold of the misses** (:func:`fold_misses`): the distinct
   miss templates (tiny — hundreds of strings, not millions of lines) are
   folded into one fresh Drain tree on the driver by re-parsing the
   *templates*. Each gets a global id after the catalogue's ids and the
   merged template, applied to the miss lines by a lookup on the template
   in a literal map: a narrow projection, no shuffle.

With an empty catalogue (training) every line misses, and the fold's tree
is the catalogue the model keeps. Merging templates instead of lines
preserves Drain's clustering semantics (two local templates merge iff
Drain itself would put them in one leaf cluster) while touching the
driver with O(templates), not O(lines) — the scalability property §II
requires of every MoniLog component. The fold needs one Spark action
before the lookup can be built; a caller that reads the parsed frame more
than once persists the single pass (see ``MoniLog.parse``), so the
per-line parse runs once.
"""
from __future__ import annotations

import json
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.parsing.drain import Drain


def _local_parse_factory(catalogue: Drain, structured: bool, mask: bool):
    # the catalogue ships inside the task closure (PySpark broadcasts a
    # pickled closure by itself once it is large)
    def local_parse(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.parsing.preprocess import preprocess

        parser = Drain(depth=catalogue.depth, st=catalogue.st)
        for pdf in batches:
            ids, templates, local_ids = [], [], []
            for msg in pdf["message"]:
                msg = preprocess(msg, structured=structured, mask=mask)
                hit = catalogue.match_only(msg)
                if hit is not None:
                    ids.append(hit[0])
                    templates.append(hit[1])
                    local_ids.append(None)
                else:
                    ids.append(None)
                    templates.append(None)
                    local_ids.append(parser.parse(msg)[0])
            # a miss takes the final (most generalised) template of its
            # local cluster, not the snapshot at parse time, so the fold
            # sees stable text
            final = {c.cluster_id: c.template for c in parser.clusters}
            pdf["cluster_id"] = pd.array(ids, dtype="Int64")
            pdf["template"] = [t if c is None else final[c]
                               for t, c in zip(templates, local_ids)]
            yield pdf

    return local_parse


def parse_partitions(df: DataFrame, catalogue: Drain, *, structured: bool = True,
                     mask: bool = False) -> DataFrame:
    """The single partition-local pass over ``df`` (needs ``message``).

    Returns every column of ``df`` plus ``cluster_id`` (the catalogue id
    on a hit, null on a miss) and ``template`` (the catalogue template on
    a hit, the final partition-local template on a miss). Parser output
    *replaces* any pre-existing ``cluster_id``/``template`` column (e.g.
    the generator's ground-truth template column).
    """
    base = df.drop("cluster_id", "template")
    schema = T.StructType(base.schema.fields + [
        T.StructField("cluster_id", T.LongType()),
        T.StructField("template", T.StringType()),
    ])
    return base.mapInPandas(_local_parse_factory(catalogue, structured, mask), schema=schema)


def fold_misses(local: DataFrame, catalogue: Drain
                ) -> tuple[DataFrame, dict[str, tuple[int, str]], Drain]:
    """Fold the miss templates of a :func:`parse_partitions` frame.

    Collects the distinct miss templates (one Spark action), folds them
    in sorted order into a fresh Drain tree on the driver (the
    catalogue's depth and similarity threshold; ``<*>`` tokens in a local
    template match anything in that tree), and numbers its clusters
    after the catalogue's ids (a catalogue is itself such a fold tree,
    numbered from 0). Returns ``(parsed, mapping, tree)``: ``parsed`` is
    ``local`` with miss lines rewritten to their global id and template,
    ``mapping[local template] = (global id, global template)``, and
    ``tree`` the fold's Drain tree, whose own ids start at 0 — with an
    empty catalogue it is the new catalogue.
    """
    misses = sorted(r["template"] for r in
                    local.filter(F.col("cluster_id").isNull())
                    .select("template").distinct().collect())
    tree = Drain(depth=catalogue.depth, st=catalogue.st)
    local_ids = [tree.parse(tpl)[0] for tpl in misses]  # deterministic fold order
    final = {c.cluster_id: c.template for c in tree.clusters}
    offset = catalogue.n_templates()
    mapping = {tpl: (offset + cid, final[cid]) for tpl, cid in zip(misses, local_ids)}
    if not mapping:
        return local, mapping, tree
    # one JSON literal, which the optimizer folds into a literal map, not
    # one literal per entry: each F.lit call is a round trip to the JVM
    lookup = F.from_json(
        F.lit(json.dumps({tpl: {"id": gid, "template": gtpl}
                          for tpl, (gid, gtpl) in mapping.items()})),
        "map<string, struct<id: bigint, template: string>>")[F.col("template")]
    miss = F.col("cluster_id").isNull()
    parsed = local.withColumns({
        "cluster_id": F.when(miss, lookup["id"]).otherwise(F.col("cluster_id")),
        "template": F.when(miss, lookup["template"]).otherwise(F.col("template")),
    })
    return parsed, mapping, tree


def parse_distributed(df: DataFrame, *, depth: int = 4, st: float = 0.5,
                      structured: bool = True, mask: bool = False
                      ) -> tuple[DataFrame, dict[str, tuple[int, str]]]:
    """Parse ``df`` (columns ``line_id``, ``message``, any others pass
    through) with distributed Drain and an empty catalogue. Returns
    ``(parsed_df, mapping)`` where ``parsed_df`` adds
    ``cluster_id``/``template`` columns and ``mapping`` is the local
    template -> (global id, global template) fold.

    Nothing is persisted, so the partition-local pass runs once for the
    fold and again for each later action on ``parsed_df``.
    """
    empty = Drain(depth=depth, st=st)
    local = parse_partitions(df, empty, structured=structured, mask=mask)
    parsed, mapping, _ = fold_misses(local, empty)
    return parsed, mapping


def parse_single_node(df: DataFrame, *, depth: int = 4, st: float = 0.5,
                      structured: bool = True, mask: bool = False) -> tuple[pd.DataFrame, Drain]:
    """Reference single-node parse of the same frame (collect + one tree);
    the baseline T8 compares the distributed variant's throughput against."""
    from repro.parsing.preprocess import preprocess

    pdf = df.select("line_id", "message").toPandas()
    parser = Drain(depth=depth, st=st,
                   preprocess=lambda m: preprocess(m, structured=structured, mask=mask))
    ids = []
    for msg in pdf["message"]:
        cid, _ = parser.parse(msg)
        ids.append(cid)
    final = {c.cluster_id: c.template for c in parser.clusters}
    pdf["cluster_id"] = ids
    pdf["template"] = [final[c] for c in ids]
    return pdf, parser
