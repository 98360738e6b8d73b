"""Spark tests for the distributed Drain (parsing.distributed)."""
import pandas as pd
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.loggen.generator import StreamSpec, generate
from repro.parsing import metrics
from repro.parsing.distributed import (fold_misses, parse_distributed, parse_partitions,
                                       parse_single_node)
from repro.parsing.drain import Drain
from repro.parsing.preprocess import preprocess


@pytest.fixture(scope="module")
def stream():
    return generate(StreamSpec(n_sessions=150, n_sources=4, anomaly_rate=0.05,
                               seed=55))


@pytest.fixture(scope="module")
def parsed(spark, stream):
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(8)
    out, mapping = parse_distributed(sdf)
    return out.toPandas().sort_values("line_id").reset_index(drop=True), mapping


def test_every_line_parsed(parsed, stream):
    got, _ = parsed
    assert len(got) == len(stream)
    assert got["cluster_id"].notna().all()
    assert got["template"].notna().all()


def test_grouping_matches_single_node_quality(spark, parsed, stream):
    got, _ = parsed
    ga_dist = metrics.grouping_accuracy(stream["event_id"].tolist(),
                                        got["cluster_id"].tolist())
    single, _ = parse_single_node(spark.createDataFrame(stream[["line_id", "message"]]))
    single = single.sort_values("line_id").reset_index(drop=True)
    ga_single = metrics.grouping_accuracy(stream["event_id"].tolist(),
                                          single["cluster_id"].tolist())
    # the merge must not cost more than a few points of grouping accuracy
    assert ga_dist >= ga_single - 0.05
    assert ga_dist >= 0.9


def test_mapping_covers_all_local_templates(parsed):
    got, mapping = parsed
    global_ids = {gid for gid, _ in mapping.values()}
    assert set(got["cluster_id"]) <= global_ids


def test_mapping_templates_nonempty(parsed):
    _, mapping = parsed
    for tpl, (gid, gtpl) in mapping.items():
        assert isinstance(gid, int) and gtpl != ""


def test_global_template_count_near_gt(parsed, stream):
    got, mapping = parsed
    n_gt = stream["event_id"].nunique()
    n_global = len({gid for gid, _ in mapping.values()})
    assert n_gt <= n_global <= n_gt * 1.5


def test_deterministic_across_runs(spark, stream):
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(8)
    a, _ = parse_distributed(sdf)
    b, _ = parse_distributed(sdf)
    pa = a.toPandas().sort_values("line_id")["template"].tolist()
    pb = b.toPandas().sort_values("line_id")["template"].tolist()
    assert pa == pb


def test_single_partition_equals_single_node(spark, stream):
    # with one partition the distributed path degenerates to plain Drain
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).coalesce(1)
    dist, _ = parse_distributed(sdf)
    dist = dist.toPandas().sort_values("line_id").reset_index(drop=True)
    single, _ = parse_single_node(spark.createDataFrame(stream[["line_id", "message"]]))
    single = single.sort_values("line_id").reset_index(drop=True)
    ga = metrics.grouping_accuracy(single["cluster_id"].tolist(),
                                   dist["cluster_id"].tolist())
    assert ga == 1.0


def test_gt_template_column_replaced(spark, stream):
    # a pre-existing ground-truth `template` column must not leak through
    sdf = spark.createDataFrame(stream)  # includes GT template column
    out, _ = parse_distributed(sdf)
    assert len([c for c in out.columns if c == "template"]) == 1


def test_mask_option_runs(spark, stream):
    sdf = spark.createDataFrame(stream[["line_id", "message"]]).repartition(4)
    out, mapping = parse_distributed(sdf, mask=True)
    assert out.count() == len(stream)


def test_duplicated_line_ids_keep_one_row_per_input_row(spark, stream):
    # a tenth of the lines again, under the same line_id (a source that
    # replays lines); the parse must not multiply them
    duplicated = pd.concat([stream, stream.sample(frac=0.1, random_state=3)],
                           ignore_index=True)
    assert duplicated["line_id"].duplicated().any()
    sdf = spark.createDataFrame(duplicated[["line_id", "message"]]).repartition(4)
    out, _ = parse_distributed(sdf)
    got = out.select("line_id").toPandas()["line_id"]
    assert sorted(got) == sorted(duplicated["line_id"])


@pytest.fixture(scope="module")
def catalogue(spark):
    # a template catalogue learned the way MoniLog.fit learns it (the fold
    # of an empty-catalogue parse), on a short anomaly-free stream: some
    # templates keep a concrete token where the stream below varies, so a
    # tree that grew on hits would generalise them per partition and order
    train = generate(StreamSpec(n_sessions=10, n_sources=4, anomaly_rate=0.0, seed=54))
    empty = Drain()
    local = parse_partitions(spark.createDataFrame(train[["line_id", "message"]])
                             .repartition(4), empty)
    _, _, tree = fold_misses(local, empty)
    return tree


@pytest.fixture(scope="module")
def catalogue_reference(spark, stream, catalogue):
    """Per line, the catalogue's own match on the driver (None on a miss),
    and single-node Drain's grouping accuracy on the stream."""
    ref = {lid: catalogue.match_only(preprocess(msg, structured=True))
           for lid, msg in zip(stream["line_id"], stream["message"])}
    single, _ = parse_single_node(spark.createDataFrame(stream[["line_id", "message"]]))
    single = single.set_index("line_id").loc[stream["line_id"]]
    ga_single = metrics.grouping_accuracy(stream["event_id"].tolist(),
                                          single["cluster_id"].tolist())
    return ref, ga_single


@given(partitions=st.integers(1, 8), order_seed=st.integers(0, 2**32 - 1))
def test_catalogue_hits_independent_of_partitions_and_order(
        spark, stream, catalogue, catalogue_reference, partitions, order_seed):
    ref, ga_single = catalogue_reference
    shuffled = stream[["line_id", "message"]].sample(frac=1.0, random_state=order_seed)
    sdf = spark.createDataFrame(shuffled).repartition(partitions)
    parsed, mapping, _ = fold_misses(parse_partitions(sdf, catalogue), catalogue)
    got = parsed.toPandas().set_index("line_id").loc[stream["line_id"]]
    n_known = catalogue.n_templates()
    hits = {lid: (cid, tpl) for lid, cid, tpl in
            zip(got.index, got["cluster_id"], got["template"]) if cid < n_known}
    assert hits == {lid: m for lid, m in ref.items() if m is not None}
    # misses are numbered after the catalogue
    assert all(gid >= n_known for gid, _ in mapping.values())
    ga = metrics.grouping_accuracy(stream["event_id"].tolist(), got["cluster_id"].tolist())
    assert ga >= ga_single - 0.05
    assert ga >= 0.9
