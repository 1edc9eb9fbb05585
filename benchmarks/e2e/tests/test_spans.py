import pytest

import spans
from spans import Span


def test_percentile_interpolates_and_handles_no_samples():
    assert spans.percentile([], 0.5) == 0.0
    assert spans.percentile([4.0], 0.99) == 4.0
    assert spans.percentile([1, 2, 3, 4], 0.5) == 2.5
    assert spans.percentile(list(range(101)), 0.99) == 99


def test_tail_quantile_keeps_ten_samples_beyond_it():
    assert spans.tail_quantile(10_000) == 0.99
    assert spans.tail_quantile(1_000) == 0.99
    assert spans.tail_quantile(500) == pytest.approx(0.98)
    assert spans.tail_quantile(10) == 0.5


def test_block_summary_is_median_with_relative_spread():
    summary = spans.block_summary([10.0, 12.0, 11.0, 30.0, 9.0])
    assert summary["value"] == 11.0
    assert summary["spread"] == pytest.approx((30.0 - 9.0) / 11.0)
    assert summary["blocks"] == 5


def _child(parent, start, end, name="gateway"):
    child = Span(name, "get", "get:1", start, end, parent=parent)
    parent.children.append(child)
    return child


def test_self_time_subtracts_child_coverage():
    root = Span("client", "get", "get:1", 0, 100)
    _child(root, 10, 40)
    _child(root, 60, 70)
    assert root.self_time() == 100 - 30 - 10


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    root = Span("client", "get", "get:1", 0, 100)
    _child(root, 10, 50)
    _child(root, 30, 60)  # overlaps the first: union is 10..60
    _child(root, 90, 130)  # runs past the parent: only 90..100 counts
    assert root.self_time() == 100 - 50 - 10


def test_link_uses_thread_parent_then_key_and_containment():
    client = [
        ("client", "get", "get:7", 0, 100),
        ("client", "get", "get:7", 200, 300),
        ("client", "get", "get:8", 0, 90),
    ]
    sut = [
        # (name, kind, key, start, end, id, same-thread parent id)
        ("gateway", "get", "get:7", 210, 290, 1, 0),  # only the 2nd client span holds it
        ("cluster_client", "get", "get:7", 220, 280, 2, 0),  # other thread: by key
        ("transport", "get", "get:7", 225, 275, 3, 2),  # same thread: by id
        ("handler", "get", "get:7", 230, 270, 4, 0),
        ("gateway", "get", "get:9", 0, 10, 5, 0),  # no client span has this key
    ]
    linked = {s.id: s for s in spans.link_spans(client, sut) if s.id}
    assert linked[1].parent.start == 200
    assert linked[2].parent is linked[1]
    assert linked[3].parent is linked[2]
    assert linked[4].parent is linked[3]
    assert linked[5].parent is None and not linked[5].matched


def test_ledger_reconciles_and_reports_what_is_missing():
    client = [("client", "get", "get:7", 0, 100)]
    sut = [
        ("gateway", "get", "get:7", 10, 90, 1, 0),
        ("cluster_client", "get", "get:7", 20, 60, 2, 0),
        ("transport", "heartbeat", "heartbeat", 0, 50, 3, 0),  # control: ignored
    ]
    book = spans.ledger(spans.link_spans(client, sut))
    assert book["self_ns"] == {"net": 20, "serving": 40, "cluster.client": 40}
    assert book["share"]["serving"] == pytest.approx(0.4)
    assert book["residual_share"] == pytest.approx(0.0)
    assert book["unmatched_share"] == 0.0

    # a gateway span no client span contains is charged twice: once inside the
    # client's self time, once as its own, so the residual goes negative
    orphan = [("gateway", "get", "get:1", 10, 90, 1, 0)]
    book = spans.ledger(spans.link_spans(client, orphan))
    assert book["unmatched_share"] == 1.0
    assert book["residual_share"] == pytest.approx(1 - 180 / 100)


def test_apply_lag_pairs_each_ack_with_the_next_apply_on_a_leader():
    put = Span("handler", "put", "put:3", 1_000_000, 5_000_000)
    events = [
        ("store_write", "shard-0/n1", 3, 2_000_000),  # a follower: not the read path
        ("store_write", "shard-0/n0", 3, 500_000),  # before the put: an older write
        ("store_write", "shard-0/n0", 3, 7_000_000),
    ]
    assert spans.apply_lags_ms([put], events) == [2.0]
