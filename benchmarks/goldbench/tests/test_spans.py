"""Self-time arithmetic and span bookkeeping on synthetic span trees."""

import threading

import pytest

import spans


def _row(span_id, parent, name, start, end, rid=None, info=None):
    return (span_id, parent, name, start, end, 1, rid, False, info)


def _tree():
    # app.handle [0, 10] ms          R1: a PUT and the rebuild it caused
    #   store.put [1, 4]
    #   cache.site.entry [5, 9]
    #     cache.site.slow_path [5, 5.1]
    #     cache.site.rebuild [5.1, 9]
    #       publisher.publish_multi_page [6, 8]
    # app.handle [20, 21]             R2: a cache hit
    #   cache.site.entry [20.2, 20.3]
    # app.handle [30, 33]             R3: waited for another build
    #   cache.site.entry [30.1, 32]
    #     cache.site.slow_path [30.1, 30.2]
    ms = 0.001
    return {7: [
        _row(1, 0, "app.handle", 0, 10 * ms, info={"rid": "R1"}),
        _row(2, 1, "store.put", 1 * ms, 4 * ms),
        _row(3, 1, "cache.site.entry", 5 * ms, 9 * ms),
        _row(4, 3, "cache.site.slow_path", 5 * ms, 5.1 * ms),
        _row(5, 3, "cache.site.rebuild", 5.1 * ms, 9 * ms),
        _row(6, 5, "publisher.publish_multi_page", 6 * ms, 8 * ms),
        _row(7, 0, "app.handle", 20 * ms, 21 * ms, info={"rid": "R2"}),
        _row(8, 7, "cache.site.entry", 20.2 * ms, 20.3 * ms),
        _row(9, 0, "app.handle", 30 * ms, 33 * ms, info={"rid": "R3"}),
        _row(10, 9, "cache.site.entry", 30.1 * ms, 32 * ms),
        _row(11, 10, "cache.site.slow_path", 30.1 * ms, 30.2 * ms),
    ]}


def _by_id(tree):
    return {s.key[1]: s for s in tree}


def test_self_time_is_span_minus_children():
    by_id = _by_id(spans.build_tree(_tree()))
    assert by_id[1].self_s == pytest.approx(0.003)
    assert by_id[2].self_s == pytest.approx(0.003)
    assert by_id[3].self_s == pytest.approx(0.0)
    assert by_id[5].self_s == pytest.approx(0.0019)
    assert by_id[6].self_s == pytest.approx(0.002)
    # Self times of one request's spans tile its root span.
    total = sum(s.self_s for s in by_id.values() if s.rid == "R1")
    assert total == pytest.approx(0.010)


def test_request_ids_propagate_from_the_root():
    by_id = _by_id(spans.build_tree(_tree()))
    assert {by_id[i].rid for i in range(1, 7)} == {"R1"}
    assert by_id[8].rid == "R2" and by_id[11].rid == "R3"


def test_covered_merges_and_clips_intervals():
    assert spans.covered(0, 10, [(1, 4), (3, 5), (9, 12)]) == 5
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(2, 3, [(0, 10)]) == 1


def test_function_table_counts_calls_and_busy_time():
    table = spans.function_table(spans.build_tree(_tree()))
    assert table["app.handle"]["calls"] == 3
    assert table["app.handle"]["busy_ms"] == pytest.approx(3 + 0.9 + 1.1)
    assert table["store.put"]["errors"] == 0


def test_derive_and_coverage_on_a_synthetic_run():
    tree = spans.build_tree(_tree())
    stats = {"requests": {"total": 0},
             "site_cache": {"hits": 0, "rebuilds": 0, "coalesced": 0,
                            "disk_hits": 0, "resident_bytes": 2_000_000}}
    after = {"requests": {"total": 10},
             "site_cache": {"hits": 8, "rebuilds": 1, "coalesced": 1,
                            "disk_hits": 0, "resident_bytes": 3_000_000}}
    reads = [("R1", 12.0), ("R2", 1.5)]
    metrics = spans.derive(
        tree, reads=reads, connect_ms=[0.2, 0.4], stats_before=[stats],
        stats_after=[after], first_edit_start=0.0, edits=1)
    assert metrics["httpd.connect_ms.max"] == 0.4
    assert metrics["httpd.overhead_ms.p50"] == pytest.approx(1.25)
    assert metrics["cache.site.hit_ratio"] == pytest.approx(0.8)
    assert metrics["cache.site.resident_mb"] == pytest.approx(3.0)
    # Only the entry that neither built nor waited is a hit.
    assert metrics["cache.site.entry_hit_us.p50"] == pytest.approx(100)
    # The rebuild is the build itself, not the entry() around it.
    assert metrics["cache.site.rebuild_ms.p50"] == pytest.approx(3.9)
    assert metrics["cache.site.rebuilds_per_edit"] == 1.0
    assert metrics["store.put_ms.p50"] == pytest.approx(3.0)
    assert metrics["publish.cold_ms"] == pytest.approx(2.0)
    assert metrics["workers.request_share.min"] == 1.0
    assert spans.coverage(tree, reads) == pytest.approx(1.0)


def test_recorder_links_nested_calls_per_thread():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    worker = threading.Thread(target=inner, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    rows = {row[2] + str(row[5]): row for row in recorder.spans}
    main_inner = rows["inner" + str(threading.get_ident())]
    main_outer = rows["outer" + str(threading.get_ident())]
    assert main_inner[1] == main_outer[0]
    other = [row for row in recorder.spans if row[5] != main_inner[5]]
    assert len(other) == 1 and other[0][1] == 0


def test_recorder_marks_errors():
    recorder = spans.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert recorder.spans[0][7] is True
