import json
import threading

from perfbench.spans import NullTracer, Tracer, covered


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == 4.0
    assert covered([(4.0, 5.0), (1.0, 2.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_the_part_children_cover():
    tracer = Tracer()
    parent = tracer.record("flush", 0.0, 10.0)
    tracer.record("stage", 1.0, 4.0, parent=parent)
    tracer.record("stage", 3.0, 6.0, parent=parent)
    tracer.record("flush", 20.0, 22.0)
    assert tracer.durations("flush") == [10.0, 2.0]
    assert tracer.self_times("flush") == [5.0, 2.0]
    assert tracer.self_times("stage") == [3.0, 3.0]


def test_nested_spans_link_to_the_enclosing_span_of_their_thread():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", trace=7):
            pass

        def elsewhere():
            with tracer.span("elsewhere"):
                pass

        thread = threading.Thread(target=elsewhere)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans = {span.name: span for span in tracer.spans}
    assert spans["inner"].parent == outer
    assert spans["inner"].trace == 7
    assert spans["outer"].parent is None
    assert spans["elsewhere"].parent is None
    assert 0.0 <= tracer.self_times("outer")[0] <= spans["outer"].duration


def test_spans_stay_in_memory_until_dumped(tmp_path):
    tracer = Tracer()
    with tracer.span("a"):
        pass
    path = tmp_path / "spans.jsonl"
    assert not path.exists()
    tracer.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["a"]
    assert rows[0]["end"] >= rows[0]["start"]


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("a"):
        pass
    assert tracer.record("b", 0.0, 1.0) is None
