import time

from perfbench.trace import Patches, Tracer, covered, self_times, total_times


def span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent}


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_from_nested_spans():
    spans = [
        span(0, "job", 0.0, 10.0),
        span(1, "build", 1.0, 3.0, parent=0),
        span(2, "write", 2.0, 8.0, parent=0),  # overlaps build
        span(3, "write_parquet", 4.0, 7.0, parent=2),
        span(4, "write", 8.5, 9.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs["job"] == 10.0 - (8.0 - 1.0) - 0.5
    assert selfs["build"] == 2.0
    assert selfs["write"] == (6.0 - 3.0) + 0.5
    assert selfs["write_parquet"] == 3.0
    assert total_times(spans)["write"] == 6.5


def test_self_times_of_sequential_children_add_up_to_the_root():
    spans = [
        span(0, "serial", 0.0, 10.0),
        span(1, "route", 0.5, 2.0, parent=0),
        span(2, "html", 0.7, 1.9, parent=1),
        span(3, "cascade", 2.0, 9.0, parent=0),
        span(4, "rec", 3.0, 8.0, parent=3),
    ]
    assert abs(sum(self_times(spans).values()) - 10.0) < 1e-12


def test_tracer_records_parents_and_proxies():
    t = Tracer()

    def work(x):
        time.sleep(0.001)
        return [x] * x

    proxy = t.wrap(work, "work", on_result=lambda args, r: t.count("items", len(r)))
    with t.span("outer"):
        assert proxy(3) == [3, 3, 3]
        proxy(2)
    outer, first, second = t.spans
    assert first["parent"] == outer["id"] and second["parent"] == outer["id"]
    assert t.counts["items"] == 5
    assert self_times(t.spans)["outer"] < outer["end"] - outer["start"]


def test_patches_restore_in_reverse_order():
    class Target:
        a = 1

    with Patches() as p:
        p.set(Target, "a", 2)
        p.set(Target, "a", 3)
        assert Target.a == 3
    assert Target.a == 1
