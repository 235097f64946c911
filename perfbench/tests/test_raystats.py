import os

from perfbench.raystats import find, is_all_to_all, parse_stats

DATA = os.path.join(os.path.dirname(__file__), "data")


def load(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as f:
        return f.read()


def test_parse_extraction_partition():
    ops = parse_stats(load("crawl_partition_stats.txt"))
    assert [op["name"] for op in ops] == [
        "ReadParquet->SplitBlocks(8)",
        "MapBatches(keep_winners)->MapBatches(DecodeRouteExtract)->MapBatches(CascadeStage)",
        "Write",
    ]
    read, casc, write = ops
    assert (read["tasks"], read["blocks"], read["wall_s"]) == (1, 8, 0.41)
    assert read["rows_out"] == 1081 and read["bytes_out"] == 13331495
    assert casc["tasks"] == 8 and casc["wall_s"] == 1.5
    assert casc["remote_wall"] == {"min": 0.19983, "max": 0.39832, "mean": 0.29851, "total": 2.39}
    assert abs(casc["remote_cpu"]["total"] - 2.28) < 1e-12
    assert casc["rows_out"] == 1000
    # microsecond and millisecond figures are converted to seconds
    assert abs(read["remote_wall"]["min"] - 850.2e-6) < 1e-12
    assert write["wall_s"] == 1.08 and not is_all_to_all(write)
    assert find(ops, "CascadeStage") == [casc]


def test_parse_all_to_all_and_cached_operators():
    ops = parse_stats(load("paragraph_dedup_stats.txt"))
    names = [op["name"] for op in ops]
    assert names[2] == "Sort" and names[7] == "Sort"
    sort = ops[2]
    assert is_all_to_all(sort) and sort["wall_s"] == 1.59
    assert [s["name"] for s in sort["subops"]] == ["SortMap", "SortReduce"]
    # an all-to-all operator's output is its last stage's output
    assert sort["rows_out"] == 36838 and sort["bytes_out"] == 2228716
    assert sort["tasks"] == 2 and not sort["cached"]
    # a re-read of a cached input and a second sort over cached stages
    assert ops[4]["cached"] and ops[7]["cached"]
    assert [op["name"] for op in find(ops, "Sort")] == ["Sort"]
    union = ops[6]
    assert union["name"].startswith("UnionOperator(") and union["blocks"] == 0
