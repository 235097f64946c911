import json
import os
import re

from perfbench import traced, worker
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_lists_match_what_the_runs_print():
    b = load()
    e2e = worker.end_to_end(10, [_Job()] * 3, 1.5, 1.0, 100.0)
    assert [m["name"] for m in b["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in b["end_to_end"])
    units = traced.per_layer_units()
    assert [m["name"] for m in b["per_layer"]] == list(units)
    assert all(m["unit"] == units[m["name"]] for m in b["per_layer"])
    assert [w["name"] for w in b["workloads"]] == list(WORKLOADS)


def test_fields_within_limits():
    b = load()
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [
        w["name"] for w in b["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in b["end_to_end"])
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])
    assert 1 <= b["run_seconds"] <= 60


class _Job:
    wall_s = 2.0
    first_output_s = 1.0
