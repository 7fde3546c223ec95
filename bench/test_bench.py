"""Self-tests of the benchmark: seeded op lists and its metric contract.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_ops(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traffic_fixed_by_construction(name):
    shares = {json.dumps(workloads.traffic(workloads.generate(name, s)), sort_keys=True)
              for s in range(5)}
    assert len(shares) == 1


@pytest.mark.parametrize("name", workloads.NAMES)
def test_ops_are_runnable_and_p90_has_ten_beyond(name):
    ops = workloads.generate(name, 1)
    assert len(ops) * 0.1 >= 10
    for op in ops:
        assert op["kind"] in worker.OPS
        json.dumps(op)  # the worker receives the list as JSON


@pytest.mark.parametrize("name", workloads.NAMES)
def test_known_failure_ops_are_untimed(name):
    ops = workloads.generate(name, 1)
    assert all(not op["timed"] for op in ops if op["known"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_why_states_the_traffic(name):
    t = workloads.traffic(workloads.generate(name, 1))
    why = workloads.WHY[name]
    assert f"{t['ops']} ops" in why
    assert f"{round(100 * t['reuse_share'])}% reuse" in why
    assert f"{round(100 * t['known_failure_share'])}% known-fail" in why


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == [workloads.WHY[n] for n in workloads.NAMES]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E_EMIT)
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.E2E_UNITS[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_metric_names_follow_the_contract():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_every_stressed_metric_names_a_workload():
    for metric in tracer.metric_names():
        assert set(tracer.stressed_by(metric)) <= set(workloads.NAMES)
        assert tracer.stressed_by(metric), metric
