"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q -o addopts=""
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
from checks import check_repetition, load_reference
from workloads import WORKLOADS, make_inputs, point_keys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A small observed body: cheap enough to run traced in a test.
TINY_INPUTS = {"cells": [{"machine": "powermanna", "version": "naive",
                          "n": 6, "sample_rows": None, "scale": 16}],
               "pair": [0, 1], "sizes": [64]}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_names_are_valid_and_documented():
    spec = _benchmark_json()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    for name in end_to_end + per_layer + workloads:
        assert NAME.match(name), name
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(run.per_layer_units())
    assert workloads == list(WORKLOADS)
    with open(os.path.join(HERE, "METRICS.md"), encoding="utf-8") as f:
        documented = f.read()
    for name in end_to_end + per_layer:
        assert f"`{name}`" in documented, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_inputs(workload):
    assert make_inputs(workload, 3) == make_inputs(workload, 3)
    assert make_inputs(workload, 3) != make_inputs(workload, 4)


def test_recorded_seeds_have_every_reference():
    reference = load_reference()
    for seed in reference["recorded_seeds"]:
        for workload in WORKLOADS:
            for key in point_keys(workload, make_inputs(workload, seed)):
                assert key in reference["points"], (workload, seed, key)


def test_every_seed_draws_referenced_cells_and_sizes():
    points = load_reference()["points"]
    for seed in range(200):
        for workload in ("smp_replay", "observed_mix"):
            for key in point_keys(workload, make_inputs(workload, seed)):
                assert key in points, (workload, seed, key)


def _fake_result(workload, inputs, reference):
    records = []
    for key in point_keys(workload, inputs):
        records.append({"key": key,
                        "outputs": copy.deepcopy(reference["points"][key])})
    return {"records": records,
            "state": {"cache_hits": 0, "cache_misses": len(records),
                      "journal_records": len(records) + 2}}


def test_reference_outputs_pass_and_perturbed_reference_fails():
    reference = load_reference()
    inputs = make_inputs("smp_replay", reference["recorded_seeds"][0])
    result = _fake_result("smp_replay", inputs, reference)
    attempted, failures = check_repetition("smp_replay", inputs, result,
                                           reference, {})
    assert (attempted, failures) == (len(inputs["cells"]), [])

    perturbed = copy.deepcopy(reference)
    key = point_keys("smp_replay", inputs)[0]
    perturbed["points"][key]["speedup"] += 1e-9
    attempted, failures = check_repetition("smp_replay", inputs, result,
                                           perturbed, {})
    assert attempted == len(inputs["cells"])
    assert len(failures) == 1 and failures[0].startswith(key)


def test_broken_repetitions_fail_without_crashing():
    reference = load_reference()
    inputs = make_inputs("observed_mix", reference["recorded_seeds"][0])
    n = len(point_keys("observed_mix", inputs))
    crashed = {"error": "Traceback ...\nRuntimeError: boom\n"}
    assert len(check_repetition("observed_mix", inputs, crashed, reference,
                                {})[1]) == n
    warm = _fake_result("observed_mix", inputs, reference)
    warm["state"]["cache_hits"] = 1
    assert len(check_repetition("observed_mix", inputs, warm, reference,
                                {})[1]) == n
    raised = _fake_result("observed_mix", inputs, reference)
    raised["records"][0] = {"key": raised["records"][0]["key"],
                            "error": "ValueError: bad"}
    assert len(check_repetition("observed_mix", inputs, raised, reference,
                                {})[1]) == 1


def test_repetitions_must_agree():
    reference = {"points": {}, "traffic_invariants": {}}
    inputs = make_inputs("observed_mix", 5)
    first = _fake_result("observed_mix", inputs, load_reference())
    second = copy.deepcopy(first)
    second["records"][-1]["outputs"]["network.link.flits"] += 1
    seen = {}
    assert check_repetition("observed_mix", inputs, first, reference,
                            seen)[1] == []
    assert len(check_repetition("observed_mix", inputs, second, reference,
                                seen)[1]) == 1


def test_layer_self_times_sum_to_traced_wall():
    result = run.run_repetition("observed_mix", TINY_INPUTS, trace=True,
                                index=0, timeout=120)
    assert "error" not in result, result.get("error")
    self_times = [v for k, v in result["profile"].items()
                  if k.endswith(".self_s")]
    assert sum(self_times) == pytest.approx(result["process_wall_s"],
                                            rel=0.1)
    names = {s["name"] for s in result["spans"]}
    assert {"sweep", "point", "build", "replay", "measure"} <= names
    assert result["state"]["cache_misses"] == 2
    assert result["state"]["cache_hits"] == 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "observed_mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
