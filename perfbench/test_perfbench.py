"""Tests of the benchmark itself; none of them starts a process.

Run from the repository root: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", sorted(workloads.MENUS))
def test_same_seed_same_commands(workload):
    assert workloads.schedule(workload, 7, 3) == workloads.schedule(workload, 7, 3)
    assert len({str(workloads.schedule(workload, seed, 2)) for seed in range(10)}) > 1


@pytest.mark.parametrize("workload", sorted(workloads.MENUS))
def test_bag_draws_every_menu_entry_equally(workload):
    for seed in range(5):
        drawn = Counter(c for p in workloads.schedule(workload, seed, 1)[0] for c in p)
        for slot in workloads.MENUS[workload]:
            share = workloads.bag_size(workload) // len(slot)
            assert all(drawn[c] == share for c in slot)


def test_every_menu_point_has_a_reference():
    references = run.load_references()
    for command in workloads.all_commands():
        assert workloads.reference_key(command) in references, command


def test_both_q_routes_share_one_reference():
    keys = {
        workloads.reference_key(c)
        for name in ("series", "qpart")
        for c in workloads.menu_commands(name)
    }
    assert keys >= {f"q --d {d} --delta 5" for d in (9, 10, 11)}
    log = {workloads.reference_key(c) for c in workloads.menu_commands("series") if c[0] == "q"}
    parts = {workloads.reference_key(c) for c in workloads.menu_commands("qpart")}
    assert log == parts


def test_metric_names_and_benchmark_file_agree():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_METRICS
    layer = run.per_layer_metrics(run.load_references())
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layer
    assert all(NAME.fullmatch(n) for n in layer)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.MENUS)


def test_no_workload_asks_for_more_jobs_than_cpus():
    cpus = os.cpu_count() or 1
    for command in workloads.all_commands():
        jobs = int(command[command.index("--jobs") + 1]) if "--jobs" in command else 1
        assert jobs <= cpus, command


def test_verify_timings_do_not_count_as_output():
    a = json.dumps([{"name": "x", "passed": True, "detail": "d", "seconds": 0.1}])
    b = json.dumps([{"name": "x", "passed": True, "detail": "d", "seconds": 0.2}])
    command = ("verify", "--level", "quick", "--json")
    assert run.canonical_output(command, a) == run.canonical_output(command, b)


def test_self_time_subtracts_children():
    rec = tracer.Recorder()
    outer = rec.enter("a.outer")
    inner = rec.enter("b.inner")
    rec.leave(inner)
    rec.leave(outer)
    rec.starts[:] = [0.0, 1.0]
    rec.ends[:] = [5.0, 3.0]
    assert rec.self_times() == {"a.outer": 3.0, "b.inner": 2.0}
