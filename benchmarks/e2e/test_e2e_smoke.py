"""Smoke test of the end-to-end benchmark (collected by ``pytest benchmarks``).

Runs every workload at ``--smoke`` size, traced and untraced, and checks the
contract of ``BENCHMARK.json``: every named workload and metric is emitted
with its unit, the operation streams are functions of the seed, a wrong
reference answer is counted as a failed op, the staged replay agrees with
the cursor, and the plain-Python reference answers agree with
``execute_naive``.
"""

from __future__ import annotations

import json
import re
import statistics

import pytest

import compare
import run
from oracle import BibliographyOracle, UniversityOracle, plain_result
from workloads import WORKLOADS, AdhocPaper, DurableWrites, PointLookup

import repro
from repro.workloads.bibliography import BibliographyProfile, build_bibliography_database
from repro.workloads.bibliography import queries as citation_queries
from repro.workloads.queries import inline_parameters, parameterized_queries

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric_and_checks_its_answers(name, capsys):
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed=5, seconds=0.3, trace=trace, smoke=True)
        assert result["errors"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        run.emit(name, result, SPEC, trace, full=False)
        printed = last_json(capsys)
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert list(printed["metrics"]) == [m["name"] for m in SPEC[group]]
        for metric in SPEC[group]:
            assert printed["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert all(m["value"] > 0 for m in printed["metrics"].values())
        else:
            # The traced half replayed every read stage by stage; a replay
            # whose rows differ from the cursor's would have counted as failed.
            assert result["info"]["spans"] > 0
            assert printed["metrics"]["trace_overhead_ratio"]["value"] > 0
        # Durability metrics come from the workload that has a durable log, and only it.
        durable = {"lost_acked_commits", "recovery_s", "stored_bytes_per_user_byte",
                   "storage.checkpoint_ms", "storage.fsync_wait_ms"}
        if name == "durable_writes":
            assert durable <= set(result["metrics"])
            assert result["metrics"]["lost_acked_commits"]["value"] == 0
            # Checkpoints happened in line, inside timed ops.
            assert result["metrics"]["storage.checkpoint_ms"]["samples"] >= 1
            assert result["metrics"]["stored_bytes_per_user_byte"]["value"] > 1
        else:
            assert not durable & set(result["metrics"])
    # Everything a run computes has a unit in BENCHMARK.json (emit looked each up).


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_operation_stream_is_a_function_of_the_seed(name, tmp_path):
    def digest(seed):
        workload = WORKLOADS[name](seed, str(tmp_path), smoke=True)
        workload.setup()
        try:
            return workload.stream_hash()
        finally:
            workload.close()

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_wrong_reference_answer_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(PointLookup, "expected", lambda self, answer: frozenset({("nobody",)}))
    result = run.run_workload("point_lookup", seed=5, seconds=0.1, trace=False, smoke=True)
    assert not result["correct"]
    assert result["metrics"]["failed_op_share"]["value"] > 0
    assert result["failed"] == result["attempted"]


def test_durable_writes_leaves_the_device_out_of_every_other_untraced_block(tmp_path):
    import os

    fsync = os.fsync
    workload = DurableWrites(5, str(tmp_path), smoke=True)
    workload.setup()
    try:
        assert os.fsync is workload.sync_wait
        synced, unsynced = run.run_phase(workload, 0.0, 0, [None, None])
        # Lane by lane a recorder's first block syncs; its second would not.
        assert sorted(synced.series["fsync_wait"])[workload.block_ops // 2] > 0  # rollbacks: 0
        assert not synced.series["op_unsynced"] and not unsynced.series["op_unsynced"]
        workload.run_block(workload.block(2), synced, None)
        synced.end_block(pace=1.25)
        assert len(synced.series["op_unsynced"]) == workload.block_ops
        assert len(synced.series["fsync_wait"]) == len(synced.series["op"]) == workload.block_ops
        assert not workload.sync_wait.skip
        # The calm figures come from the unsynced block, scaled by its pace.
        assert [name for name, _, _ in synced.paced_blocks] == ["op", "op_unsynced"]
        calm = run.end_to_end(synced, [1.0])["calm_op_p50_ms"][0]
        assert calm == pytest.approx(1e3 * statistics.median(synced.series["op_unsynced"]) / 1.25)
        assert workload.finish(synced)["lost_acked_commits"][0] == 0
    finally:
        workload.close()
    assert os.fsync is fsync


def test_compare_gates_tails_exact_counts_and_must_be_zero_metrics():
    def document(**metrics):
        return {"runs": [{w["name"]: {"metrics": {k: {"value": v} for k, v in metrics.items()}}
                          for w in SPEC["workloads"]}]}

    base = dict({m["name"]: 10.0 for m in SPEC["end_to_end"]}, ops_per_s=100.0, op_p99_ms=5.0,
                stored_bytes_per_user_byte=11.0, lost_acked_commits=0, failed_op_share=0.0)
    quiet = {}  # no recorded spread
    assert not compare.compare(document(**base), document(**base), SPEC, quiet)[1]
    for change in ({"op_p99_ms": 7.0}, {"stored_bytes_per_user_byte": 11.2},
                   {"lost_acked_commits": 1}, {"failed_op_share": 0.01}, {"ops_per_s": 70.0},
                   {"calm_op_p50_ms": 15.0}):
        lines, bad = compare.compare(document(**base), document(**{**base, **change}), SPEC, quiet)
        assert bad and any("worse" in line and next(iter(change)) in line for line in lines)
    # A spread wider than the bound is reported as unresolved, not as a regression.
    noisy = {w["name"]: {"op_p99_ms": {"spread": 0.4}} for w in SPEC["workloads"]}
    lines, bad = compare.compare(document(**base), document(**{**base, "op_p99_ms": 7.0}), SPEC, noisy)
    assert not bad and any("unresolved" in line for line in lines)


def naive_rows(database, text, binding=None) -> frozenset:
    relation = repro.execute_naive(database, inline_parameters(text, binding or {}))
    return frozenset(plain_result(relation))


def test_university_reference_answers_equal_the_naive_interpreter():
    database = repro.build_university_database(scale=2, seed=11)
    oracle = UniversityOracle.of(database)
    for name, (text, bindings) in parameterized_queries().items():
        for binding in bindings:
            assert getattr(oracle, name)(*binding.values()) == naive_rows(database, text, binding)
    assert oracle.point(3) == naive_rows(database, PointLookup.POINT, {"enr": 3})
    assert oracle.papers_until(1975) == naive_rows(database, PointLookup.RANGE, {"year": 1975})
    # Every ad-hoc template, with a selective and a vacuous ``e.enr <= k``.
    employees = len(database.relation("employees"))
    constants = {"status": "professor", "year": 1977, "level": "sophomore"}
    for _, _, text, used, method in AdhocPaper.TEMPLATES:
        for k in (5, 500):
            args = tuple(constants[name] for name in used) + (k if k < employees else None,)
            assert getattr(oracle, method)(*args) == naive_rows(
                database, text.format(k=k, **constants)), method


def test_bibliography_reference_answers_equal_the_naive_interpreter():
    # Small enough for the naive interpreter's four-deep nested loops.
    database = build_bibliography_database(
        profile=BibliographyProfile(authors=8, venues=2, papers=7), seed=11)
    papers = database.relation("papers")
    for pnr in (6, 7):  # make two citing papers "recent" so cocitation has answers
        record = papers.find((pnr,))
        papers.delete_key((pnr,))
        papers.insert(record.replace(pyear=2020))
    oracle = BibliographyOracle.of(database)
    answers = 0
    for name in citation_queries.bibliography_named_queries():
        text = getattr(citation_queries, name.upper() + "_TEXT")
        expected = naive_rows(database, text)
        assert getattr(oracle, name)() == expected, name
        answers += len(expected)
    for name, (text, bindings) in citation_queries.bibliography_parameterized_queries().items():
        for binding in bindings:
            expected = naive_rows(database, text, binding)
            assert getattr(oracle, name)(*binding.values()) == expected, name
            answers += len(expected)
    assert answers > 20  # the check is not vacuous
