"""SERVICE — cold vs. prepared vs. batched query throughput.

The ROADMAP's north star is a system serving heavy traffic, and the service
layer exists to amortize per-query overhead: a cold client re-lexes, re-type-
checks and re-transforms every query text, while a prepared client compiles
once and late-binds parameter values, and a batching client hands the whole
workload over in one call.

This benchmark drives the parameterized paper workload
(:func:`repro.workloads.queries.parameterized_queries` — the running query
and its branches with their selectivity knobs as ``$parameters``) through
three clients at scales 1 and 4:

* ``cold``     — constants inlined into the text, ``QueryEngine.execute``
                 per query: parse + typecheck + transform + execute each time;
* ``prepared`` — ``QueryService.prepare`` once per text, ``execute`` with
                 bindings: the compile pipeline is paid once, and unchanged
                 data lets the prepared query reuse collection structures;
* ``batched``  — ``QueryService.execute_batch`` over the whole workload:
                 the prepared client's executions one after another under
                 one hold of the execution lock and one statistics reset.

The acceptance assertion pins the service-layer claim: prepared execution
reaches at least twice the cold throughput on this workload, with results
identical to cold execution for every query and binding.

A fourth client never repeats a text and prepares nothing: 500 texts of the
running query, each with constants of its own, through ``connection.cursor()``.
The plan cache keys a text on its shape, so they are one compilation — one
miss in ``cache_info()`` — and the median text is served at least 1.3x faster
than compiling it as written (``QueryEngine.run``), rows equal per text.
"""

from __future__ import annotations

import os
import random
import time
from statistics import median

import pytest

from repro import QueryEngine, build_university_database, connect
from repro.bench.report import print_report
from repro.workloads.queries import RUNNING_QUERY_PARAM_TEXT, parameterized_queries
from repro.workloads.queries import inline_parameters as _inline


def _workload() -> list[tuple[str, dict]]:
    return [
        (text, values)
        for _, (text, bindings) in sorted(parameterized_queries().items())
        for values in bindings
    ]


def _throughput(run_once, queries: int, seconds: float = 0.4) -> float:
    """Repeat ``run_once`` for ``seconds`` and return queries per second."""
    run_once()  # warm-up: fills plan and collection caches
    rounds = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        run_once()
        rounds += 1
    return rounds * queries / (time.perf_counter() - started)


def _measure(database) -> dict[str, float]:
    workload = _workload()
    engine = QueryEngine(database)
    service = connect(database).service
    cold_texts = [_inline(text, values) for text, values in workload]

    def cold():
        for text in cold_texts:
            engine.run(text)

    def prepared():
        for text, values in workload:
            service.execute(text, values)

    def batched():
        service.execute_batch(workload)

    return {
        "cold": _throughput(cold, len(workload)),
        "prepared": _throughput(prepared, len(workload)),
        "batched": _throughput(batched, len(workload)),
    }


def test_prepared_results_identical_to_cold(university_small, university_medium):
    """Prepared execution returns exactly the cold result, per query and binding."""
    for database in (university_small, university_medium):
        engine = QueryEngine(database)
        service = connect(database).service
        for name, (text, bindings) in parameterized_queries().items():
            prepared = service.prepare(text)
            for values in bindings:
                for _ in range(2):  # second run exercises the collection cache
                    got = prepared.execute(values).relation
                    expected = engine.run(_inline(text, values)).relation
                    assert got == expected, (name, values)


def test_prepared_at_least_twice_cold_throughput(university_medium):
    """The acceptance claim: prepared >= 2x cold queries/sec on the paper workload.

    Wall-clock ratios on loaded CI runners are noisy, so the claim passes if
    any of three measurement attempts reaches the bound (local runs show
    2.2-4.5x, far above it; three consecutive sub-2x attempts indicate a
    real regression, not noise).
    """
    if os.environ.get("BENCH_SMOKE"):
        pytest.skip("wall-clock ratio assertion is a full-run claim, not a smoke check")
    attempts = []
    for _ in range(3):
        rates = _measure(university_medium)
        attempts.append(rates)
        if rates["prepared"] >= 2 * rates["cold"]:
            return
    raise AssertionError(f"prepared < 2x cold in all attempts: {attempts}")


def _never_repeated_texts(count: int = 500, seed: int = 1982) -> list[str]:
    """The running query with fresh constants; ``e.enr <= k`` makes every text distinct."""
    rng = random.Random(seed)
    template = RUNNING_QUERY_PARAM_TEXT.replace("(e.estatus", "(e.enr <= $k) AND (e.estatus")
    return [
        _inline(template, {
            "k": k,
            "status": rng.choice(("student", "technician", "assistant", "professor")),
            "year": rng.randint(1970, 1982),
            "level": rng.choice(("freshman", "sophomore", "junior", "senior")),
        })
        for k in rng.sample(range(1, 10_000), count)
    ]


def _latencies(run_one, texts) -> list[float]:
    latencies = []
    for text in texts:
        started = time.perf_counter()
        run_one(text)
        latencies.append(time.perf_counter() - started)
    return latencies


def test_never_repeated_texts_share_one_plan(university_medium):
    """500 texts, one miss, each text's own rows — and >= 1.3x at the median."""
    texts = _never_repeated_texts()
    assert len(set(texts)) == len(texts)
    engine = QueryEngine(university_medium)
    with connect(university_medium) as connection:
        cursor = connection.cursor()
        for text in texts:
            rows = cursor.execute(text).fetchall()
            assert [r.values for r in rows] == [r.values for r in engine.run(text).rows], text
        info = connection.cache_info()
        assert (info["misses"], info["hits"], info["size"]) == (1, len(texts) - 1, 1), info
        if os.environ.get("BENCH_SMOKE"):
            return  # the wall-clock ratio is a full-run claim, not a smoke check
        attempts = []
        for attempt in range(3):
            fresh = _never_repeated_texts(seed=attempt)  # other constants, same shape
            shared = median(_latencies(lambda text: cursor.execute(text).fetchall(), fresh))
            as_written = median(_latencies(lambda text: engine.run(text).rows, fresh))
            attempts.append((shared, as_written))
            if as_written >= 1.3 * shared:
                break
        else:
            raise AssertionError(f"shared plan < 1.3x compile-as-written: {attempts}")
        assert connection.cache_info()["misses"] == 1


def test_report_service_throughput(university_small, university_medium):
    """Print the cold / prepared / batched throughput table at both scales."""
    lines = [f"{'scale':>7} {'cold q/s':>10} {'prepared':>10} {'batched':>10} {'prep/cold':>10}"]
    for label, database in (("1", university_small), ("4", university_medium)):
        rates = _measure(database)
        lines.append(
            f"{label:>7} {rates['cold']:>10.0f} {rates['prepared']:>10.0f} "
            f"{rates['batched']:>10.0f} {rates['prepared'] / rates['cold']:>10.2f}"
        )
    print_report("SERVICE — prepared-query service throughput", "\n".join(lines))


def test_timing_prepared_execution(benchmark, university_medium):
    """pytest-benchmark timing of one prepared parameterized execution."""
    service = connect(university_medium).service
    text, bindings = parameterized_queries()["running_query"]
    prepared = service.prepare(text)
    result = benchmark(lambda: prepared.execute(bindings[0]))
    assert len(result.relation) > 0


def test_timing_batched_workload(benchmark, university_medium):
    """pytest-benchmark timing of one whole batched workload round."""
    service = connect(university_medium).service
    workload = _workload()
    results = benchmark(lambda: service.execute_batch(workload))
    assert len(results) == len(workload)
