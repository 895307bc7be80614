"""Satellite regression: every counted algebra kernel feeds AccessStatistics.

PR 1 rewrote the hot kernels (``natural_join``/``project``/``union``/
``divide``/``semijoin``) to report ``comparisons`` and ``intermediates``
through the shared tracker; this audit extends the coverage to ``antijoin``,
``product``/``extend_product`` and ``theta_semijoin`` and pins the whole set
*by reflection*: the test discovers the counted kernels from their
signatures, so a kernel that silently loses its ``tracker`` parameter — or a
new kernel added without one — fails the audit rather than the benchmarks.
"""

from __future__ import annotations

import inspect

import pytest

from repro.relational import algebra
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema

#: Kernels that must accept a ``tracker`` and record intermediates and/or
#: comparisons.  ``build`` maps a kernel name to a zero-argument invocation
#: returning the kernel's result with a fresh tracker attached.
COUNTED_KERNELS = (
    "project",
    "natural_join",
    "union",
    "divide",
    "semijoin",
    "antijoin",
    "theta_semijoin",
    "product",
    "extend_product",
)


def make(name: str, fields: list[str], rows: list[tuple]) -> Relation:
    schema = RelationSchema(name, [(f, INTEGER) for f in fields])
    relation = Relation(name, schema)
    for row in rows:
        relation.insert(dict(zip(fields, row)))
    return relation


def _invoke(kernel_name: str, tracker: AccessStatistics):
    left = make("l", ["a", "b"], [(1, 10), (2, 20), (3, 10)])
    right_same = make("r", ["a", "b"], [(1, 10), (4, 40)])
    right_joinable = make("j", ["b", "c"], [(10, 7), (20, 8)])
    disjoint = make("d", ["x"], [(5,), (6,)])
    if kernel_name == "project":
        return algebra.project(left, ["b"], tracker=tracker)
    if kernel_name == "natural_join":
        return algebra.natural_join(left, right_joinable, tracker=tracker)
    if kernel_name == "union":
        return algebra.union(left, right_same, tracker=tracker)
    if kernel_name == "divide":
        divisor = make("req", ["b"], [(10,)])
        return algebra.divide(left, divisor, by=[("b", "b")], tracker=tracker)
    if kernel_name == "semijoin":
        return algebra.semijoin(left, right_joinable, on=[("b", "b")], tracker=tracker)
    if kernel_name == "antijoin":
        return algebra.antijoin(left, right_joinable, on=[("b", "b")], tracker=tracker)
    if kernel_name == "theta_semijoin":
        return algebra.theta_semijoin(
            left, right_joinable, on=[("b", "<=", "b")], tracker=tracker
        )
    if kernel_name == "product":
        return algebra.product(left, disjoint, tracker=tracker)
    if kernel_name == "extend_product":
        return algebra.extend_product(left, disjoint, tracker=tracker)
    raise AssertionError(f"no invocation recipe for kernel {kernel_name!r}")


class TestKernelCounterCoverage:
    @pytest.mark.parametrize("kernel_name", COUNTED_KERNELS)
    def test_kernel_signature_accepts_tracker(self, kernel_name):
        """Reflection: every counted kernel declares a ``tracker`` parameter."""
        kernel = getattr(algebra, kernel_name)
        signature = inspect.signature(kernel)
        assert "tracker" in signature.parameters, kernel_name
        parameter = signature.parameters["tracker"]
        assert parameter.default is None, f"{kernel_name}: tracker must default to None"

    @pytest.mark.parametrize("kernel_name", COUNTED_KERNELS)
    def test_kernel_feeds_counters(self, kernel_name):
        """Invoking the kernel with a tracker moves at least one counter."""
        tracker = AccessStatistics()
        result = _invoke(kernel_name, tracker)
        assert result is not None
        moved = tracker.comparisons + tracker.intermediate_tuples + tracker.intermediate_relations
        assert moved > 0, f"{kernel_name} recorded nothing"

    @pytest.mark.parametrize("kernel_name", COUNTED_KERNELS)
    def test_kernel_is_silent_without_tracker(self, kernel_name):
        """No tracker, no side channel: kernels never touch a global."""
        with_tracker = AccessStatistics()
        baseline = _invoke(kernel_name, None)
        counted = _invoke(kernel_name, with_tracker)
        assert baseline == counted  # tracker changes accounting, never results

    def test_divide_records_comparisons_and_intermediates(self):
        tracker = AccessStatistics()
        _invoke("divide", tracker)
        assert tracker.comparisons > 0
        assert tracker.intermediate_tuples >= 0
        assert tracker.intermediate_relations == 1

    def test_antijoin_records_intermediates(self):
        tracker = AccessStatistics()
        result = _invoke("antijoin", tracker)
        assert tracker.comparisons == 3  # one per left element
        assert tracker.intermediate_relations == 1
        assert tracker.intermediate_tuples == len(result)

    def test_extend_product_records_result_size(self):
        tracker = AccessStatistics()
        result = _invoke("extend_product", tracker)
        assert len(result) == 6  # 3 x 2
        assert tracker.intermediate_tuples == 6
        assert tracker.intermediate_relations == 1

    def test_reflective_scan_finds_no_uncounted_hot_kernel(self):
        """Every public relation-returning kernel with a hot-path role either
        takes a tracker or is explicitly exempt (pure restructuring helpers
        that the combination phase never calls on n-tuple relations)."""
        exempt = {"select", "rename", "theta_join", "join", "difference", "intersection"}
        for name in algebra.__all__:
            if name.startswith("stream_") or name == "distinct_values":
                continue
            if name == "Kernel" or name.endswith("_kernel"):
                continue  # the streaming kernels' prepared form: wired with a tracker
            kernel = getattr(algebra, name)
            if not callable(kernel):
                continue
            signature = inspect.signature(kernel)
            if name in exempt:
                continue
            assert "tracker" in signature.parameters, (
                f"kernel {name!r} is neither counted nor exempt"
            )
