"""Satellite regression: every counted algebra kernel feeds AccessStatistics.

The hot kernels (natural join, union, division, semijoin) report
``comparisons`` through the shared tracker; this audit pins the whole set
*by reflection*: the test discovers the counted kernels from their
signatures, so a kernel that silently loses its ``tracker`` parameter — or a
new kernel added without one — fails the audit rather than the benchmarks.
What counts as an intermediate relation is the combination phase's call
(its literal plan measures operator outputs), never a kernel's.
"""

from __future__ import annotations

import inspect

import pytest

from repro.engine.stream import RowStream
from repro.relational import algebra
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema

#: Kernels that must accept a ``tracker`` and record comparisons.
COUNTED_KERNELS = (
    "stream_natural_join",
    "stream_union",
    "stream_divide",
    "stream_semijoin",
)


def make(name: str, fields: list[str], rows: list[tuple]) -> Relation:
    schema = RelationSchema(name, [(f, INTEGER) for f in fields])
    relation = Relation(name, schema)
    for row in rows:
        relation.insert(dict(zip(fields, row)))
    return relation


def _invoke(kernel_name: str, tracker: AccessStatistics | None) -> Relation:
    left = RowStream.from_relation(make("l", ["a", "b"], [(1, 10), (2, 20), (3, 10)]))
    right_same = make("r", ["a", "b"], [(1, 10), (4, 40)])
    right_joinable = make("j", ["b", "c"], [(10, 7), (20, 8)])
    disjoint = make("d", ["x"], [(5,), (6,)])
    if kernel_name == "stream_natural_join":
        stream = algebra.stream_natural_join(left, right_joinable, tracker=tracker)
    elif kernel_name == "stream_union":
        stream = algebra.stream_union((left, RowStream.from_relation(right_same)), tracker=tracker)
    elif kernel_name == "stream_divide":
        divisor = make("req", ["b"], [(10,)])
        stream = algebra.stream_divide(left, divisor, by=[("b", "b")], tracker=tracker)
    elif kernel_name == "stream_semijoin":
        stream = algebra.stream_semijoin(left, right_joinable, on=[("b", "b")], tracker=tracker)
    elif kernel_name == "product":
        stream = algebra.stream_natural_join(left, disjoint, tracker=tracker)
    else:
        raise AssertionError(f"no invocation recipe for kernel {kernel_name!r}")
    return stream.materialize()


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
        """Invoking the kernel with a tracker moves the comparison counter."""
        tracker = AccessStatistics()
        result = _invoke(kernel_name, tracker)
        assert result is not None
        assert tracker.comparisons > 0, f"{kernel_name} recorded nothing"

    @pytest.mark.parametrize("kernel_name", COUNTED_KERNELS)
    def test_kernel_is_silent_without_tracker(self, kernel_name):
        """No tracker, no side channel: kernels never touch a global."""
        with_tracker = AccessStatistics()
        baseline = _invoke(kernel_name, None)
        counted = _invoke(kernel_name, with_tracker)
        assert baseline == counted  # tracker changes accounting, never results

    def test_divide_records_comparisons_and_no_intermediates(self):
        tracker = AccessStatistics()
        _invoke("stream_divide", tracker)
        assert tracker.comparisons == 3 + 3 * 1  # one per row, one per group and divisor value
        assert tracker.intermediate_relations == 0

    def test_product_counts_probes_and_matches(self):
        tracker = AccessStatistics()
        result = _invoke("product", tracker)
        assert len(result) == 6  # 3 x 2
        assert tracker.comparisons == 3 + 6

    def test_reflective_scan_finds_no_uncounted_hot_kernel(self):
        """Every public streaming operator either takes a tracker or is
        explicitly exempt (a projection compares nothing: its dedup state is
        reported to ``live``)."""
        exempt = {"stream_project"}
        for name in algebra.__all__:
            if name == "Kernel" or name.endswith("_kernel"):
                continue  # the prepared form: wired with a tracker
            signature = inspect.signature(getattr(algebra, name))
            if name in exempt:
                continue
            assert "tracker" in signature.parameters, (
                f"kernel {name!r} is neither counted nor exempt"
            )
