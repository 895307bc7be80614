"""The prepared-query service layer.

The paper separates query processing into compile-time transformations
(standard form, Lemma 1, Strategies 3-4 — Sections 2-4) and run-time
evaluation (collection / combination / construction — Section 3.3).  This
package exploits that separation operationally:

* :class:`PreparedQuery` — compile once (parse, type check, transform),
  execute many times with different parameter bindings (``$year``-style
  placeholders, late-bound into the plan);
* :class:`PlanCache` — an LRU cache of compiled plans keyed on the query's
  shape (its lexemes with the constants lifted out: texts that differ only
  in constants share a plan), strategy options and schema version, hits
  validated against the relation-emptiness signature, with hit/miss
  counters in the statistics of the execution a lookup serves;
* :class:`QueryService` — the thread-safe ``prepare`` / ``execute`` /
  ``execute_batch`` facade; every execution reads a pinned snapshot, and a
  batch is one request after another through the per-binding memos.
"""

from repro.service.binding import bind_plan, bind_selection, check_bindings, collect_parameters
from repro.service.cache import PlanCache
from repro.service.prepared import PreparedQuery
from repro.service.service import QueryService

__all__ = [
    "PlanCache",
    "PreparedQuery",
    "QueryService",
    "bind_plan",
    "bind_selection",
    "check_bindings",
    "collect_parameters",
]
