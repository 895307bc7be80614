"""Footprint: what ``import repro`` loads, what a dropped database leaves —
and how many ways into the engine, exports and knobs there are.

The two memory checks run in a fresh interpreter — ``sys.modules`` and the
garbage collector's state in the test process are whatever earlier tests
made them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(script: str, cwd) -> str:
    environment = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=120, env=environment, cwd=cwd,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_import_repro_leaves_asyncio_ssl_executors_and_the_xml_parser_unloaded(tmp_path):
    out = _run(
        """
        import sys
        import repro
        heavy = ("asyncio", "ssl", "xml.etree.ElementTree", "concurrent.futures", "logging")
        print([name for name in heavy if name in sys.modules])
        # Data generation needs no executor either.
        database = repro.build_university_database(scale=1)
        print("concurrent.futures" in sys.modules)
        # Neither does the first join query through the front door: the
        # combination phase has one path and no executor behind it.
        from repro.workloads.queries import EXAMPLE_21_TEXT
        cursor = repro.connect(database).cursor()
        cursor.execute(EXAMPLE_21_TEXT).fetchall()
        executors = ("concurrent.futures", "multiprocessing", "logging")
        print(cursor.result.combination is not None, [n for n in executors if n in sys.modules])
        print(all(hasattr(repro, name) for name in repro.__all__))
        # An ingest still finds its parser.
        database = repro.bibliography_database()
        report = repro.load_dblp_xml(
            "<dblp><article key='a/1'><author>A. Author</author>"
            "<title>T</title><year>1982</year><journal>J</journal></article></dblp>",
            database,
        )
        print(report.records)
        """,
        tmp_path,
    )
    assert out.splitlines() == ["[]", "False", "True []", "True", "1"]


def test_a_dropped_database_is_reclaimed_without_the_cycle_collector(tmp_path):
    out = _run(
        """
        import gc
        import weakref
        import repro

        gc.collect()
        gc.disable()
        database = repro.build_university_database(scale=2)
        database.create_index("employees", "enr", operator="=")
        connection = repro.connect(database)
        cursor = connection.cursor()
        point = "[<e.enr, e.ename> OF EACH e IN employees: (e.enr = $enr)]"
        for enr in (3, 4):
            assert len(cursor.execute(point, {"enr": enr}).fetchall()) == 1
        assert cursor.statistics["index_probes"] == 1
        with connection.session() as session:
            database.relation("papers").clear()
            session.rollback()
        alive = [weakref.ref(database), weakref.ref(database.relation("employees")),
                 weakref.ref(database.index_for("employees", "enr"))]
        cursor.close()
        connection.close()
        del database, connection, cursor, session
        print([ref() is None for ref in alive])
        """,
        tmp_path,
    )
    assert out.strip() == "[True, True, True]"


#: The public callables of the five classes a query passes through, spelled
#: out: a new way in — a second executor, a streaming twin, a legacy shim —
#: has to be added here, in plain sight (DESIGN.md, "One execute").
PUBLIC_CALLABLES = {
    "QueryEngine": {"parse", "prepare", "run", "execute_plan", "explain"},
    "QueryService": {
        "derive", "prepare", "execute", "start", "execute_batch",
        "invalidate_plans", "cache_info",
    },
    "PreparedQuery": {
        "for_text", "access_paths", "is_parameterized", "is_stale", "ensure_fresh",
        "bind", "execute", "start",
    },
    "Connection": {
        "cache_info", "checkpoint", "cursor", "execute", "executemany", "prepare",
        "session", "close",
    },
    "Cursor": {"execute", "executemany", "fetchone", "fetchmany", "fetchall", "close"},
}


def test_the_execution_surface_is_what_it_is_pinned_to_be():
    import repro
    from repro.service import PreparedQuery

    classes = {
        "QueryEngine": repro.QueryEngine,
        "QueryService": repro.QueryService,
        "PreparedQuery": PreparedQuery,
        "Connection": repro.Connection,
        "Cursor": repro.Cursor,
    }
    surface = {
        name: {
            attribute
            for attribute in dir(cls)
            if not attribute.startswith("_") and callable(getattr(cls, attribute))
        }
        for name, cls in classes.items()
    }
    assert surface == PUBLIC_CALLABLES
    assert not hasattr(repro.api, "default_connection")


#: What the logic and storage packages export, spelled out: each of Lemma 1,
#: the conjunction separation and the Figure 2 structures has one
#: implementation, the one the engine runs, and a second one has to be added
#: here, in plain sight.  The histogram module holds the join-order
#: estimator's per-execution sketches only; maintained table statistics
#: would have to come back through here.
PINNED_EXPORTS = {
    "repro.relational.histogram": {
        "HISTOGRAM_BUCKETS", "HOT_KEYS", "Bucket", "ColumnSketch", "estimate_join",
        "stable_hash",
    },
    "repro.transform": {
        "DerivedPredicate", "EmptyRangeAdaptation", "PushdownResult", "PushdownStep",
        "QueryPlan", "RangeExtensionResult", "StandardForm", "TraceStep",
        "TransformationTrace", "adapt_formula", "adapt_selection", "conjoin",
        "conjunction_literals", "disjoin", "extend_ranges", "fresh_variable",
        "map_formula", "plan_pushdowns", "prepare_query", "rename_variable", "simplify",
        "to_disjunctive_normal_form", "to_negation_normal_form", "to_prenex_normal_form",
        "to_standard_form",
    },
    "repro.relational": {
        "AccessStatistics", "COLLECTION", "COMBINATION", "CONSTRUCTION", "Database",
        "HashIndex", "Record", "Ref", "ReferenceType", "Relation", "SortedIndex",
        "ValueList", "build_index", "ref_field_name", "stream_divide",
        "stream_natural_join", "stream_project", "stream_semijoin", "stream_union",
    },
    "repro.calculus": {
        "ALL", "And", "BoolConst", "Comparison", "Const", "FALSE", "FieldRef", "Formula",
        "Not", "Or", "OutputColumn", "Param", "Quantified", "QuantifierSpec", "RangeExpr",
        "SOME", "Selection", "TRUE", "TypeChecker", "VariableBinding", "check_selection",
        "conjunctions_of", "format_formula", "format_range", "format_selection",
        "free_variables_of", "is_dnf_matrix", "is_quantifier_free", "literals_of",
        "quantifier_prefix", "resolve_selection",
    },
}


def test_the_package_exports_are_what_they_are_pinned_to_be():
    import importlib

    for name, pinned in PINNED_EXPORTS.items():
        module = importlib.import_module(name)
        assert set(module.__all__) == pinned, name
        assert len(module.__all__) == len(pinned), f"{name} exports a name twice"
        assert all(hasattr(module, export) for export in module.__all__), name


def test_the_knobs_are_what_they_are_pinned_to_be():
    """Every option field, the values a policy field takes, and the keyword
    arguments of the front door and the generators: a second spelling of a
    setting has to be added here."""
    import dataclasses
    import inspect
    import typing

    import repro

    def fields(cls):
        return {field.name for field in dataclasses.fields(cls)}

    def parameters(function):
        return set(inspect.signature(function).parameters) - {"self"}

    assert fields(repro.ServiceOptions) == {
        "plan_cache_capacity", "collection_cache_size", "busy_timeout",
    }
    assert fields(repro.StrategyOptions) == {
        "parallel_collection", "one_step_nested", "extended_ranges",
        "collection_phase_quantifiers", "general_range_extensions",
        "separate_existential_conjunctions", "use_index_paths",
        "join_order", "semijoin_reduction", "plan",
    }
    policies = typing.get_type_hints(repro.StrategyOptions)
    assert typing.get_args(policies["join_order"]) == ("written", "uniform", "histogram")
    assert typing.get_args(policies["plan"]) == ("streamed", "literal")
    front_door = {"database", "options", "service_options", "durability"}
    assert parameters(repro.connect) == front_door
    assert parameters(repro.Connection) == front_door
    assert parameters(repro.QueryService) == {
        "database", "options", "service_options", "engine", "cache",
    }
    generator = {"scale", "profile", "seed", "name", "paged"}
    assert parameters(repro.build_university_database) == generator
    assert parameters(repro.build_bibliography_database) == generator
