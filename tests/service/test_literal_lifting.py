"""Texts that differ only in their constants share one compiled plan.

The plan cache keys a text on its *shape* — the lexemes with every constant
operand lifted to a positional parameter — and the handle ``prepare`` returns
binds the text's own constants (DESIGN.md, "The key is the shape").  The
shared plan sees parameters where compile-as-written sees constants (Strategy
3 moves them into ranges, ``simplify`` can no longer merge conjuncts that
carry equal ones), so this module pins, for all sixteen on/off combinations
of S1-S4 and for ``StrategyOptions.none()``:

* the same rows **in the same order** through the connection cursor, a
  session cursor, ``executemany`` and ``QueryEngine.run`` (which compiles the
  text as written and is the reference), and equality with the naive
  interpreter where it can afford the query;
* the cache accounting (what shares an entry and what does not), staleness,
  ``plan_cache_capacity=0``, error parity with compile-as-written, ``$names``
  beside literals, and threads.

CI also runs this module under two fixed ``PYTHONHASHSEED`` values: row order
must not depend on how shape keys hash.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest

from repro import QueryEngine, StrategyOptions, connect, execute_naive
from repro.config import ServiceOptions
from repro.errors import BindingError, PascalRError, PlanError, TypeCheckError
from repro.workloads import queries as university_queries
from repro.workloads.bibliography import (
    BibliographyProfile,
    build_bibliography_database,
)
from repro.workloads.bibliography import queries as citation_queries
from repro.workloads.queries import inline_parameters, parameterized_queries
from repro.workloads.university import build_university_database

S1_TO_S4 = (
    "parallel_collection",
    "one_step_nested",
    "extended_ranges",
    "collection_phase_quantifiers",
)

CONFIGS = {
    "+".join(f"s{i + 1}" for i, on in enumerate(flags) if on) or "s-none": StrategyOptions().with_(
        **dict(zip(S1_TO_S4, flags))
    )
    for flags in itertools.product((False, True), repeat=4)
}
CONFIGS["none"] = StrategyOptions.none()

STATUSES = ("student", "technician", "assistant", "professor")
LEVELS = ("freshman", "sophomore", "junior", "senior")
TEMPLATE_LABELS = (
    "running_query", "all_branch", "some_branch", "others_published", "publishing_teachers",
)
CONSTANT_SETS = 50

#: Citation queries the naive interpreter can afford (the others enumerate a
#: range product exponential in their quantifier depth).
NAIVE_AFFORDS = {"COAUTHOR_PAIRS_TEXT", "WELL_CITED_VENUES_TEXT", "SELF_CITERS_TEXT", "COCITATION_TEXT"}


def _texts(module) -> dict[str, str]:
    return {
        name: getattr(module, name)
        for name in module.__all__
        if isinstance(getattr(module, name), str) and "PARAM" not in name
    }


def _values(rows) -> list[tuple]:
    return [record.values for record in rows]


_NAIVE: dict[tuple, list[tuple]] = {}


def _naive(database, text) -> list[tuple]:
    """The naive interpreter's rows, sorted; once per text (it is the slow side)."""
    key = (id(database), text)
    if key not in _NAIVE:
        _NAIVE[key] = sorted(_values(execute_naive(database, text)))
    return _NAIVE[key]


@pytest.fixture(scope="module")
def university():
    return build_university_database(scale=1)


@pytest.fixture(scope="module")
def bibliography():
    """Small enough for every configuration, the unoptimized one included."""
    profile = BibliographyProfile(authors=12, venues=3, papers=8, out_degrees=(2, 3))
    return build_bibliography_database(profile=profile)


def _assert_every_path_agrees(connection, database, options, text, naive=True):
    """Cursor, session cursor and ``executemany`` against compile-as-written."""
    expected = _values(QueryEngine(database, options).run(text).rows)
    assert _values(connection.cursor().execute(text).fetchall()) == expected, text
    with connection.session() as session:
        assert _values(session.cursor().execute(text).fetchall()) == expected, text
    assert _values(connection.cursor().executemany(text, [None]).fetchall()) == expected, text
    if naive:
        assert sorted(expected) == _naive(database, text), text


# ------------------------------------------------------------------ the matrix


@pytest.mark.parametrize("config", sorted(CONFIGS))
class TestLiftedEqualsInlined:
    def test_university_library(self, university, config):
        options = CONFIGS[config]
        with connect(university, options=options) as connection:
            for text in _texts(university_queries).values():
                _assert_every_path_agrees(connection, university, options, text)

    def test_citation_library(self, bibliography, config):
        options = CONFIGS[config]
        with connect(bibliography, options=options) as connection:
            for name, text in _texts(citation_queries).items():
                _assert_every_path_agrees(
                    connection, bibliography, options, text, naive=name in NAIVE_AFFORDS
                )

    def test_parameterized_library_with_constants_inlined(self, university, config):
        """A cold client's view of the ``$name`` workload: one shape per query."""
        options = CONFIGS[config]
        with connect(university, options=options) as connection:
            for text, bindings in parameterized_queries().values():
                before = connection.cache_info()["misses"]
                for values in bindings:
                    _assert_every_path_agrees(
                        connection, university, options, inline_parameters(text, values)
                    )
                assert connection.cache_info()["misses"] == before + 1

    @pytest.mark.parametrize("label", TEMPLATE_LABELS)
    def test_benchmark_template_with_seeded_constants(
        self, university, adhoc_paper_templates, config, label
    ):
        """The texts ``adhoc_paper`` sends: fifty constant sets, one compilation.

        ``k`` runs past the employee numbers on purpose (the restriction then
        keeps everybody) and the years include ones no paper has (an emptied
        restricted range: the Strategy 3 runtime fallback on the shared plan).
        """
        options = CONFIGS[config]
        template = adhoc_paper_templates[label]
        rng = random.Random(label)  # the same texts under every configuration
        engine = QueryEngine(university, options)
        with connect(university, options=options) as connection:
            cursor = connection.cursor()
            with connection.session() as session:
                session_cursor = session.cursor()
                for _ in range(CONSTANT_SETS):
                    text = template.format(
                        k=rng.choice((rng.randint(1, 12), rng.randint(1, 9999))),
                        status=rng.choice(STATUSES),
                        year=rng.choice((1900, 1999, rng.randint(1970, 1982))),
                        level=rng.choice(LEVELS),
                    )
                    expected = _values(engine.run(text).rows)
                    assert _values(cursor.execute(text).fetchall()) == expected, text
                    assert _values(session_cursor.execute(text).fetchall()) == expected, text
                    assert _values(cursor.executemany(text, [None]).fetchall()) == expected
                    assert sorted(expected) == _naive(university, text)
            info = connection.cache_info()
            assert (info["misses"], info["size"]) == (1, 1), info


# ------------------------------------------------------------- cache accounting

BASE = "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (e.enr <= 20)]"


def _count(text: str, other: str, database) -> dict:
    with connect(database) as connection:
        for query in (text, other):
            connection.cursor().execute(query).fetchall()
        return connection.cache_info()


class TestWhatSharesAnEntry:
    def test_texts_differing_only_in_constants_are_one_miss_one_hit_one_entry(self, figure1):
        other = "[<e.ename> OF EACH e IN employees: (e.estatus = student) AND (e.enr <= 7)]"
        info = _count(BASE, other, figure1)
        assert (info["misses"], info["hits"], info["size"]) == (1, 1, 1)

    def test_trivia_and_keyword_case_still_do_not_matter(self, figure1):
        other = (
            "[ <e.ename> of each e IN employees : {the same shape}\n"
            "   (e.estatus=assistant)and(* 7 *)(e.enr<=3) ]"
        )
        info = _count(BASE, other, figure1)
        assert (info["misses"], info["hits"], info["size"]) == (1, 1, 1)

    @pytest.mark.parametrize(
        "other",
        [
            BASE.replace("<= 20", "< 20"),                      # an operator
            BASE.replace("e.enr <=", "e.estatus <="),           # a component (ill-typed too)
            BASE.replace("e.ename>", "e.enr>"),                 # a result component
            BASE.replace("(e.enr <= 20)", "SOME p IN papers ((p.penr = e.enr))"),
            BASE.replace("= professor", "= 'professor'"),       # label vs string
            BASE.replace("<= 20", "<= $k"),                     # constant vs parameter
        ],
        ids=["operator", "component", "column", "quantifier", "label-vs-string", "parameter"],
    )
    def test_texts_differing_in_structure_are_two_entries(self, figure1, other):
        with connect(figure1) as connection:
            first = connection.prepare(BASE)
            try:
                second = connection.prepare(other)
            except PascalRError:
                second = None
            assert second is not first
            assert connection.cache_info()["hits"] == 0
            assert connection.prepare(BASE) is first

    def test_number_versus_label_are_two_shapes(self, figure1):
        number = "[<e.ename> OF EACH e IN employees: (e.enr = 5)]"
        label = "[<e.ename> OF EACH e IN employees: (e.enr = five)]"
        with connect(figure1) as connection:
            connection.prepare(number)
            with pytest.raises(TypeCheckError, match="'five'"):
                connection.prepare(label)
            info = connection.cache_info()
            assert info["hits"] == 0 and info["size"] == 2  # both shapes compile; one text fits

    def test_a_repeated_text_gets_the_handle_it_got_before(self, figure1):
        with connect(figure1) as connection:
            first = connection.prepare(BASE)
            assert connection.prepare(BASE) is first
            assert connection.prepare(BASE.replace("AND", "\n and ")) is first
            other = connection.prepare(BASE.replace("20", "21"))
            assert other is not first
            assert connection.cache_info()["size"] == 1

    def test_selection_objects_are_not_lifted(self, figure1):
        from repro.lang.parser import parse_selection

        with connect(figure1) as connection:
            by_object = connection.prepare(parse_selection(BASE))
            by_text = connection.prepare(BASE)
            assert by_object is not by_text
            assert connection.cache_info()["size"] == 2
            assert by_object.execute().relation == by_text.execute().relation


class TestStalenessRecompilesTheShapeOnce:
    TEXTS = [
        "[<e.ename> OF EACH e IN employees: ALL p IN papers ((p.pyear <> %d) OR (e.enr <> p.penr))]"
        % year
        for year in (1975, 1976, 1977, 1978)
    ]

    def test_an_emptiness_flip_of_a_referenced_relation(self):
        database = build_university_database(scale=1)
        with connect(database) as connection:
            cursor = connection.cursor()
            cursor.execute(self.TEXTS[0]).fetchall()
            papers = database.relation("papers")
            saved = list(papers.elements())
            papers.assign([])
            for text in self.TEXTS:
                rows = cursor.execute(text).fetchall()
                assert len(rows) == len(database.relation("employees"))  # ALL over nothing
            info = connection.cache_info()
            assert (info["misses"], info["size"]) == (2, 1), info
            assert "empty-relation adaptation" in connection.prepare(self.TEXTS[1]).trace.names()
            papers.assign(saved)
            for text in self.TEXTS:
                assert cursor.execute(text).fetchall() is not None
                assert cursor.result.relation == execute_naive(database, text)
            assert connection.cache_info()["misses"] == 3

    def test_a_catalog_change(self):
        database = build_university_database(scale=1)
        with connect(database) as connection:
            held = connection.prepare(self.TEXTS[0])
            database.create_index("papers", "pyear", operator="=")
            assert held.is_stale()
            with pytest.raises(PlanError):
                held.execute()
            for text in self.TEXTS:
                connection.cursor().execute(text).fetchall()
            info = connection.cache_info()
            assert (info["misses"], info["size"]) == (2, 1), info


class TestCapacityZeroSharesNothing:
    def test_every_text_compiles_and_answers_right(self, figure1):
        texts = [BASE.replace("20", str(k)) for k in (3, 5, 8)]
        with connect(figure1, service_options=ServiceOptions(plan_cache_capacity=0)) as connection:
            for text in texts + texts:
                cursor = connection.cursor().execute(text)
                cursor.fetchall()
                assert cursor.result.relation == execute_naive(figure1, text)
            info = connection.cache_info()
            assert (info["misses"], info["hits"], info["size"]) == (6, 0, 0)
            first, second = connection.prepare(texts[0]), connection.prepare(texts[0])
            assert first is not second and first.text == second.text == texts[0]


# ------------------------------------------------------------------ error parity


def _error_as_written(database, text):
    with pytest.raises(PascalRError) as excinfo:
        QueryEngine(database).run(text)
    return excinfo.value


class TestErrorParityWithCompileAsWritten:
    ERRONEOUS = [
        "[<e.ename> OF EACH e IN employees: (e.enr <= 10002)]",        # outside the subrange
        "[<e.ename> OF EACH e IN employees: (e.estatus = dean)]",      # no such label
        "[<e.ename> OF EACH e IN employees: (e.estatus = 3)]",         # a number for a label
        "[<e.ename> OF EACH e IN employees: (e.ename = 'a name far too long for the array')]",
        "[<e.ename> OF EACH e IN employees: (1 = 1)]",                 # no component access
        "[<e.ename> OF EACH e IN employees: (professor = 1977)]",
        "[<e.ename> OF EACH e IN staff: (e.enr = 1)]",                 # unknown relation
        "[<e.ename> OF EACH e IN employees: (x.enr = 1)]",             # unbound variable
        "[<e.ename> OF EACH e IN employees: (e.salary = 1)]",          # unknown component
        "[<e.ename> OF EACH e IN employees: (e.enr = )]",              # parse error
        "[<e.ename> OF EACH e IN employees: (e.enr = 'open)]",         # lex error
        "[<e.ename> OF EACH e IN employees: (e.enr = 1) (* open]",
        "[<e.ename AS name> OF EACH e IN employees: (name = 1)]",
    ]

    @pytest.mark.parametrize("text", ERRONEOUS)
    def test_same_type_same_message(self, figure1, text):
        expected = _error_as_written(figure1, text)
        with connect(figure1) as connection:
            for _ in range(2):  # the second time the text is known to be keyed as written
                with pytest.raises(PascalRError) as excinfo:
                    connection.cursor().execute(text)
                assert type(excinfo.value) is type(expected)
                assert str(excinfo.value) == str(expected)
                assert "$" not in str(excinfo.value)

    def test_the_subrange_message(self, figure1):
        with connect(figure1) as connection, pytest.raises(TypeCheckError) as excinfo:
            connection.cursor().execute("[<e.ename> OF EACH e IN employees: (e.enr <= 10002)]")
        assert "constant 10002 in join term" in str(excinfo.value)
        assert "outside subrange enumbertype" in str(excinfo.value)

    def test_a_bad_constant_neither_poisons_nor_evicts_the_shared_entry(self, figure1):
        good = "[<e.ename> OF EACH e IN employees: (e.enr <= 4)]"
        bad = "[<e.ename> OF EACH e IN employees: (e.enr <= 10002)]"
        options = ServiceOptions(plan_cache_capacity=1)
        with connect(figure1, service_options=options) as connection:
            cursor = connection.cursor()
            rows = _values(cursor.execute(good).fetchall())
            shared = connection.prepare(good)
            for _ in range(3):
                with pytest.raises(TypeCheckError):
                    cursor.execute(bad)
            info = connection.cache_info()
            assert (info["size"], info["evictions"]) == (1, 0), info
            assert connection.prepare(good) is shared
            assert _values(cursor.execute(good).fetchall()) == rows
            assert _values(cursor.execute(good.replace("4", "5")).fetchall()) != rows

    def test_errors_show_the_constants_never_a_positional_name(self, figure1):
        text = "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (e.enr <= 5)]"
        with connect(figure1) as connection:
            cursor = connection.cursor().execute(text)
            cursor.fetchall()
            report = cursor.result.describe()
            assert "professor" in report and "$" not in report
            prepared = connection.prepare(text)
            assert "$" not in prepared.trace.describe()
            assert "$" not in " ".join(prepared.access_paths().values())
            assert "$" not in repr(prepared.selection) + repr(prepared.plan.conjunctions)
            analyzed = connection.service.engine.explain(text, analyze=True)
            assert "professor" in analyzed and "$" not in analyzed


# --------------------------------------------------------- handles and $names


class TestHandles:
    TEXT = "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (e.enr <= 6)]"

    def test_a_literal_only_text_needs_no_bindings(self, figure1):
        with connect(figure1) as connection:
            prepared = connection.prepare(self.TEXT)
            assert prepared.text == self.TEXT
            assert prepared.parameters == {} and prepared.parameter_names == ()
            assert not prepared.is_parameterized()
            assert "none" in repr(prepared)
            expected = execute_naive(figure1, self.TEXT)
            assert prepared.execute().relation == expected
            assert prepared.execute(None).relation == expected
            assert prepared.bind(None).constant is not None or prepared.bind().conjunctions
            assert prepared.referenced_relations == {"employees"}
            assert not prepared.is_stale()
            prepared.ensure_fresh()
            assert connection.service.execute(prepared).relation == expected
            assert connection.cursor().execute(prepared).fetchall()

    def test_bindings_for_a_literal_only_text_are_refused_by_name(self, figure1):
        with connect(figure1) as connection:
            prepared = connection.prepare(self.TEXT)
            with pytest.raises(BindingError, match="declares no parameters.*\\$k"):
                prepared.execute({"k": 1})
            with pytest.raises(BindingError, match="declares no parameters.*\\$0"):
                prepared.execute({"0": "student"})  # no way in to a positional parameter

    def test_names_beside_literals(self, figure1):
        text = (
            "[<e.ename> OF EACH e IN employees: (e.estatus = $status) AND (e.enr <= 6)"
            " AND SOME t IN timetable ((t.tenr = e.enr) AND (t.tday <> $day))]"
        )
        with connect(figure1) as connection:
            prepared = connection.prepare(text)
            assert prepared.parameter_names == ("day", "status")
            assert prepared.is_parameterized()
            for k, status, day in itertools.product((3, 6, 9), ("professor", "student"), ("monday", "friday")):
                handle = connection.prepare(text.replace("<= 6", f"<= {k}"))
                values = {"status": status, "day": day}
                inlined = inline_parameters(text.replace("<= 6", f"<= {k}"), values)
                assert handle.execute(values).relation == execute_naive(figure1, inlined)
                cursor = connection.cursor().execute(handle.text, values)
                assert _values(cursor.fetchall()) == _values(
                    QueryEngine(figure1).run(inlined).rows
                )
            assert connection.cache_info()["size"] == 1
            with pytest.raises(BindingError) as excinfo:
                prepared.execute({"status": "professor"})
            assert str(excinfo.value) == "missing value(s) for parameter(s): $day"
            with pytest.raises(BindingError) as excinfo:
                prepared.execute({"status": "professor", "day": "monday", "0": 1})
            assert str(excinfo.value) == "binding(s) for undeclared parameter(s): $0"
            with pytest.raises(BindingError, match="\\$status"):
                prepared.execute({"status": "dean", "day": "monday"})

    def test_the_plan_as_written_keeps_names_and_shows_constants(self, figure1):
        text = "[<e.ename> OF EACH e IN employees: (e.estatus = $status) AND (e.enr <= 6)]"
        # An index on the parameter's column gives the access path a
        # predicate to show (a scan path names none).
        figure1.create_index("employees", "estatus")
        with connect(figure1) as connection:
            prepared = connection.prepare(text)
            described = prepared.trace.describe() + repr(prepared.selection)
            assert "$status" in described and "6" in described and "$0" not in described
            assert "$status" in prepared.access_paths()["e"]

    def test_handles_of_one_shape_share_plan_and_memos(self, figure1):
        with connect(figure1) as connection:
            first = connection.prepare(self.TEXT)
            second = connection.prepare(self.TEXT.replace("6", "7"))
            assert first is not second
            assert first._plan is second._plan
            assert first._bound_plans is second._bound_plans
            assert first._collections is second._collections
            assert first.plan is not second.plan  # each as its text wrote it

    def test_a_replan_after_drift_reaches_every_handle(self):
        database = build_university_database(scale=1)
        text = (
            "[<e.ename> OF EACH e IN employees: SOME p IN papers (SOME t IN timetable"
            " ((e.enr <> p.penr) AND (e.enr = t.tenr) AND (p.pyear = %d)))]"
        )
        with connect(database) as connection:
            first = connection.prepare(text % 1977)
            second = connection.prepare(text % 1975)
            plan = first._plan
            for handle in (first, second):
                assert handle.execute().relation == execute_naive(database, handle.text)
                assert handle.execute().combination.plan_reused
            with connection.session():
                database.relation("papers").insert({"penr": 3, "pyear": 1977, "ptitle": "Drift"})
                database.relation("papers").insert({"penr": 4, "pyear": 1975, "ptitle": "Drift"})
            for handle in (first, second):
                result = handle.execute()
                assert not result.combination.plan_reused, handle.text
                assert result.relation == execute_naive(database, handle.text)
            assert first._plan is plan and second._plan is plan


def test_a_database_that_served_literal_texts_dies_by_reference_counting(tmp_path):
    """Handles copy the shape they belong to; nothing may point back at them
    strongly (in a fresh interpreter, like ``tests/test_footprint.py``)."""
    import os
    import subprocess
    import textwrap
    from pathlib import Path

    script = """
        import gc
        import weakref
        import repro

        gc.collect()
        gc.disable()
        database = repro.build_university_database(scale=1)
        connection = repro.connect(database)
        cursor = connection.cursor()
        text = "[<e.ename> OF EACH e IN employees: (e.estatus = %s) AND (e.enr <= %d)]"
        for status, k in (("professor", 5), ("student", 7), ("professor", 5)):
            cursor.execute(text % (status, k)).fetchall()
        held = connection.prepare(text % ("student", 7))
        assert held.execute().relation is not None and held.selection is not None
        alive = [weakref.ref(database), weakref.ref(held)]
        cursor.close()
        connection.close()
        del database, connection, cursor, held
        print([ref() is None for ref in alive])
    """
    source = str(Path(__file__).resolve().parents[2] / "src")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=source),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "[True, True]"


# ------------------------------------------------------------------------ threads


def test_eight_threads_same_shape_different_constants(university_scale2):
    """Each thread gets the rows of its own constants, never a neighbour's."""
    template = (
        "[<e.ename, e.enr> OF EACH e IN employees: (e.enr <= {k}) AND"
        " SOME t IN timetable ((t.tenr = e.enr))]"
    )
    database = university_scale2
    expected = {
        k: sorted(_values(execute_naive(database, template.format(k=k)))) for k in range(1, 17)
    }
    failures: list = []
    barrier = threading.Barrier(8)

    def reader(index: int) -> None:
        try:
            cursor = connection.cursor()
            barrier.wait(timeout=30)
            for round_ in range(40):
                k = 1 + (index * 5 + round_ * 3) % 16
                rows = cursor.execute(template.format(k=k)).fetchall()
                if sorted(_values(rows)) != expected[k]:
                    failures.append((index, k))
        except Exception as exc:  # reported below, in the main thread
            failures.append((index, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the shared memos, not around them
    try:
        with connect(database) as connection:
            threads = [threading.Thread(target=reader, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            info = connection.cache_info()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert info["size"] == 1 and info["hits"] + info["misses"] == 8 * 40
