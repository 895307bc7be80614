"""DBLP XML ingest: entity decoding, duplicate keys, and observer coherence.

Two guarantees carry hypothesis properties here: **double-ingest is
idempotent** (re-delivering any fragment leaves the database byte-identical
and the second report counts every record as ``unchanged``), and entity
decoding never crashes on arbitrary text.  Everything else pins the concrete
resolution rules of :mod:`repro.workloads.bibliography.ingest` against a
miniature fragment in the real feed's shape.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.relational.database import Database
from repro.workloads.bibliography import (
    DBLP_ENTITIES,
    build_bibliography_database,
    create_standard_indexes,
    decode_entities,
    load_dblp_xml,
)

#: A fragment exercising every resolution rule at once: DOCTYPE-declared
#: entities on top of the built-in table, a shared author across records, a
#: duplicate key whose later record must win, one resolvable and one
#: dangling <cite>, and a record kind the loader does not handle.
FRAGMENT = """<?xml version="1.0" encoding="ISO-8859-1"?>
<!DOCTYPE dblp [
  <!ENTITY uuml "&#252;">
]>
<dblp>
<article mdate="2023-09-20" key="journals/pvldb/SchmittKAMM23">
<author>Daniel Schmitt</author>
<author>Thomas H&uuml;tter</author>
<author>Christine Sch&auml;ler</author>
<title>A Structural Join for Document Stores.</title>
<year>2023</year>
<journal>Proc. VLDB Endow.</journal>
</article>
<inproceedings mdate="2022-05-01" key="conf/sigmod/HutterA22">
<author>Thomas H&uuml;tter</author>
<author>Nikolaus Augsten</author>
<title>Tree Similarity Joins.</title>
<year>2022</year>
<booktitle>SIGMOD Conference</booktitle>
<cite>journals/pvldb/SchmittKAMM23</cite>
<cite>conf/nowhere/Unknown99</cite>
</inproceedings>
<www key="homepages/h/ThomasHutter">
<author>Thomas H&uuml;tter</author>
</www>
<article mdate="2024-01-05" key="journals/pvldb/SchmittKAMM23">
<author>Daniel Schmitt</author>
<author>Thomas H&uuml;tter</author>
<title>A Structural Join for Document Stores (extended).</title>
<year>2023</year>
<journal>Proc. VLDB Endow.</journal>
</article>
</dblp>"""


def _names(database, relation, field):
    return {record[field].rstrip() for record in database.relation(relation)}


def _snapshot(database) -> dict:
    return {
        name: sorted(tuple(record.values) for record in database.relation(name))
        for name in database.relation_names()
    }


class TestEntityDecoding:
    def test_builtin_dblp_entities_are_decoded_and_counted(self):
        decoded, count = decode_entities("H&uuml;tter and Sch&auml;ler")
        assert decoded == "Hütter and Schäler"
        assert count == 2

    def test_doctype_declarations_extend_and_override(self):
        text = '<!DOCTYPE dblp [ <!ENTITY uuml "U"> <!ENTITY smiley ":-)"> ]>' \
               "<dblp>&uuml;&smiley;</dblp>"
        decoded, count = decode_entities(text)
        assert decoded == "<dblp>U:-)</dblp>"
        assert count == 2

    def test_xml_builtins_are_left_for_the_parser(self):
        decoded, count = decode_entities("a &amp; b &lt; c")
        assert decoded == "a &amp; b &lt; c"
        assert count == 0

    def test_unknown_entities_pass_through(self):
        decoded, count = decode_entities("&notanentity; stays")
        assert decoded == "&notanentity; stays"
        assert count == 0

    def test_the_builtin_table_covers_the_latin_1_standbys(self):
        for name in ("auml", "ouml", "uuml", "szlig", "eacute", "oslash"):
            assert name in DBLP_ENTITIES

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_decoding_never_crashes(self, text):
        decoded, count = decode_entities(text)
        assert isinstance(decoded, str) and count >= 0


class TestIngestRoundTrip:
    @pytest.fixture(scope="class")
    def loaded(self):
        database = Database("dblp")
        report = load_dblp_xml(FRAGMENT, database)
        return database, report

    def test_report_counts_the_whole_story(self, loaded):
        _, report = loaded
        assert report.records == 3          # the www element is not a record
        assert report.skipped == 1
        assert report.inserted == 2
        assert report.updated == 1          # the re-exported SchmittKAMM23
        assert report.unchanged == 0
        assert report.duplicate_keys == 1
        assert report.citations_created == 1
        assert report.unresolved_citations == 1
        assert report.entities_decoded > 0

    def test_entities_land_decoded_in_the_relations(self, loaded):
        database, _ = loaded
        assert "Thomas Hütter" in _names(database, "authors", "aname")
        assert "Christine Schäler" in _names(database, "authors", "aname")

    def test_duplicate_key_resolves_last_write_wins(self, loaded):
        database, _ = loaded
        rows = [
            record for record in database.relation("papers")
            if record["pkey"].rstrip() == "journals/pvldb/SchmittKAMM23"
        ]
        assert len(rows) == 1
        assert rows[0]["ptitle"].rstrip().endswith("(extended).")
        # the later record dropped the third author: the link goes with it
        winners = {
            link["wanr"] for link in database.relation("authorship")
            if link["wpnr"] == rows[0]["pnr"]
        }
        assert len(winners) == 2

    def test_shared_authors_are_allocated_once(self, loaded):
        database, _ = loaded
        hutter = [
            record["anr"] for record in database.relation("authors")
            if record["aname"].rstrip() == "Thomas Hütter"
        ]
        assert len(hutter) == 1

    def test_citation_edge_points_at_the_resolved_paper(self, loaded):
        database, _ = loaded
        keys = {r["pnr"]: r["pkey"].rstrip() for r in database.relation("papers")}
        edges = [tuple(r.values) for r in database.relation("citations")]
        assert len(edges) == 1
        csrc, cdst = edges[0]
        assert keys[csrc] == "conf/sigmod/HutterA22"
        assert keys[cdst] == "journals/pvldb/SchmittKAMM23"

    def test_loading_from_a_file_path_matches_text(self, tmp_path, loaded):
        database, _ = loaded
        path = tmp_path / "fragment.xml"
        path.write_text(FRAGMENT, encoding="utf-8")
        from_file = Database("dblp-file")
        load_dblp_xml(path, from_file)
        assert _snapshot(from_file) == _snapshot(database)

    def test_reingesting_the_fragment_is_idempotent(self, loaded):
        database, _ = loaded
        before = _snapshot(database)
        again = load_dblp_xml(FRAGMENT, database)
        assert _snapshot(database) == before
        assert again.inserted == 0
        # replaying the duplicated key re-applies both versions (the earlier
        # record differs from the stored winner, the winner then differs from
        # the earlier record), so the pair counts as two updates — the net
        # contents are still identical
        assert again.updated == 2 and again.unchanged == 1
        assert again.citations_created == 0  # the edge already exists


class TestIngestExtendsGeneratedData:
    def test_numbers_continue_above_the_generator(self):
        database = build_bibliography_database(scale=1)
        top_anr = max(r["anr"] for r in database.relation("authors"))
        top_pnr = max(r["pnr"] for r in database.relation("papers"))
        report = load_dblp_xml(FRAGMENT, database)
        assert report.inserted == 2
        new_pnrs = {
            r["pnr"] for r in database.relation("papers") if r["pnr"] > top_pnr
        }
        assert len(new_pnrs) == 2
        assert min(r["anr"] for r in database.relation("authors")
                   if r["aname"].rstrip() == "Thomas Hütter") > top_anr

    def test_indexes_see_the_load(self):
        # Indexes created *before* the load answer for it without any
        # rebuild by the caller: the next index_for derives the loaded
        # contents.
        database = build_bibliography_database(scale=1)
        create_standard_indexes(database)
        with connect(database) as connection:
            load_dblp_xml(FRAGMENT, connection)
        authorship = database.relation("authorship")
        index = database.index_for("authorship", "wanr")
        assert len(index) == len(authorship)
        for link in authorship:
            refs = index.probe(link["wanr"])
            assert any(ref.key == (link["wanr"], link["wpnr"]) for ref in refs)


# A tiny record-level XML writer for the idempotence property: hypothesis
# drives the *shape* (keys, authors, cite targets — duplicates included),
# the writer renders it in DBLP form, and the property asserts re-ingest
# changes nothing.

_KEYS = ("conf/a/One1", "conf/a/Two2", "journals/b/Three3")
_AUTHORS = ("Alice", "Bob", "Chloé", "Dörte")

_record = st.fixed_dictionaries(
    {
        "key": st.sampled_from(_KEYS),
        "title": st.sampled_from(("Paper", "Extended Paper", "Errata")),
        "year": st.integers(min_value=1950, max_value=2030),
        "authors": st.lists(st.sampled_from(_AUTHORS), min_size=1, max_size=3),
        "cites": st.lists(
            st.sampled_from(_KEYS + ("conf/x/Missing0",)), max_size=2
        ),
    }
)


def _render(records) -> str:
    parts = ["<dblp>"]
    for record in records:
        parts.append(f'<article key="{record["key"]}">')
        for author in record["authors"]:
            parts.append(f"<author>{author}</author>")
        parts.append(f"<title>{record['title']}</title>")
        parts.append(f"<year>{record['year']}</year>")
        parts.append("<journal>J. Test</journal>")
        for cite in record["cites"]:
            parts.append(f"<cite>{cite}</cite>")
        parts.append("</article>")
    parts.append("</dblp>")
    return "".join(parts)


class TestDoubleIngestProperty:
    @given(st.lists(_record, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_double_ingest_is_idempotent(self, records):
        text = _render(records)
        database = Database("dblp-prop")
        load_dblp_xml(text, database)
        once = _snapshot(database)
        second = load_dblp_xml(text, database)
        assert _snapshot(database) == once
        assert second.inserted == 0
        assert second.citations_created == 0
        assert second.unchanged + second.updated == second.records

    @given(st.lists(_record, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_one_load_equals_two_half_loads(self, records):
        text = _render(records)
        whole = Database("dblp-whole")
        load_dblp_xml(text, whole)
        halves = Database("dblp-halves")
        split = max(len(records) // 2, 1)
        load_dblp_xml(_render(records[:split]), halves)
        load_dblp_xml(_render(records[split:]), halves)
        # citation edges may resolve only in the second half's pass, but
        # papers/authors/venues must agree exactly
        for name in ("authors", "venues", "papers", "authorship"):
            assert _snapshot(halves)[name] == _snapshot(whole)[name]
