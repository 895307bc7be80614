"""The bibliographic domain: schema, skewed generator, and the query library.

The generator's headline guarantee gets a hypothesis property: the produced
database is **byte-identical for any worker count** — the chunk layout is
fixed (:data:`repro.workloads.bibliography.generator.CHUNKS`), each chunk
draws from its own derived RNG, and the parent inserts in a fixed order, so
parallelism changes wall-clock only, never contents.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect, execute_naive
from repro.types.scalar import CharArray, Enumeration, Subrange
from repro.workloads.bibliography import (
    BibliographyProfile,
    bibliography_named_queries,
    bibliography_parameterized_queries,
    build_bibliography_database,
    create_standard_indexes,
)
from repro.workloads.bibliography.generator import (
    CHUNKS,
    ERAS,
    _chunk_rng,
    _generate_citations,
    _paper_year,
    _zipf_cumulative,
)


@pytest.fixture(scope="module")
def scale2():
    database = build_bibliography_database(scale=2)
    create_standard_indexes(database)
    return database


def _snapshot(database) -> dict:
    return {
        name: sorted(tuple(record.values) for record in database.relation(name))
        for name in database.relation_names()
    }


class TestSchema:
    def test_relations_and_keys(self, scale2):
        assert set(scale2.relation_names()) == {
            "authors", "venues", "papers", "authorship", "citations",
        }
        assert scale2.relation("authors").schema.key == ("anr",)
        assert scale2.relation("papers").schema.key == ("pnr",)
        assert scale2.relation("authorship").schema.key == ("wanr", "wpnr")
        assert scale2.relation("citations").schema.key == ("csrc", "cdst")

    def test_pascal_scalar_types(self, scale2):
        papers = scale2.relation("papers").schema
        assert isinstance(papers.field_type("pyear"), Subrange)
        assert isinstance(papers.field_type("ptitle"), CharArray)
        venues = scale2.relation("venues").schema
        assert isinstance(venues.field_type("vkind"), Enumeration)

    def test_standard_indexes_cover_the_join_columns(self, scale2):
        indexed = set(scale2.indexes())
        for pair in (
            ("authorship", "wanr"), ("authorship", "wpnr"),
            ("citations", "csrc"), ("citations", "cdst"),
            ("papers", "pvnr"),
        ):
            assert pair in indexed, pair


class TestGenerator:
    def test_determinism_same_seed(self):
        first = build_bibliography_database(scale=1, seed=11)
        second = build_bibliography_database(scale=1, seed=11)
        assert _snapshot(first) == _snapshot(second)

    def test_different_seed_differs(self):
        assert _snapshot(build_bibliography_database(scale=1, seed=1)) != _snapshot(
            build_bibliography_database(scale=1, seed=2)
        )

    def test_scaling_multiplies_cardinalities(self):
        profile = BibliographyProfile()
        cards = build_bibliography_database(scale=3).cardinalities()
        assert cards["authors"] == profile.authors * 3
        assert cards["papers"] == profile.papers * 3
        assert cards["venues"] == profile.venues * 3

    def test_referential_integrity(self, scale2):
        authors = {r["anr"] for r in scale2.relation("authors")}
        papers = {r["pnr"] for r in scale2.relation("papers")}
        venues = {r["vnr"] for r in scale2.relation("venues")}
        for link in scale2.relation("authorship"):
            assert link["wanr"] in authors and link["wpnr"] in papers
        for edge in scale2.relation("citations"):
            assert edge["csrc"] in papers and edge["cdst"] in papers
        for paper in scale2.relation("papers"):
            assert paper["pvnr"] in venues

    def test_citations_point_into_the_past(self, scale2):
        years = {r["pnr"]: r["pyear"] for r in scale2.relation("papers")}
        for edge in scale2.relation("citations"):
            assert edge["cdst"] < edge["csrc"]
            assert years[edge["cdst"]] <= years[edge["csrc"]]

    def test_only_modern_papers_cite(self, scale2):
        profile = BibliographyProfile().scaled(2)
        for edge in scale2.relation("citations"):
            assert profile.is_modern(edge["csrc"])

    def test_authorship_is_skewed(self, scale2):
        counts: dict[int, int] = {}
        for link in scale2.relation("authorship"):
            counts[link["wanr"]] = counts.get(link["wanr"], 0) + 1
        top = max(counts.values())
        mean = sum(counts.values()) / len(counts)
        assert top >= 3 * mean, (top, mean)

    def test_paper_years_are_monotone(self):
        papers = BibliographyProfile().papers
        years = [_paper_year(pnr, papers) for pnr in range(1, papers + 1)]
        assert years == sorted(years)

    def test_eras_partition_the_corpus(self):
        profile = BibliographyProfile().scaled(3)
        eras = [profile.era(pnr) for pnr in range(1, profile.papers + 1)]
        assert eras == sorted(eras)
        assert set(eras) == set(range(ERAS))
        assert profile.is_modern(profile.papers)
        assert not profile.is_modern(1)

    def test_zipf_cumulative_is_a_proper_prefix_sum(self):
        cum = _zipf_cumulative(5, 1.5)
        assert cum[0] == 0.0
        assert all(b > a for a, b in zip(cum, cum[1:]))

    def test_chunk_rngs_are_stream_independent(self):
        # Drawing from one chunk's RNG must not perturb another's stream.
        lone = _chunk_rng(7, "papers", 3).random()
        first = _chunk_rng(7, "papers", 2)
        first.random()
        assert _chunk_rng(7, "papers", 3).random() == lone

    def test_citation_chunks_are_pure_functions_of_their_seed(self):
        profile = BibliographyProfile().scaled(2)
        cum = _zipf_cumulative(profile.papers, profile.citation_zipf)
        lo, hi = profile.papers // 2, profile.papers
        once = _generate_citations(_chunk_rng(5, "citations", 0), lo, hi, profile, cum)
        again = _generate_citations(_chunk_rng(5, "citations", 0), lo, hi, profile, cum)
        assert once == again

    @given(st.integers(min_value=0, max_value=CHUNKS + 3))
    @settings(max_examples=8, deadline=None)
    def test_contents_are_byte_identical_for_any_worker_count(self, workers):
        reference = _snapshot(build_bibliography_database(scale=1, workers=0))
        parallel = _snapshot(build_bibliography_database(scale=1, workers=workers))
        assert parallel == reference


class TestQueryLibrary:
    def test_named_queries_parse_and_run(self, scale2):
        with connect(scale2) as connection:
            for name, query in bibliography_named_queries().items():
                rows = connection.execute(query).fetchall()
                assert isinstance(rows, list), name

    def test_named_queries_match_naive_interpretation(self):
        # Scale 1, and not the four-hop chain: direct interpretation
        # enumerates the full range product, which is exponential in the
        # quantifier depth.  The chain is covered (against the legacy
        # engine configuration) by tests/engine/test_equivalence.py.
        database = build_bibliography_database(scale=1)
        # The same contents with the standard indexes: a cursor's pinned
        # snapshot then serves them as views over its own dicts.
        indexed = build_bibliography_database(scale=1)
        create_standard_indexes(indexed)
        cheap = {"coauthor_pairs", "well_cited_venues", "self_citers", "cocitation"}
        with connect(database) as connection, connect(indexed) as indexed_connection:
            for name, query in bibliography_named_queries().items():
                if name not in cheap:
                    continue
                expected = sorted(r.values for r in execute_naive(database, query))
                for front_door in (connection, indexed_connection):
                    rows = front_door.execute(query).fetchall()
                    assert sorted(r.values for r in rows) == expected, name

    def test_coauthor_pairs_match_hand_computation(self, scale2):
        from repro.workloads.bibliography.queries import COAUTHOR_PAIRS_TEXT

        by_paper: dict[int, set[int]] = {}
        for link in scale2.relation("authorship"):
            by_paper.setdefault(link["wpnr"], set()).add(link["wanr"])
        names = {r["anr"]: r["aname"] for r in scale2.relation("authors")}
        expected = {
            (names[a], names[b])
            for members in by_paper.values()
            for a in members
            for b in members
            if a < b
        }
        with connect(scale2) as connection:
            rows = connection.execute(COAUTHOR_PAIRS_TEXT).fetchall()
        assert {tuple(r.values) for r in rows} == expected

    def test_parameterized_queries_bind_and_run(self, scale2):
        with connect(scale2) as connection:
            for name, (text, bindings) in bibliography_parameterized_queries().items():
                prepared = connection.prepare(text)
                for binding in bindings:
                    result = prepared.execute(binding)
                    assert result.relation is not None, (name, binding)

    def test_well_cited_venues_matches_hand_computation(self, scale2):
        from repro.workloads.bibliography.queries import WELL_CITED_VENUES_TEXT

        cited = {edge["cdst"] for edge in scale2.relation("citations")}
        by_venue: dict[int, list[int]] = {}
        for paper in scale2.relation("papers"):
            by_venue.setdefault(paper["pvnr"], []).append(paper["pnr"])
        expected = {
            venue["vnr"]
            for venue in scale2.relation("venues")
            # vacuously well-cited when the venue has no papers at all
            if all(pnr in cited for pnr in by_venue.get(venue["vnr"], []))
        }
        with connect(scale2) as connection:
            rows = connection.execute(WELL_CITED_VENUES_TEXT).fetchall()
        names = {r.vname for r in rows}
        venue_names = {r["vnr"]: r["vname"] for r in scale2.relation("venues")}
        assert names == {venue_names[v] for v in expected}
