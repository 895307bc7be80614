"""The bibliographic workload end to end: generate, ingest DBLP XML, analyse.

Run with::

    python examples/citation_analysis.py

Walks the second domain's whole surface: build a Zipf-skewed bibliographic
database, load a DBLP-style XML fragment on top of it through the public
connect/session API (entity decoding, duplicate-key last-write-wins), create
the standard indexes, and run the citation query library — co-author chains,
"who cites whom", per-venue universal quantification, self-citation
detection — with ``explain(analyze=True)`` showing how the join order's
sketches estimate the skewed joins against the rows that actually flowed.
"""

from repro import connect
from repro.workloads.bibliography import (
    bibliography_named_queries,
    build_bibliography_database,
    create_standard_indexes,
    load_dblp_xml,
)

#: A miniature DBLP fragment in the real feed's shape: a DOCTYPE declaring
#: character entities, article/inproceedings records, a duplicate key whose
#: later record must win, and a citation into the fragment.
DBLP_FRAGMENT = """<?xml version="1.0" encoding="ISO-8859-1"?>
<!DOCTYPE dblp [
  <!ENTITY uuml "&#252;">
  <!ENTITY auml "&#228;">
]>
<dblp>
<article mdate="2023-09-20" key="journals/pvldb/SchmittKAMM23">
<author>Daniel Schmitt</author>
<author orcid="0000-0001-8301-3512">Thomas H&uuml;tter</author>
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
</inproceedings>
<article mdate="2024-01-05" key="journals/pvldb/SchmittKAMM23">
<author>Daniel Schmitt</author>
<author>Thomas H&uuml;tter</author>
<author>Christine Sch&auml;ler</author>
<title>A Structural Join for Document Stores (extended).</title>
<year>2023</year>
<journal>Proc. VLDB Endow.</journal>
</article>
</dblp>"""


def main() -> None:
    # 1. The generator: Zipf-skewed, correlated, deterministic.
    database = build_bibliography_database(scale=2)
    create_standard_indexes(database)
    print("Generated bibliography (scale 2):")
    for name, count in sorted(database.cardinalities().items()):
        print(f"  {name:12s} {count}")
    print()

    with connect(database) as connection:
        # 2. The ingest path: DBLP XML through the public session API.
        report = load_dblp_xml(DBLP_FRAGMENT, connection)
        print("Ingested the DBLP fragment:")
        print(f"  records {report.records}, new papers {report.inserted}, "
              f"duplicates resolved {report.duplicate_keys} "
              f"(last write wins, {report.updated} updated)")
        print(f"  entities decoded {report.entities_decoded}, "
              f"citations resolved {report.citations_created}")
        cursor = connection.execute(
            "[<a.aname> OF EACH a IN authors: "
            " SOME w IN authorship (SOME p IN papers "
            "  ((w.wanr = a.anr) AND (w.wpnr = p.pnr) AND (p.pyear = 2023)))]"
        )
        names = sorted(row.aname.strip() for row in cursor.fetchall())
        print(f"  2023 authors from the feed include: {names}")
        print()

        # 3. The citation query library over the combined contents.
        print("Citation query library:")
        for name, query in bibliography_named_queries().items():
            rows = connection.execute(query).fetchall()
            print(f"  {name:20s} -> {len(rows)} rows")
        print()

        # 4. What the optimizer sees: the join order's estimates, which
        #    sketch the hot citation targets, against the rows that flowed.
        cocitation = (
            "[<a.ptitle> OF EACH a IN papers: "
            " SOME c1 IN citations (SOME c2 IN citations "
            "  ((c1.cdst = c2.cdst) AND (c1.csrc = a.pnr) AND (c2.csrc <> a.pnr)))]"
        )
        report = connection.service.engine.explain(cocitation, analyze=True)
        print("Co-citation join estimates (explain analyze):")
        for line in report.splitlines():
            if ": est " in line:
                print(f"  {line.strip()}")
        cursor = connection.execute(cocitation)
        print(f"Co-citation pairs found: {len(cursor.fetchall())}")


if __name__ == "__main__":
    main()
