"""DBLP-style XML ingest: ``load_dblp_xml(path_or_text, target)``.

Real bibliographic data does not arrive as neat generator calls — it arrives
as DBLP XML: ``article`` / ``inproceedings`` records carrying author lists,
venue names and ``&uuml;``-class character entities declared in the feed's
DOCTYPE, with duplicate record keys sprinkled in (corrected metadata
re-exported under the same key).  This module turns such a fragment into the
:mod:`~repro.workloads.bibliography.schema` relations, and it does so
**through the public connect/session API**: every row goes through an
ordinary transaction, so the WAL, the permanent indexes and the zone maps
all observe the load exactly as they would observe any client program.

Resolution rules
----------------

* **entities** — the DOCTYPE's internal ``<!ENTITY name "value">``
  declarations are honoured, on top of a built-in table of the Latin-1
  entities DBLP actually uses; XML's own five builtins are left for the
  parser.
* **authors** are keyed by (decoded, truncated) name, **venues** by name:
  first sighting allocates the next free number, later sightings reuse it.
* **papers** are keyed by the DBLP record key (the ``pkey`` column).  A key
  seen again is a *duplicate*: **last write wins** — the later record
  replaces the earlier one's fields and authorship links under the same
  paper number, and the conflict is counted in the report (an identical
  re-delivery is recognised and counted separately as ``unchanged``, which
  is what makes re-ingesting the same file idempotent).
* **citations** come from ``<cite>`` children; references to keys unknown
  after the whole fragment has been read are counted, not loaded (dangling
  edges would violate the schema's spirit, and DBLP feeds are full of
  references to records outside the fragment).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.api.connection import Connection, connect
from repro.workloads.bibliography.schema import (
    AUTHOR_NAME_TYPE,
    PAPER_KEY_TYPE,
    PAPER_TITLE_TYPE,
    PUB_YEAR_TYPE,
    VENUE_NAME_TYPE,
    declare_schema,
)

__all__ = ["IngestReport", "load_dblp_xml", "decode_entities", "DBLP_ENTITIES"]

#: The Latin-1-flavoured entities DBLP feeds rely on, beyond XML's builtins.
#: A fragment's own DOCTYPE declarations extend (and can override) this table.
DBLP_ENTITIES = {
    "auml": "ä", "ouml": "ö", "uuml": "ü",
    "Auml": "Ä", "Ouml": "Ö", "Uuml": "Ü",
    "szlig": "ß",
    "aacute": "á", "agrave": "à", "acirc": "â", "aring": "å", "atilde": "ã",
    "eacute": "é", "egrave": "è", "ecirc": "ê",
    "iacute": "í", "igrave": "ì", "icirc": "î", "iuml": "ï",
    "oacute": "ó", "ograve": "ò", "ocirc": "ô", "oslash": "ø", "otilde": "õ",
    "uacute": "ú", "ugrave": "ù", "ucirc": "û",
    "ccedil": "ç", "Ccedil": "Ç", "ntilde": "ñ",
    "Aacute": "Á", "Eacute": "É", "Iacute": "Í", "Oacute": "Ó", "Uacute": "Ú",
    "Oslash": "Ø", "yacute": "ý", "times": "×", "micro": "µ",
}

#: XML's own predefined entities — left intact for the XML parser itself.
_XML_BUILTINS = frozenset({"amp", "lt", "gt", "apos", "quot"})

_DOCTYPE_RE = re.compile(r"<!DOCTYPE[^\[>]*(?:\[.*?\]\s*)?>", re.DOTALL)
_ENTITY_DECL_RE = re.compile(r'<!ENTITY\s+(\w+)\s+"([^"]*)"\s*>')
_ENTITY_REF_RE = re.compile(r"&(\w+);")
_XML_DECL_RE = re.compile(r"<\?xml[^?]*\?>")

#: The DBLP record kinds loaded as papers, mapped to a venue field and kind.
_RECORD_KINDS = {
    "article": ("journal", "journal"),
    "inproceedings": ("booktitle", "conference"),
}


@dataclass(frozen=True)
class IngestReport:
    """What one :func:`load_dblp_xml` call did (all counts deterministic)."""

    records: int = 0            #: article/inproceedings elements read
    inserted: int = 0           #: new papers created
    updated: int = 0            #: duplicate keys resolved last-write-wins
    unchanged: int = 0          #: duplicate keys whose record was identical
    skipped: int = 0            #: elements of unhandled kinds (www, proceedings, ...)
    authors_created: int = 0
    venues_created: int = 0
    authorship_links: int = 0   #: links now present for the loaded papers
    citations_created: int = 0  #: resolved <cite> edges
    unresolved_citations: int = 0  #: <cite> targets unknown after the full read
    entities_decoded: int = 0   #: non-builtin entity references replaced

    @property
    def duplicate_keys(self) -> int:
        """How many records re-used an already-seen DBLP key."""
        return self.updated + self.unchanged


def decode_entities(text: str) -> tuple[str, int]:
    """Decode DBLP character entities in ``text``; return ``(decoded, count)``.

    DOCTYPE-declared entities are honoured first (they may override the
    built-in table), the DOCTYPE itself is stripped (the stdlib parser
    refuses internal subsets it did not ask for), and XML's five builtin
    entities pass through untouched for the parser to handle.  Unknown
    entities also pass through — a feed's typo must not crash the load.
    """
    table = dict(DBLP_ENTITIES)
    for match in _ENTITY_DECL_RE.finditer(text):
        table[match.group(1)] = match.group(2)
    text = _DOCTYPE_RE.sub("", text)
    count = 0

    def replace(match: re.Match) -> str:
        nonlocal count
        name = match.group(1)
        if name in _XML_BUILTINS:
            return match.group(0)
        if name in table:
            count += 1
            return table[name]
        return match.group(0)

    return _ENTITY_REF_RE.sub(replace, text), count


def _fit(value: str, char_array) -> str:
    """Truncate ``value`` to the char array's *character* count (never bytes)."""
    return value[: char_array.length]


def _parse_year(text: str | None) -> int:
    try:
        year = int((text or "").strip())
    except ValueError:
        year = PUB_YEAR_TYPE.low
    return min(max(year, PUB_YEAR_TYPE.low), PUB_YEAR_TYPE.high)


def _read_source(path_or_text) -> str:
    """``path_or_text`` may be XML text, a filesystem path, or a PathLike."""
    if isinstance(path_or_text, os.PathLike) or (
        isinstance(path_or_text, str) and "<" not in path_or_text
    ):
        with open(path_or_text, "r", encoding="utf-8") as handle:
            return handle.read()
    return path_or_text


def _parse_records(text: str) -> tuple[list[dict], int, int]:
    """Parse the fragment into record dicts; returns ``(records, skipped, entities)``."""
    # Imported here: only an ingest needs the XML parser resident.
    import xml.etree.ElementTree as ET

    decoded, entities = decode_entities(text)
    decoded = _XML_DECL_RE.sub("", decoded).strip()
    if not decoded.startswith("<dblp"):
        decoded = f"<dblp>{decoded}</dblp>"
    root = ET.fromstring(decoded)
    records: list[dict] = []
    skipped = 0
    for element in root:
        kind = _RECORD_KINDS.get(element.tag)
        if kind is None:
            skipped += 1
            continue
        venue_field, venue_kind = kind
        records.append(
            {
                "key": (element.get("key") or "").strip(),
                "title": (element.findtext("title") or "").strip(),
                "year": _parse_year(element.findtext("year")),
                "venue": (element.findtext(venue_field) or "(unknown venue)").strip(),
                "venue_kind": venue_kind,
                "authors": [
                    author.text.strip()
                    for author in element.findall("author")
                    if author.text and author.text.strip()
                ],
                "cites": [
                    cite.text.strip()
                    for cite in element.findall("cite")
                    if cite.text and cite.text.strip() and cite.text.strip() != "..."
                ],
            }
        )
    return records, skipped, entities


def load_dblp_xml(path_or_text, target) -> IngestReport:
    """Load a DBLP-style XML fragment into ``target``; return the report.

    ``target`` is a :class:`~repro.api.connection.Connection` or a
    :class:`~repro.relational.database.Database` (a connection is opened —
    and closed — around the load).  The bibliographic relations are declared
    on first use; an already-populated database is extended, with numbers
    allocated above whatever is present.  The whole load is **one
    transaction** on the public session API: on a durable database it is one
    WAL commit, and zone maps and statistics follow through the same
    relation operators every client write goes through (permanent indexes
    are re-derived from the loaded contents when next asked for).
    """
    if isinstance(target, Connection):
        return _load(path_or_text, target)
    with connect(target) as connection:
        return _load(path_or_text, connection)


def _load(path_or_text, connection: Connection) -> IngestReport:
    records, skipped, entities = _parse_records(_read_source(path_or_text))
    database = connection.database
    if not database.has_relation("papers"):
        declare_schema(database)  # DDL is deliberately non-transactional

    authors = database.relation("authors")
    venues = database.relation("venues")
    papers = database.relation("papers")
    authorship = database.relation("authorship")
    citations = database.relation("citations")

    author_numbers = {record["aname"].rstrip(): record["anr"] for record in authors}
    venue_numbers = {record["vname"].rstrip(): record["vnr"] for record in venues}
    paper_numbers = {record["pkey"].rstrip(): record["pnr"] for record in papers}
    next_anr = max(author_numbers.values(), default=0) + 1
    next_vnr = max(venue_numbers.values(), default=0) + 1
    next_pnr = max(paper_numbers.values(), default=0) + 1

    inserted = updated = unchanged = 0
    authors_created = venues_created = links = 0

    with connection.session() as session:  # noqa: F841 - scope IS the transaction
        for record in records:
            venue_name = _fit(record["venue"], VENUE_NAME_TYPE)
            vnr = venue_numbers.get(venue_name)
            if vnr is None:
                vnr = next_vnr
                next_vnr += 1
                venue_numbers[venue_name] = vnr
                venues.insert(
                    {"vnr": vnr, "vname": venue_name, "vkind": record["venue_kind"]}
                )
                venues_created += 1

            link_anrs: list[int] = []
            for name in record["authors"]:
                author_name = _fit(name, AUTHOR_NAME_TYPE)
                anr = author_numbers.get(author_name)
                if anr is None:
                    anr = next_anr
                    next_anr += 1
                    author_numbers[author_name] = anr
                    authors.insert({"anr": anr, "aname": author_name})
                    authors_created += 1
                if anr not in link_anrs:
                    link_anrs.append(anr)

            pkey = _fit(record["key"], PAPER_KEY_TYPE)
            row = {
                "ptitle": _fit(record["title"], PAPER_TITLE_TYPE),
                "pyear": record["year"],
                "pvnr": vnr,
                "pkey": pkey,
            }
            pnr = paper_numbers.get(pkey)
            if pnr is None:
                pnr = next_pnr
                next_pnr += 1
                paper_numbers[pkey] = pnr
                papers.insert({"pnr": pnr, **row})
                inserted += 1
                old_links: set[int] = set()
            else:
                # Duplicate key: last write wins under the same paper number.
                existing = papers.find((pnr,))
                old_links = {
                    link["wanr"] for link in authorship if link["wpnr"] == pnr
                }
                same_fields = all(
                    existing[field] == papers.schema.field_type(field).coerce(value)
                    for field, value in row.items()
                )
                if same_fields and old_links == set(link_anrs):
                    unchanged += 1
                    links += len(link_anrs)
                    record["pnr"] = pnr
                    continue
                papers.delete_key((pnr,))
                papers.insert({"pnr": pnr, **row})
                updated += 1
            for wanr in old_links - set(link_anrs):
                authorship.delete_key((wanr, pnr))
            for wanr in link_anrs:
                if wanr not in old_links:
                    authorship.insert({"wanr": wanr, "wpnr": pnr})
            links += len(link_anrs)
            record["pnr"] = pnr

        # Second phase: <cite> edges, resolvable only once every record of
        # the fragment (and of any earlier load) has a paper number.
        cites_created = unresolved = 0
        for record in records:
            csrc = record.get("pnr")
            if csrc is None:
                continue
            for cite_key in record["cites"]:
                cdst = paper_numbers.get(_fit(cite_key, PAPER_KEY_TYPE))
                if cdst is None:
                    unresolved += 1
                elif citations.find((csrc, cdst)) is None:
                    citations.insert({"csrc": csrc, "cdst": cdst})
                    cites_created += 1

    return IngestReport(
        records=len(records),
        inserted=inserted,
        updated=updated,
        unchanged=unchanged,
        skipped=skipped,
        authors_created=authors_created,
        venues_created=venues_created,
        authorship_links=links,
        citations_created=cites_created,
        unresolved_citations=unresolved,
        entities_decoded=entities,
    )
