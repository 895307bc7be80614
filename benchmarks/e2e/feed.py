"""Render a bibliography as a DBLP-shaped XML feed (set-up of ``durable_writes``).

The feed has what real DBLP deliveries have and ``load_dblp_xml`` has code
for: a DOCTYPE declaring character entities, author names written with those
entities, ``<cite>`` edges, and re-delivered record keys (some identical,
some with corrected metadata, which the ingest resolves last-write-wins).
The same rows and seed always give the same bytes.
"""

from __future__ import annotations

import random
from xml.sax.saxutils import escape

#: Entities declared in the feed's own DOCTYPE (as in real dblp.xml) ...
DOCTYPE_ENTITIES = {
    "ü": "uuml", "ä": "auml", "ö": "ouml", "ß": "szlig",
    "Ü": "Uuml", "Ä": "Auml", "Ö": "Ouml",
}
#: ... and ones the ingest must know from its built-in table.
BUILTIN_ENTITIES = {"é": "eacute", "è": "egrave", "ç": "ccedil", "Ç": "Ccedil"}

#: Share of records delivered a second time under the same key.
DUPLICATE_SHARE = 0.05


def _text(value: str) -> str:
    encoded = escape(value)
    for table in (DOCTYPE_ENTITIES, BUILTIN_ENTITIES):
        for char, name in table.items():
            encoded = encoded.replace(char, f"&{name};")
    return encoded


def _record(paper, authors, venue, cites) -> str:
    tag, venue_field = (
        ("article", "journal") if venue["vkind"] == "journal"
        else ("inproceedings", "booktitle")
    )
    lines = [f'<{tag} mdate="2024-02-05" key="{escape(paper["pkey"])}">']
    lines += [f"<author>{_text(name)}</author>" for name in authors]
    lines.append(f"<title>{_text(paper['ptitle'])}</title>")
    lines.append(f"<year>{paper['pyear']}</year>")
    lines.append(f"<{venue_field}>{_text(venue['vname'])}</{venue_field}>")
    lines += [f"<cite>{escape(key)}</cite>" for key in cites]
    lines.append(f"</{tag}>")
    return "\n".join(lines)


def render_feed(rows: dict[str, list[dict]], seed: int) -> tuple[str, int]:
    """``(xml text, number of re-delivered records)`` for plain ``rows``.

    ``rows`` maps the five bibliography relation names to plain row dicts.
    """
    rng = random.Random(f"{seed}:feed")
    name_of = {a["anr"]: a["aname"] for a in rows["authors"]}
    venue_of = {v["vnr"]: v for v in rows["venues"]}
    key_of = {p["pnr"]: p["pkey"] for p in rows["papers"]}
    authors_of: dict[int, list[str]] = {}
    for link in sorted(rows["authorship"], key=lambda l: (l["wpnr"], l["wanr"])):
        authors_of.setdefault(link["wpnr"], []).append(name_of[link["wanr"]])
    cites_of: dict[int, list[str]] = {}
    for edge in sorted(rows["citations"], key=lambda c: (c["csrc"], c["cdst"])):
        cites_of.setdefault(edge["csrc"], []).append(key_of[edge["cdst"]])

    declared = "\n".join(
        f'  <!ENTITY {name} "{char}">' for char, name in DOCTYPE_ENTITIES.items()
    )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!DOCTYPE dblp [\n{declared}\n]>",
        "<dblp>",
    ]
    again: list[str] = []
    for paper in sorted(rows["papers"], key=lambda p: p["pnr"]):
        args = (
            authors_of.get(paper["pnr"], []),
            venue_of[paper["pvnr"]],
            cites_of.get(paper["pnr"], []),
        )
        parts.append(_record(paper, *args))
        if rng.random() < DUPLICATE_SHARE:
            if rng.random() < 0.5:  # corrected metadata under the same key
                paper = {**paper, "ptitle": paper["ptitle"] + " (rev.)"}
            again.append(_record(paper, *args))
    parts += again
    parts.append("</dblp>")
    return "\n".join(parts) + "\n", len(again)

