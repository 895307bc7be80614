"""Deterministic skewed generator for the bibliographic domain.

Where the university generator produces *uniform* data (the selectivities of
the paper's running query, nothing more), real bibliographic data is the
classic skewed, correlated workload:

* **authorship is Zipfian** — a small head of prolific authors writes a
  disproportionate share of the papers (author 1 is the most prolific;
  author rank ``a`` carries weight ``1/a**author_zipf``);
* **citations are Zipfian and correlated** — paper rank ``t`` attracts
  citations with weight ``1/t**citation_zipf``, and a paper only cites
  papers *older* than itself.  Publication years grow monotonically with the
  paper number, so low-numbered papers are both the oldest and the most
  cited — exactly the head the histogram subsystem's hot-key lists exist
  for;
* **venue sizes are power-law** — venue rank ``r`` receives papers with
  weight ``1/r``, so one venue dominates and the tail is sparse.

Determinism
-----------

Generation is split into a *fixed* number of chunks per relation
(:data:`CHUNKS`), each drawing from its own
``random.Random(f"{seed}:bibliography:{relation}:{chunk}")``.  Chunks are
pure functions of their derived seed and the (deterministic) cumulative
weight tables, and all rows are inserted afterwards in ``(relation, chunk)``
order — so the produced database depends only on ``(seed, profile)``, not
on the order the chunks are generated in (a hypothesis property pins this).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.relational.database import Database
from repro.workloads.bibliography.schema import VENUE_KIND_TYPE, declare_schema

__all__ = [
    "CHUNKS",
    "BibliographyProfile",
    "build_bibliography_database",
    "bibliography_database",
]

#: Fixed chunk count per relation.  Constant on purpose: the chunk layout
#: fixes every chunk's derived RNG stream, and with it the contents.
CHUNKS = 8

#: Number of distinct author-pool positions across the corpus (career eras).
#: The last era is "modern": flat collaborations, and the only one whose
#: papers carry digitised reference lists.
ERAS = 3

_GIVEN_NAMES = (
    "Thomas", "Christine", "Daniel", "Nikolaus", "Willi", "Alexander",
    "Konstantin", "Maria", "Jürgen", "Björn", "André", "Agnès",
    "Peter", "Joan", "David", "Emel",
)
_SURNAMES = (
    "Hütter", "Schäler", "Müller", "Augsten", "Kocher", "Groß",
    "Jarke", "Schmidt", "Bernstein", "Chiu", "Naughton", "Kießling",
    "Çetintemel", "Özsu", "Selinger", "Astrahan",
)
_TOPICS = (
    "Joins", "Histograms", "Sketches", "Semijoins", "Übersetzer",
    "Zugriffspfade", "Provenance", "Clustering", "Indexing", "Streams",
)
_VENUE_NAMES = (
    "SIGMOD Conference", "Proc. VLDB Endow.", "TODS", "ICDE",
    "EDBT", "PODS", "CIDR", "BTW",
)

_YEAR_LO = 1960
_YEAR_HI = 2023


@dataclass(frozen=True)
class BibliographyProfile:
    """Cardinalities and skew knobs of the generated bibliography.

    The defaults, multiplied by the scale factor, keep the database small
    enough for ground-truth comparison at scale 1–2 while the skew exponents
    put real mass on the heads (author 1, paper 1, venue 1).
    """

    authors: int = 40
    venues: int = 5
    papers: int = 22
    #: Zipf exponent of the prolific-author head (within the active window).
    author_zipf: float = 1.6
    #: Zipf exponent of the highly-cited-paper head.
    citation_zipf: float = 1.6
    #: Power-law exponent of the venue-size distribution.
    venue_zipf: float = 1.5
    #: Candidate author counts per paper (drawn uniformly).
    authors_per_paper: tuple = (1, 2, 2, 3, 3, 4)
    #: Candidate citation out-degrees per *citing* paper (drawn uniformly) —
    #: modern reference lists run long.
    out_degrees: tuple = (8, 9, 10, 11, 12)
    #: Authors have careers: a paper's author pool is a sliding window of
    #: this fraction of the author range, positioned by the paper's era.
    #: In the historical eras the window's senior-most authors carry the
    #: Zipf head, so every era has its own local heavy hitters — retired by
    #: the time the modern era is written.  The modern era itself draws
    #: authors *flat* (broad, egalitarian collaborations).
    career_window: float = 0.5

    def scaled(self, scale: int) -> "BibliographyProfile":
        """The profile with every cardinality multiplied by ``scale``."""
        return BibliographyProfile(
            authors=self.authors * scale,
            venues=self.venues * scale,
            papers=self.papers * scale,
            author_zipf=self.author_zipf,
            citation_zipf=self.citation_zipf,
            venue_zipf=self.venue_zipf,
            authors_per_paper=self.authors_per_paper,
            out_degrees=self.out_degrees,
            career_window=self.career_window,
        )

    @property
    def window_width(self) -> int:
        """The author-pool window size (fixed, so one weight table serves)."""
        return max(int(self.authors * self.career_window), 1)

    def era(self, pnr: int) -> int:
        """The era (``0 .. ERAS-1``) paper ``pnr`` belongs to."""
        return ((pnr - 1) * ERAS) // max(self.papers, 1)

    def is_modern(self, pnr: int) -> bool:
        """Whether ``pnr`` lies in the modern (last) era.

        Only modern papers carry reference lists — real bibliographic feeds
        hold citation records almost exclusively for recent entries — and
        modern papers draw their authors flat instead of Zipf.
        """
        return self.era(pnr) == ERAS - 1

    def author_window_start(self, pnr: int) -> int:
        """First author (0-based offset) of paper ``pnr``'s active window.

        Quantized to :data:`ERAS` positions so each era has a stable pool —
        and a stable local Zipf head — rather than a continuously sliding
        one.
        """
        return self.era(pnr) * (self.authors - self.window_width) // max(ERAS - 1, 1)


# ----------------------------------------------------------------- weight tables


def _zipf_cumulative(count: int, exponent: float) -> list[float]:
    """``cum[i] = sum(1/r**exponent for r in 1..i)`` with ``cum[0] = 0``.

    One shared read-only table per build; every chunk bisects into it, so a
    Zipf draw is O(log n) and — crucially — a pure function of the chunk's
    own RNG stream.
    """
    cum = [0.0]
    total = 0.0
    for rank in range(1, count + 1):
        total += 1.0 / rank**exponent
        cum.append(total)
    return cum


def _zipf_draw(rng: random.Random, cum: list[float], hi: int) -> int:
    """Draw a rank in ``1..hi`` with probability proportional to its weight."""
    u = rng.random() * cum[hi]
    rank = bisect_right(cum, u, lo=0, hi=hi + 1)
    return min(max(rank, 1), hi)


def _paper_year(pnr: int, papers: int) -> int:
    """The deterministic base year of paper ``pnr`` (monotone in ``pnr``)."""
    span = _YEAR_HI - _YEAR_LO - 1
    return _YEAR_LO + ((pnr - 1) * span) // max(papers, 1)


def _chunk_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous, balanced ``[start, end)`` slices of ``range(total)``."""
    step, extra = divmod(total, parts)
    bounds = []
    start = 0
    for index in range(parts):
        end = start + step + (1 if index < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def _chunk_rng(seed: int, relation: str, chunk: int) -> random.Random:
    """The derived RNG of one generation chunk (stream independent of all others)."""
    return random.Random(f"{seed}:bibliography:{relation}:{chunk}")


# ----------------------------------------------------------------- chunk generators


def _generate_authors(rng: random.Random, lo: int, hi: int, profile) -> list[dict]:
    rows = []
    for anr in range(lo + 1, hi + 1):
        rows.append(
            {
                "anr": anr,
                "aname": f"{rng.choice(_GIVEN_NAMES)} {rng.choice(_SURNAMES)}",
            }
        )
    return rows


def _generate_venues(rng: random.Random, lo: int, hi: int, profile) -> list[dict]:
    kinds = list(VENUE_KIND_TYPE.labels)
    rows = []
    for vnr in range(lo + 1, hi + 1):
        base = _VENUE_NAMES[(vnr - 1) % len(_VENUE_NAMES)]
        name = base if vnr <= len(_VENUE_NAMES) else f"{base[:30]} {vnr}"
        rows.append(
            {
                "vnr": vnr,
                "vname": name,
                # journals and conferences dominate; workshops are the tail
                "vkind": kinds[0] if rng.random() < 0.4 else (
                    kinds[1] if rng.random() < 0.8 else kinds[2]
                ),
            }
        )
    return rows


def _generate_papers(
    rng: random.Random, lo: int, hi: int, profile, venue_cum: list[float]
) -> list[dict]:
    rows = []
    for pnr in range(lo + 1, hi + 1):
        year = min(_paper_year(pnr, profile.papers) + rng.randint(0, 2), _YEAR_HI)
        rows.append(
            {
                "pnr": pnr,
                "ptitle": f"On {rng.choice(_TOPICS)} {pnr}",
                "pyear": year,
                "pvnr": _zipf_draw(rng, venue_cum, profile.venues),
                "pkey": f"gen/bib/{pnr}",
            }
        )
    return rows


def _generate_authorship(
    rng: random.Random, lo: int, hi: int, profile, window_cum: list[float]
) -> list[dict]:
    """Authorship links for the papers in ``(lo, hi]`` (keys disjoint by slice).

    Historical papers draw their authors Zipf *within the paper's era
    window*: the window's senior-most member is the era's heavy hitter, and
    as the window slides with the corpus, early heads retire.  Modern papers
    draw flat over their window — broad, egalitarian collaborations — so the
    only era whose papers carry reference lists has no authorship hub.  The
    benchmark leans on exactly this correlation: the prolific heads look
    explosive to join on, yet none of their papers cite anything.
    """
    rows = []
    width = profile.window_width
    for pnr in range(lo + 1, hi + 1):
        start = profile.author_window_start(pnr)
        flat = profile.is_modern(pnr)
        count = rng.choice(profile.authors_per_paper)
        seen: set[int] = set()
        # Bounded retry: with Zipfian draws the same head author repeats, so
        # the link count is "up to count" — realistic and still deterministic.
        for _ in range(count * 3):
            if len(seen) >= count:
                break
            if flat:
                # Modern collaborations cross era boundaries: flat over the
                # whole author range, so no author is a modern hub.
                anr = rng.randint(1, profile.authors)
            else:
                anr = start + _zipf_draw(rng, window_cum, width)
            if anr not in seen:
                seen.add(anr)
                rows.append({"wanr": anr, "wpnr": pnr})
    return rows


def _generate_citations(
    rng: random.Random, lo: int, hi: int, profile, citation_cum: list[float]
) -> list[dict]:
    """Citation edges whose source lies in ``(lo, hi]`` (keys disjoint by slice).

    Only the corpus's modern era carries reference lists — bibliographic
    feeds rarely hold citation records for old entries.  Targets are drawn
    Zipf over ``1..csrc-1``: a paper cites the past, so the target's
    (monotone-in-number) year never exceeds the source's, and the oldest
    papers accumulate the heavy in-degree head.
    """
    rows = []
    for csrc in range(lo + 1, hi + 1):
        if csrc <= 1 or not profile.is_modern(csrc):
            continue  # historical records: no digitised reference list
        degree = rng.choice(profile.out_degrees)
        seen: set[int] = set()
        for _ in range(degree * 3):
            if len(seen) >= degree:
                break
            cdst = _zipf_draw(rng, citation_cum, csrc - 1)
            if cdst not in seen:
                seen.add(cdst)
                rows.append({"csrc": csrc, "cdst": cdst})
    return rows


# ----------------------------------------------------------------- build entry point


def build_bibliography_database(
    scale: int = 1,
    profile: BibliographyProfile | None = None,
    seed: int = 1982,
    name: str = "bibliography",
    paged: bool = True,
) -> Database:
    """Create and populate a bibliographic database.

    ``scale`` multiplies the base cardinalities; ``seed`` makes the content
    deterministic (:data:`CHUNKS` chunks per relation, each with its own
    derived RNG).  ``paged`` is accepted and ignored.
    """
    profile = (profile or BibliographyProfile()).scaled(scale)
    database = Database(name)
    declare_schema(database)

    window_cum = _zipf_cumulative(profile.window_width, profile.author_zipf)
    venue_cum = _zipf_cumulative(profile.venues, profile.venue_zipf)
    citation_cum = _zipf_cumulative(profile.papers, profile.citation_zipf)

    paper_bounds = _chunk_bounds(profile.papers, CHUNKS)
    jobs: dict[tuple[str, int], tuple] = {}
    for chunk, (lo, hi) in enumerate(_chunk_bounds(profile.authors, CHUNKS)):
        jobs[("authors", chunk)] = (_generate_authors, lo, hi, profile)
    for chunk, (lo, hi) in enumerate(_chunk_bounds(profile.venues, CHUNKS)):
        jobs[("venues", chunk)] = (_generate_venues, lo, hi, profile)
    for chunk, (lo, hi) in enumerate(paper_bounds):
        jobs[("papers", chunk)] = (_generate_papers, lo, hi, profile, venue_cum)
    for chunk, (lo, hi) in enumerate(paper_bounds):
        jobs[("authorship", chunk)] = (_generate_authorship, lo, hi, profile, window_cum)
    for chunk, (lo, hi) in enumerate(paper_bounds):
        jobs[("citations", chunk)] = (_generate_citations, lo, hi, profile, citation_cum)

    results = {
        key: args[0](_chunk_rng(seed, key[0], key[1]), *args[1:])
        for key, args in jobs.items()
    }

    for relation_name in ("authors", "venues", "papers", "authorship", "citations"):
        relation = database.relation(relation_name)
        for chunk in range(CHUNKS):
            for row in results[(relation_name, chunk)]:
                relation.insert(row)
    return database


def bibliography_database(paged: bool = True) -> Database:
    """A small, hand-checkable scale-1 instance (40 authors, 22 papers);
    ``paged`` is accepted and ignored."""
    return build_bibliography_database(scale=1)
