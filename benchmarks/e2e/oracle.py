"""Reference answers in plain Python, over the rows the benchmark handed in.

The repository's own oracle (``execute_naive``) needs 4.6 s for
``coauthor_pairs`` at bibliography scale 1 and 3.8 s for one university
query at scale 16, so it cannot check every timed operation at the
benchmark's scales.  These functions restate each workload query as set
logic over lists of plain row dicts: cheap enough to check *every* op at the
workload's real scale.  ``test_e2e_smoke.py`` cross-checks each of them
against ``execute_naive`` on a database small enough for it.

Every function returns a ``frozenset`` of plain value tuples in the column
order of the query text (result relations are sets, so duplicates collapse
exactly as the engine's do).
"""

from __future__ import annotations

from collections import defaultdict

LEVELS = ("freshman", "sophomore", "junior", "senior")


def plain_rows(database, relation_name: str) -> list[dict]:
    """The relation's rows as plain dicts (enum labels, unpadded strings)."""
    return [
        dict(zip(record.schema.field_names, plain_values(record.values)))
        for record in database.relation(relation_name)
    ]


def plain_values(values) -> tuple:
    """Storage values -> plain Python values (what the oracle computes in)."""
    return tuple(
        value.rstrip() if isinstance(value, str)
        else value if isinstance(value, int)
        else value.label
        for value in values
    )


def plain_result(records) -> list[tuple]:
    """A cursor's fetched records as plain tuples, order kept."""
    return [plain_values(record.values) for record in records]


# ----------------------------------------------------------------- university


class UniversityOracle:
    """Answers to the Figure 1 workload queries over plain rows."""

    def __init__(self, employees, papers, courses, timetable) -> None:
        self.employees = employees
        self.papers = papers
        self.level_of = {c["cnr"]: LEVELS.index(c["clevel"]) for c in courses}
        self.authors_by_year: dict[int, set[int]] = defaultdict(set)
        for paper in papers:
            self.authors_by_year[paper["pyear"]].add(paper["penr"])
        self.published = {paper["penr"] for paper in papers}
        self.taught_levels: dict[int, list[int]] = defaultdict(list)
        for entry in timetable:
            level = self.level_of.get(entry["tcnr"])
            if level is not None:
                self.taught_levels[entry["tenr"]].append(level)
        self.teachers = {entry["tenr"] for entry in timetable}

    @classmethod
    def of(cls, database) -> "UniversityOracle":
        return cls(*(plain_rows(database, name) for name in
                     ("employees", "papers", "courses", "timetable")))

    def _names(self, keep, limit=None) -> frozenset:
        return frozenset(
            (e["ename"],) for e in self.employees
            if (limit is None or e["enr"] <= limit) and keep(e)
        )

    def _no_paper_in(self, e, year) -> bool:
        return e["enr"] not in self.authors_by_year.get(year, ())

    def _teaches_at(self, e, level) -> bool:
        bound = LEVELS.index(level)
        return any(taught <= bound for taught in self.taught_levels.get(e["enr"], ()))

    # -- the query shapes ------------------------------------------------------

    def point(self, enr) -> frozenset:
        return frozenset(
            (e["enr"], e["ename"], e["estatus"]) for e in self.employees if e["enr"] == enr
        )

    def papers_until(self, year) -> frozenset:
        return frozenset(
            (p["ptitle"], p["penr"], p["pyear"]) for p in self.papers if p["pyear"] <= year
        )

    def status_lookup(self, status) -> frozenset:
        return frozenset(
            (e["enr"], e["ename"]) for e in self.employees if e["estatus"] == status
        )

    def no_papers_in_year(self, year, limit=None) -> frozenset:
        return self._names(lambda e: self._no_paper_in(e, year), limit)

    def teaches_at_level(self, level, limit=None) -> frozenset:
        return self._names(lambda e: self._teaches_at(e, level), limit)

    def running_query(self, status, year, level, limit=None) -> frozenset:
        return self._names(
            lambda e: e["estatus"] == status
            and (self._no_paper_in(e, year) or self._teaches_at(e, level)),
            limit,
        )

    def others_published(self, status, year, limit=None) -> frozenset:
        authors = self.authors_by_year.get(year, set())
        return self._names(
            lambda e: e["estatus"] == status
            and e["enr"] in self.teachers
            and bool(authors - {e["enr"]}),
            limit,
        )

    def publishing_teachers(self, level, limit=None) -> frozenset:
        return self._names(
            lambda e: e["enr"] in self.published and self._teaches_at(e, level), limit
        )


# --------------------------------------------------------------- bibliography


class BibliographyOracle:
    """Answers to the citation query library over plain rows."""

    def __init__(self, authors, venues, papers, authorship, citations) -> None:
        self.name_of = {a["anr"]: a["aname"] for a in authors}
        self.venues = venues
        self.papers = papers
        self.citations = [(c["csrc"], c["cdst"]) for c in citations]
        self.papers_of: dict[int, set[int]] = defaultdict(set)
        self.authors_of: dict[int, set[int]] = defaultdict(set)
        for link in authorship:
            self.papers_of[link["wanr"]].add(link["wpnr"])
            self.authors_of[link["wpnr"]].add(link["wanr"])

    @classmethod
    def of(cls, database) -> "BibliographyOracle":
        return cls(*(plain_rows(database, name) for name in
                     ("authors", "venues", "papers", "authorship", "citations")))

    def _names(self, anrs) -> frozenset:
        return frozenset((self.name_of[anr],) for anr in anrs if anr in self.name_of)

    def _coauthors(self, anr) -> set[int]:
        return {b for pnr in self.papers_of.get(anr, ()) for b in self.authors_of[pnr]}

    def coauthor_pairs(self) -> frozenset:
        return frozenset(
            (self.name_of[a], self.name_of[b])
            for group in self.authors_of.values()
            for a in group for b in group
            if a < b and a in self.name_of and b in self.name_of
        )

    def co_coauthors(self) -> frozenset:
        reach = {c for b in self._coauthors(1) for c in self._coauthors(b)}
        return self._names(reach - {1})

    def cites_the_prolific(self) -> frozenset:
        target = self.papers_of.get(1, set())
        citing = {src for src, dst in self.citations if dst in target}
        return self._names({a for pnr in citing for a in self.authors_of[pnr]} - {1})

    def well_cited_venues(self) -> frozenset:
        cited = {dst for _, dst in self.citations}
        uncited_venues = {p["pvnr"] for p in self.papers if p["pnr"] not in cited}
        return frozenset(
            (v["vname"],) for v in self.venues if v["vnr"] not in uncited_venues
        )

    def self_citers(self) -> frozenset:
        return self._names(
            a for src, dst in self.citations
            for a in self.authors_of[src] & self.authors_of[dst]
        )

    def cocitation(self) -> frozenset:
        recent = {p["pnr"] for p in self.papers if p["pyear"] >= 2018}
        citers_of: dict[int, set[int]] = defaultdict(set)
        for src, dst in self.citations:
            citers_of[dst].add(src)
        title_of = {p["pnr"]: p["ptitle"] for p in self.papers}
        return frozenset(
            (title_of[a],)
            for citers in citers_of.values()
            for a in citers
            if a in title_of and (citers & recent) - {a}
        )

    def recent_papers(self, year) -> frozenset:
        return frozenset((p["ptitle"],) for p in self.papers if p["pyear"] >= year)

    def coauthors_of(self, anr) -> frozenset:
        return self._names(self._coauthors(anr) - {anr})

    def venue_papers(self, venue) -> frozenset:
        vnrs = {v["vnr"] for v in self.venues if v["vname"] == venue}
        return frozenset((p["ptitle"],) for p in self.papers if p["pvnr"] in vnrs)
