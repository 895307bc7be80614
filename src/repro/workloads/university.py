"""Figure 1: the computer-science-department sample database.

The paper's Figure 1 declares four relations — ``employees``, ``papers``,
``courses`` and ``timetable`` — together with their PASCAL scalar types.
This module reproduces the declarations verbatim and adds a deterministic
synthetic data generator with a scale-factor knob, so every example and
benchmark runs against data with the selectivities the paper's running query
relies on (professors among the employees, 1977 papers, sophomore-or-lower
courses, timetable entries linking employees and courses).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.relational.database import Database
from repro.types.scalar import CharArray, Enumeration, Subrange

__all__ = [
    "STATUS_TYPE",
    "DAY_TYPE",
    "LEVEL_TYPE",
    "NAME_TYPE",
    "TITLE_TYPE",
    "ROOM_TYPE",
    "YEAR_TYPE",
    "TIME_TYPE",
    "ENUMBER_TYPE",
    "CNUMBER_TYPE",
    "UniversityProfile",
    "declare_schema",
    "build_university_database",
    "figure1_database",
]

# --------------------------------------------------------------------------- Figure 1 types

STATUS_TYPE = Enumeration("statustype", ("student", "technician", "assistant", "professor"))
DAY_TYPE = Enumeration("daytype", ("monday", "tuesday", "wednesday", "thursday", "friday"))
LEVEL_TYPE = Enumeration("leveltype", ("freshman", "sophomore", "junior", "senior"))
NAME_TYPE = CharArray(10, "nametype")
TITLE_TYPE = CharArray(40, "titletype")
ROOM_TYPE = CharArray(5, "roomtype")
YEAR_TYPE = Subrange(1900, 1999, "yeartype")
TIME_TYPE = Subrange(8000900, 18002000, "timetype")
ENUMBER_TYPE = Subrange(1, 9999, "enumbertype")
CNUMBER_TYPE = Subrange(1, 9999, "cnumbertype")

_FIRST_NAMES = (
    "Highman", "Jarke", "Schmidt", "Mall", "Koch", "Stohr", "Palermo", "Codd",
    "Kim", "Wong", "Selinger", "Astrahan", "Gotlieb", "Bernstein", "Chiu", "Quine",
)
_SUBJECTS = (
    "Databases", "Compilers", "Logic", "Networks", "Graphics", "Systems",
    "Algorithms", "Languages", "Statistics", "Automata",
)


@dataclass(frozen=True)
class UniversityProfile:
    """Cardinalities and selectivities of the generated data.

    The defaults, multiplied by the scale factor, keep the proportions the
    paper's running query needs: roughly a third of the employees are
    professors, a quarter of the papers were published in 1977, and half of
    the courses are at sophomore level or below.
    """

    employees: int = 8
    papers: int = 12
    courses: int = 6
    timetable: int = 10
    professor_fraction: float = 0.35
    papers_1977_fraction: float = 0.25
    low_level_fraction: float = 0.5

    def scaled(self, scale: int) -> "UniversityProfile":
        """The profile with every cardinality multiplied by ``scale``."""
        return UniversityProfile(
            employees=self.employees * scale,
            papers=self.papers * scale,
            courses=self.courses * scale,
            timetable=self.timetable * scale,
            professor_fraction=self.professor_fraction,
            papers_1977_fraction=self.papers_1977_fraction,
            low_level_fraction=self.low_level_fraction,
        )


def declare_schema(database: Database) -> None:
    """Declare the four Figure 1 relations in ``database`` (without data)."""
    database.create_relation(
        "employees",
        [
            ("enr", ENUMBER_TYPE),
            ("ename", NAME_TYPE),
            ("estatus", STATUS_TYPE),
        ],
        key=["enr"],
    )
    database.create_relation(
        "papers",
        [
            ("penr", ENUMBER_TYPE),
            ("pyear", YEAR_TYPE),
            ("ptitle", TITLE_TYPE),
        ],
        key=["ptitle", "penr"],
    )
    database.create_relation(
        "courses",
        [
            ("cnr", CNUMBER_TYPE),
            ("clevel", LEVEL_TYPE),
            ("ctitle", TITLE_TYPE),
        ],
        key=["cnr"],
    )
    database.create_relation(
        "timetable",
        [
            ("tenr", ENUMBER_TYPE),
            ("tcnr", CNUMBER_TYPE),
            ("tday", DAY_TYPE),
            ("ttime", TIME_TYPE),
            ("troom", ROOM_TYPE),
        ],
        key=["tenr", "tcnr", "tday"],
    )


def build_university_database(
    scale: int = 1,
    profile: UniversityProfile | None = None,
    seed: int = 1982,
    name: str = "university",
    paged: bool = True,
    workers: int = 0,
) -> Database:
    """Create and populate a Figure 1 database.

    ``scale`` multiplies the base cardinalities; ``seed`` makes the content
    deterministic so benchmark runs and examples are repeatable.

    ``workers`` selects the generator: ``0`` (the default) is the original
    sequential generator, whose byte-exact output many tests pin.  A value
    greater than one generates each relation in ``workers`` horizontal chunks
    on a thread pool — every chunk draws from its own
    ``random.Random(f"{seed}:{relation}:{chunk}")``, so the produced database
    depends only on ``(seed, profile, workers)``, **never** on which worker
    ran first (the earlier whole-run RNG would have made parallel generation
    order-dependent).  Chunked content differs from sequential content — the
    streams differ — but each mode is individually deterministic.
    """
    profile = (profile or UniversityProfile()).scaled(scale)
    database = Database(name, paged=paged)
    declare_schema(database)
    if workers > 1:
        _populate_parallel(database, profile, seed, workers)
    else:
        _populate_sequential(database, profile, seed)
    return database


def _populate_sequential(database: Database, profile: UniversityProfile, seed: int) -> None:
    """The original single-RNG generator (byte-exact output is pinned by tests)."""
    rng = random.Random(seed)
    employees = database.relation("employees")
    statuses = list(STATUS_TYPE.labels)
    non_professor = [label for label in statuses if label != "professor"]
    for enr in range(1, profile.employees + 1):
        if rng.random() < profile.professor_fraction:
            status = "professor"
        else:
            status = rng.choice(non_professor)
        employees.insert(
            {
                "enr": enr,
                "ename": f"{rng.choice(_FIRST_NAMES)[:8]}{enr % 100:02d}",
                "estatus": status,
            }
        )

    papers = database.relation("papers")
    for pnr in range(1, profile.papers + 1):
        author = rng.randint(1, profile.employees)
        year = 1977 if rng.random() < profile.papers_1977_fraction else rng.randint(1970, 1982)
        papers.insert(
            {
                "penr": author,
                "pyear": year,
                "ptitle": f"On {rng.choice(_SUBJECTS)} {pnr}",
            }
        )

    courses = database.relation("courses")
    levels = list(LEVEL_TYPE.labels)
    for cnr in range(1, profile.courses + 1):
        if rng.random() < profile.low_level_fraction:
            level = rng.choice(levels[:2])       # freshman or sophomore
        else:
            level = rng.choice(levels[2:])       # junior or senior
        courses.insert(
            {
                "cnr": cnr,
                "clevel": level,
                "ctitle": f"Introduction to {rng.choice(_SUBJECTS)} {cnr}",
            }
        )

    timetable = database.relation("timetable")
    days = list(DAY_TYPE.labels)
    attempts = 0
    while len(timetable) < profile.timetable and attempts < profile.timetable * 20:
        attempts += 1
        entry = {
            "tenr": rng.randint(1, profile.employees),
            "tcnr": rng.randint(1, profile.courses),
            "tday": rng.choice(days),
            "ttime": rng.choice((9001000, 10001100, 11001200, 14001500, 15001600)),
            "troom": f"R{rng.randint(1, 99):02d}",
        }
        # Coerce the day label: stored keys hold EnumValues, so a raw string
        # key would never match and a colliding draw would raise on insert.
        key = (entry["tenr"], entry["tcnr"], DAY_TYPE.value(entry["tday"]))
        if timetable.find(key) is None:
            timetable.insert(entry)


# ------------------------------------------------------------- parallel generation


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
    """The derived RNG of one generation chunk.

    Seeding from the ``"seed:relation:chunk"`` string keeps every chunk's
    stream independent of every other chunk's — the fix for the classic
    shared-RNG bug where the rows a worker produced depended on how many
    draws *other* workers had already made.  (``random.Random(str)`` seeds
    by hashing the string with SHA-512, not with ``PYTHONHASHSEED``.)
    """
    return random.Random(f"{seed}:{relation}:{chunk}")


def _generate_employees(rng: random.Random, lo: int, hi: int, profile: UniversityProfile) -> list[dict]:
    non_professor = [label for label in STATUS_TYPE.labels if label != "professor"]
    rows = []
    for enr in range(lo + 1, hi + 1):
        if rng.random() < profile.professor_fraction:
            status = "professor"
        else:
            status = rng.choice(non_professor)
        rows.append(
            {
                "enr": enr,
                "ename": f"{rng.choice(_FIRST_NAMES)[:8]}{enr % 100:02d}",
                "estatus": status,
            }
        )
    return rows


def _generate_papers(rng: random.Random, lo: int, hi: int, profile: UniversityProfile) -> list[dict]:
    rows = []
    for pnr in range(lo + 1, hi + 1):
        author = rng.randint(1, profile.employees)
        year = 1977 if rng.random() < profile.papers_1977_fraction else rng.randint(1970, 1982)
        rows.append(
            {
                "penr": author,
                "pyear": year,
                "ptitle": f"On {rng.choice(_SUBJECTS)} {pnr}",
            }
        )
    return rows


def _generate_courses(rng: random.Random, lo: int, hi: int, profile: UniversityProfile) -> list[dict]:
    levels = list(LEVEL_TYPE.labels)
    rows = []
    for cnr in range(lo + 1, hi + 1):
        if rng.random() < profile.low_level_fraction:
            level = rng.choice(levels[:2])
        else:
            level = rng.choice(levels[2:])
        rows.append(
            {
                "cnr": cnr,
                "clevel": level,
                "ctitle": f"Introduction to {rng.choice(_SUBJECTS)} {cnr}",
            }
        )
    return rows


def _generate_timetable(
    rng: random.Random, lo: int, hi: int, quota: int, profile: UniversityProfile
) -> list[dict]:
    """One chunk's timetable entries, with ``tenr`` confined to ``(lo, hi]``.

    Confining each chunk to its own employee slice makes chunk key sets
    disjoint — no cross-chunk duplicate can arise, so the assembled relation
    does not depend on insertion interleaving.
    """
    days = list(DAY_TYPE.labels)
    rows: list[dict] = []
    if hi <= lo:  # no employees in this chunk: no timetable keys either
        return rows
    seen: set[tuple] = set()
    attempts = 0
    while len(rows) < quota and attempts < quota * 20:
        attempts += 1
        entry = {
            "tenr": rng.randint(lo + 1, hi),
            "tcnr": rng.randint(1, profile.courses),
            "tday": rng.choice(days),
            "ttime": rng.choice((9001000, 10001100, 11001200, 14001500, 15001600)),
            "troom": f"R{rng.randint(1, 99):02d}",
        }
        key = (entry["tenr"], entry["tcnr"], entry["tday"])
        if key not in seen:
            seen.add(key)
            rows.append(entry)
    return rows


def _populate_parallel(
    database: Database, profile: UniversityProfile, seed: int, workers: int
) -> None:
    """Generate every relation in per-chunk parallel tasks, then assemble.

    Workers only *generate* (pure functions of their derived RNG); the parent
    inserts all rows afterwards in ``(relation, chunk)`` order, so worker
    scheduling cannot influence the stored database.
    """
    jobs: dict[tuple[str, int], tuple] = {}
    for chunk, (lo, hi) in enumerate(_chunk_bounds(profile.employees, workers)):
        jobs[("employees", chunk)] = (_generate_employees, lo, hi, profile)
    for chunk, (lo, hi) in enumerate(_chunk_bounds(profile.papers, workers)):
        jobs[("papers", chunk)] = (_generate_papers, lo, hi, profile)
    for chunk, (lo, hi) in enumerate(_chunk_bounds(profile.courses, workers)):
        jobs[("courses", chunk)] = (_generate_courses, lo, hi, profile)
    employee_chunks = _chunk_bounds(profile.employees, workers)
    timetable_quotas = _chunk_bounds(profile.timetable, workers)
    for chunk, (lo, hi) in enumerate(employee_chunks):
        quota = timetable_quotas[chunk][1] - timetable_quotas[chunk][0]
        jobs[("timetable", chunk)] = (_generate_timetable, lo, hi, quota, profile)

    # Imported on use: serial generation, the default, must not load the
    # executor machinery (and logging with it) into every process.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            key: pool.submit(args[0], _chunk_rng(seed, key[0], key[1]), *args[1:])
            for key, args in jobs.items()
        }
        results = {key: future.result() for key, future in futures.items()}

    for relation_name in ("employees", "papers", "courses", "timetable"):
        relation = database.relation(relation_name)
        for chunk in range(workers):
            for row in results[(relation_name, chunk)]:
                relation.insert(row)


def figure1_database(paged: bool = True) -> Database:
    """A small, hand-checkable instance matching the flavour of Figure 1.

    Eight employees (three of them professors), twelve papers, six courses and
    ten timetable entries, generated with the default seed.  Used by the
    quickstart example and many unit tests.
    """
    return build_university_database(scale=1, paged=paged)
