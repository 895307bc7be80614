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
) -> Database:
    """Create and populate a Figure 1 database.

    ``scale`` multiplies the base cardinalities; ``seed`` makes the content
    deterministic so benchmark runs and examples are repeatable: one
    ``random.Random(seed)`` draws every row in relation order, and many tests
    pin its byte-exact output.  ``paged`` is accepted and ignored.
    """
    profile = (profile or UniversityProfile()).scaled(scale)
    database = Database(name)
    declare_schema(database)
    _populate(database, profile, seed)
    return database


def _populate(database: Database, profile: UniversityProfile, seed: int) -> None:
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


def figure1_database(paged: bool = True) -> Database:
    """A small, hand-checkable instance matching the flavour of Figure 1.

    Eight employees (three of them professors), twelve papers, six courses and
    ten timetable entries, generated with the default seed.  Used by the
    quickstart example and many unit tests.  ``paged`` is accepted and ignored.
    """
    return build_university_database(scale=1)
