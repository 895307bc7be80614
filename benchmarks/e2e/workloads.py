"""The five workloads: data, seeded operation streams, timed loops, checks.

Every workload drives ``repro.connect()`` with default options.  The data is
the same in every run (``DATA_SEED``), as a benchmark's data set is; the
*operation stream* — keys, constants, order, bindings — comes from
``--seed``, block by block, so equal seeds give equal streams however long
a run lasts.  Blocks are small (about a quarter second of work): a run
executes whole blocks until its time is up, answers are checked after each
block (outside the timed region), and exact counts are taken over the first
block, which every run completes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import threading
from collections import defaultdict, deque
from contextlib import nullcontext
from statistics import median
from time import perf_counter, sleep

import repro
from repro.workloads.bibliography import (
    BIBLIOGRAPHY_RELATIONS,
    build_bibliography_database,
    create_standard_indexes,
    load_dblp_xml,
)
from repro.workloads.bibliography import queries as citation_queries
from repro.workloads.queries import parameterized_queries
from repro.workloads.university import UniversityProfile, declare_schema

from feed import render_feed
from oracle import BibliographyOracle, UniversityOracle, plain_result, plain_rows
from tracing import Tracer, live_collection_pages, staged_replay

#: The data set is a constant of the benchmark; only the traffic is seeded.
DATA_SEED = 1982

STATUSES = ("student", "technician", "assistant", "professor")
LEVELS = ("freshman", "sophomore", "junior", "senior")
YEARS = tuple(range(1970, 1983))


class Recorder:
    """What one phase (warm-up, untraced, traced) measured."""

    def __init__(self) -> None:
        self.series: dict[str, list[float]] = defaultdict(list)  # seconds
        self.counts: dict[str, float] = defaultdict(float)
        self.wall = 0.0          # timed seconds, summed over blocks
        self.blocks = 0          # blocks finished
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracers: list[Tracer] = []
        #: One entry per block: (series its ops went to, the ops, the host's pace).
        self.paced_blocks: list[tuple[str, list[float], float]] = []
        self._seen = {"op_unsynced": 0, "op": 0}

    def end_block(self, pace: float) -> None:
        """Note the ops the block just run added, with the pace it ran at."""
        self.blocks += 1
        for name, seen in self._seen.items():
            ops = self.series[name][seen:]
            if ops:
                self._seen[name] = seen + len(ops)
                self.paced_blocks.append((name, ops, pace))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class SyncWait:
    """Stands in for ``os.fsync``: adds up the seconds inside it, or skips it.

    The disk is the shared host's.  The same fsync took 0.2 ms in one hour and
    1.4 ms in another, and an op that slept on it came back to cold caches
    and ran its own code up to 30 % slower.  ``durable_writes`` therefore
    runs every other timed block with ``skip`` set and takes its ``calm_``
    figures from those blocks: all of the program's work for a durable commit,
    none of the device's.  The blocks in between sync for real and give every
    other figure, the wait itself (``storage.fsync_wait_ms``) among them.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.skip = False
        self.fsync = os.fsync

    def __call__(self, fd) -> None:
        if self.skip:
            return
        started = perf_counter()
        try:
            self.fsync(fd)
        finally:
            self.seconds += perf_counter() - started

    def install(self) -> None:
        os.fsync = self

    def remove(self) -> None:
        if os.fsync is self:
            os.fsync = self.fsync


class Workload:
    """Set-up, seeded blocks of operations, a timed loop, a final check."""

    name = ""
    block_ops = 0
    #: Whether ops compile from never-repeated text (the replay then starts
    #: at the parser instead of at the plan-cache hit).
    cold = False

    def __init__(self, seed: int, workdir: str, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.setup_info: dict[str, float] = {}
        self.connection = None
        self._replay_memo: dict = {}

    def rng(self, *scope) -> random.Random:
        return random.Random(":".join(map(str, (self.seed, self.name) + scope)))

    # -- life cycle ----------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def after_warmup(self) -> None:
        """Called at the end of set-up, once the warm-up block has run."""

    def begin_phase(self, recorder: Recorder, tracer: Tracer | None) -> None:
        """Called before the first block of a phase."""

    def end_phase(self, recorder: Recorder) -> None:
        """Called after the last block of a phase."""

    def layer_probes(self, tracer: Tracer) -> None:
        """After a traced phase: spans around layer calls no op of the workload isolates."""

    def finish(self, recorder: Recorder) -> dict[str, tuple]:
        """After the last phase: final checks; returns extra ``{metric: (value, samples)}``."""
        return {}

    # -- operations ----------------------------------------------------------------

    def block(self, index: int) -> list:
        raise NotImplementedError

    def run_block(self, ops: list, recorder: Recorder, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def stream_hash(self, blocks: int = 3) -> str:
        """A digest of the first ``blocks`` blocks of the operation stream."""
        digest = hashlib.sha256()
        for index in range(blocks):
            digest.update(json.dumps(self.block(index), sort_keys=True, default=str).encode())
        return digest.hexdigest()


# ---------------------------------------------------------------------- read ops


def read_untraced(cursor, text, binding):
    """One read through the front door: ``(first-row s, op s, records, error)``."""
    started = perf_counter()
    try:
        cursor.execute(text, binding)
        first = cursor.fetchone()
        first_at = perf_counter()
        records = cursor.fetchall()
        done = perf_counter()
    except Exception as exc:  # a failed op is counted, never aborts the run
        now = perf_counter()
        return now - started, now - started, None, repr(exc)
    if first is not None:
        records.insert(0, first)
    return first_at - started, done - started, records, None


def read_traced(tracer, cursor, text, binding):
    """``read_untraced`` with a span around each front-door call."""
    with tracer.span("op"):
        started = perf_counter()
        try:
            with tracer.span("api.execute"):
                cursor.execute(text, binding)
            with tracer.span("api.fetch"):
                first = cursor.fetchone()
            first_at = perf_counter()
            with tracer.span("api.fetch"):
                records = cursor.fetchall()
            done = perf_counter()
        except Exception as exc:
            now = perf_counter()
            return now - started, now - started, None, repr(exc)
    if first is not None:
        records.insert(0, first)
    return first_at - started, done - started, records, None


#: cursor.statistics counters summed per query in the traced phase.
QUERY_COUNTERS = (
    "index_probes", "pages_skipped", "intermediate_tuples", "comparisons",
    "reduced_tuples", "shards_scanned", "bytes_shipped", "histogram_rebuilds",
    "reoptimizations",
)


class ReadWorkload(Workload):
    """Ops are ``(label, text, binding, (oracle method, args))`` reads on one cursor."""

    oracle = None
    cursor = None

    def expected(self, answer) -> frozenset:
        method, args = answer
        return getattr(self.oracle, method)(*args)

    def check(self, recorder: Recorder, op, records, error) -> None:
        recorder.attempted += 1
        if error is not None:
            recorder.fail(f"{op[0]}: {error}")
            return
        rows = plain_result(records)
        got = frozenset(rows)
        if len(got) != len(rows) or got != self.expected(op[3]):
            recorder.fail(f"{op[0]} {op[2]}: {len(rows)} row(s) differ from the reference answer")

    def run_block(self, ops, recorder, tracer) -> None:
        if tracer is not None:
            return self.run_block_traced(ops, recorder, tracer)
        cursor = self.cursor
        first_row, latency = recorder.series["first_row"], recorder.series["op"]
        results = []
        started = perf_counter()
        for op in ops:
            first_s, op_s, records, error = read_untraced(cursor, op[1], op[2])
            first_row.append(first_s)
            latency.append(op_s)
            results.append((records, error))
        recorder.wall += perf_counter() - started
        for op, (records, error) in zip(ops, results):
            self.check(recorder, op, records, error)

    def run_block_traced(self, ops, recorder, tracer) -> None:
        count_exactly = not recorder.blocks  # counts repeat exactly on a run's first block
        for op in ops:
            tracer.op += 1
            first_s, op_s, records, error = read_traced(tracer, self.cursor, op[1], op[2])
            recorder.wall += op_s
            recorder.series["first_row"].append(first_s)
            recorder.series["op"].append(op_s)
            self.check(recorder, op, records, error)
            if error is None:
                staged_s = self.replay(op, records, recorder, tracer, count_exactly)
                recorder.series["api.overhead"].append(op_s - staged_s)

    def replay(self, op, records, recorder, tracer, count_exactly) -> float:
        """Replay ``op`` stage by stage; returns the seconds its stages took."""
        if count_exactly:
            self.count_query(recorder, self.cursor, len(records))
        mark = len(tracer.spans)
        try:
            replayed, plan = staged_replay(
                tracer, self.connection, op[1], op[2], self.cold, self._replay_memo
            )
        except Exception as exc:
            recorder.fail(f"{op[0]}: staged replay raised {exc!r}")
            return 0.0
        if frozenset(plain_result(replayed)) != frozenset(plain_result(records)):
            recorder.fail(f"{op[0]}: staged replay rows differ from the cursor's")
        if count_exactly:
            recorder.counts["transform_steps"] += len(plan.trace.names())
            self.extra_probes(op, plan, recorder, tracer)
        return _children_seconds(tracer, mark)

    def extra_probes(self, op, plan, recorder, tracer) -> None:
        """Layer probes a workload adds beside the replay (first block only)."""

    @staticmethod
    def count_query(recorder, cursor, rows) -> None:
        statistics = cursor.statistics
        counts = recorder.counts
        counts["queries"] += 1
        counts["rows"] += rows
        read = 0
        for relation in statistics.get("relations", {}).values():
            read += relation["elements_read"]
            counts["scans"] += relation["scans"]
        recorder.series["elements_read_per_row"].append(read / max(rows, 1))
        for name in QUERY_COUNTERS:
            counts[name] += statistics.get(name, 0)
        combination = cursor.result.combination if cursor.result is not None else None
        if combination is not None:
            counts["peak_tuples"] = max(counts["peak_tuples"], combination.peak_tuples)
            for steps in combination.join_estimates:
                for _, estimate, actual in steps:
                    if estimate is not None and actual is not None:
                        qerror = max((estimate + 1) / (actual + 1), (actual + 1) / (estimate + 1))
                        counts["qerror_max"] = max(counts["qerror_max"], qerror)


# ------------------------------------------------------------------ point_lookup


class PointLookup(ReadWorkload):
    name = "point_lookup"
    block_ops = 250
    employees = 1000

    POINT = "[<e.enr, e.ename, e.estatus> OF EACH e IN employees: (e.enr = $enr)]"
    RANGE = "[<p.ptitle, p.penr, p.pyear> OF EACH p IN papers: (p.pyear <= $year)]"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Zipf(1.0) over the employee numbers; which numbers are hot is seeded.
        self.keys = list(range(1, self.employees + 1))
        self.rng("hot-keys").shuffle(self.keys)
        self.cumulative = list(itertools.accumulate(1.0 / rank for rank in range(1, self.employees + 1)))

    def setup(self) -> None:
        started = perf_counter()
        database = repro.build_university_database(
            scale=4, profile=UniversityProfile(250, 120, 160, 150), seed=DATA_SEED
        )
        self.setup_info["generate_s"] = perf_counter() - started
        database.create_index("employees", "enr", operator="=")
        database.create_index("papers", "pyear", operator="<=")
        self.connection = repro.connect(database)
        self.cursor = self.connection.cursor()
        self.oracle = UniversityOracle.of(database)

    def block(self, index):
        rng = self.rng("block", index)
        ops = []
        for enr in rng.choices(self.keys, cum_weights=self.cumulative, k=self.block_ops):
            if rng.random() < 0.15:
                year = rng.choice(YEARS)
                ops.append(("range", self.RANGE, {"year": year}, ("papers_until", (year,))))
            else:
                ops.append(("point", self.POINT, {"enr": enr}, ("point", (enr,))))
        return ops

    def extra_probes(self, op, plan, recorder, tracer) -> None:
        if op[0] != "point":
            return
        database = self.connection.database
        with tracer.span("relational.index_probe"):
            database.index_for("employees", "enr").probe_operator("=", op[2]["enr"])


# ------------------------------------------------------------------- adhoc_paper


class AdhocPaper(ReadWorkload):
    name = "adhoc_paper"
    block_ops = 100
    cold = True

    #: (weight, label, text, constants used, oracle method)
    TEMPLATES = (
        (30, "running_query", """[<e.ename> OF EACH e IN employees:
            (e.estatus = {status}) AND (e.enr <= {k}) AND
            (ALL p IN papers ((p.pyear <> {year}) OR (e.enr <> p.penr))
             OR SOME c IN courses ((c.clevel <= {level})
                AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]""",
         ("status", "year", "level"), "running_query"),
        (20, "all_branch", """[<e.ename> OF EACH e IN employees:
            (e.enr <= {k}) AND ALL p IN papers ((p.pyear <> {year}) OR (e.enr <> p.penr))]""",
         ("year",), "no_papers_in_year"),
        (20, "some_branch", """[<e.ename> OF EACH e IN employees:
            (e.enr <= {k}) AND SOME c IN courses ((c.clevel <= {level})
                AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr)))]""",
         ("level",), "teaches_at_level"),
        (15, "others_published", """[<e.ename> OF EACH e IN employees:
            (e.enr <= {k}) AND SOME p IN papers (SOME t IN timetable
                ((e.estatus = {status}) AND (e.enr <> p.penr)
                 AND (e.enr = t.tenr) AND (p.pyear = {year})))]""",
         ("status", "year"), "others_published"),
        (15, "publishing_teachers", """[<e.ename> OF EACH e IN employees:
            (e.enr <= {k}) AND SOME p IN papers (SOME c IN courses (SOME t IN timetable
                ((e.enr = p.penr) AND (c.clevel <= {level})
                 AND (c.cnr = t.tcnr) AND (e.enr = t.tenr))))]""",
         ("level",), "publishing_teachers"),
    )
    #: ``e.enr <= k`` makes every text distinct: op i takes the i-th even
    #: value of a seeded walk over 1..9998, its miss probe the odd neighbour.
    K_SLOTS = 4999
    K_STRIDE = 1013  # coprime to K_SLOTS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.k_offset = self.rng("k-offset").randrange(self.K_SLOTS)

    def setup(self) -> None:
        started = perf_counter()
        database = repro.build_university_database(scale=4, seed=DATA_SEED, paged=True)
        self.setup_info["generate_s"] = perf_counter() - started
        self.connection = repro.connect(database)
        self.cursor = self.connection.cursor()
        self.oracle = UniversityOracle.of(database)
        self.employee_count = len(database.relation("employees"))

    def block(self, index):
        rng = self.rng("block", index)
        weights = [template[0] for template in self.TEMPLATES]
        ops = []
        for position in range(self.block_ops):
            _, label, text, used, method = rng.choices(self.TEMPLATES, weights=weights)[0]
            constants = {"status": rng.choice(STATUSES), "year": rng.choice(YEARS),
                         "level": rng.choice(LEVELS)}
            slot = (self.k_offset + (index * self.block_ops + position) * self.K_STRIDE) % self.K_SLOTS
            k = 2 * slot + 2
            limit = k if k < self.employee_count else None
            args = tuple(constants[name] for name in used) + (limit,)
            ops.append((label, text.format(k=k, **constants), None, (method, args),
                        text.format(k=k - 1, **constants)))
        return ops

    def extra_probes(self, op, plan, recorder, tracer) -> None:
        # What a plan-cache miss costs the service: the sibling text (odd k) is new.
        with tracer.span("service.prepare_miss"):
            self.connection.prepare(op[4])
        hits, misses, pages = live_collection_pages(self.connection, plan)
        recorder.counts["page_hits"] += hits
        recorder.counts["page_misses"] += misses
        recorder.counts["pages_read"] += pages


# ------------------------------------------------------------ citation_analytics


class CitationAnalytics(ReadWorkload):
    name = "citation_analytics"
    block_ops = 1  # one report of nine queries

    def setup(self) -> None:
        started = perf_counter()
        database = build_bibliography_database(scale=2 if self.smoke else 4, seed=DATA_SEED)
        self.setup_info["generate_s"] = perf_counter() - started
        create_standard_indexes(database)
        self.connection = repro.connect(database)
        self.cursor = self.connection.cursor()
        self.oracle = BibliographyOracle.of(database)

    def block(self, index):
        """One report: the six library queries and the three parameterized ones."""
        rng = self.rng("block", index)
        queries = [
            (name, getattr(citation_queries, name.upper() + "_TEXT"), None, (name, ()))
            for name in citation_queries.bibliography_named_queries()
        ]
        for name, (text, bindings) in citation_queries.bibliography_parameterized_queries().items():
            binding = rng.choice(bindings)
            queries.append((name, text, binding, (name, tuple(binding.values()))))
        rng.shuffle(queries)
        return [queries]

    def run_block(self, ops, recorder, tracer) -> None:
        count_exactly = tracer is not None and not recorder.blocks
        for report in ops:
            if tracer is not None:
                tracer.op += 1
            report_s = staged_s = 0.0
            for query in report:
                if tracer is None:
                    _, op_s, records, error = read_untraced(self.cursor, query[1], query[2])
                else:
                    _, op_s, records, error = read_traced(tracer, self.cursor, query[1], query[2])
                report_s += op_s
                recorder.series["query." + query[0]].append(op_s)
                self.check(recorder, query, records, error)
                if tracer is not None and error is None:
                    staged_s += self.replay(query, records, recorder, tracer, count_exactly)
            recorder.series["op"].append(report_s)
            recorder.wall += report_s
            if tracer is not None:
                recorder.series["api.overhead"].append(report_s - staged_s)


# ---------------------------------------------------------------- durable_writes


class DurableWrites(Workload):
    name = "durable_writes"
    block_ops = 250
    WINDOW = 250            # benchmark papers alive at once: the state is stationary
    ROLLBACK_EVERY = 50     # every 50th transaction rolls back
    CHECKPOINT_EVERY = 1000  # every 1000th *commit* is followed by an in-line checkpoint
    TAIL_COMMITS = 200      # commits after the last checkpoint, replayed by recovery
    FIRST_PNR = 1_000_000
    TAIL_BLOCK = 30_000     # block index no timed phase reaches (pnr stays in range)
    sync_wait = None        # the SyncWait of the current set-up

    def setup(self) -> None:
        if self.smoke:
            self.CHECKPOINT_EVERY = 100  # a smoke run is one block per phase
        self.sync_wait = SyncWait()
        self.sync_wait.install()
        started = perf_counter()
        source = build_bibliography_database(scale=2 if self.smoke else 8, seed=DATA_SEED)
        self.setup_info["generate_s"] = perf_counter() - started
        rows = {name: plain_rows(source, name) for name in BIBLIOGRAPHY_RELATIONS}
        self.feed, self.redelivered = render_feed(rows, self.seed)
        self.directory = os.path.join(self.workdir, "durable_writes")
        shutil.rmtree(self.directory, ignore_errors=True)
        self.connection = repro.connect(self.directory, durability=repro.DURABILITY_COMMIT)
        started = perf_counter()
        self.ingest_report = load_dblp_xml(self.feed, self.connection)
        self.setup_info["ingest_s"] = perf_counter() - started
        database = self.connection.database
        create_standard_indexes(database)
        self.session = self.connection.session()
        self.relations = {name: database.relation(name) for name in BIBLIOGRAPHY_RELATIONS}
        self.base = {name: frozenset(map(_row_key, plain_rows(database, name)))
                     for name in BIBLIOGRAPHY_RELATIONS}
        self.anrs = sorted(row[0] for row in self.base["authors"])
        self.pnrs = sorted(row[0] for row in self.base["papers"])
        self.vnrs = sorted(row[0] for row in self.base["venues"])
        self.live: deque = deque()   # committed benchmark papers, oldest first
        self.done = 0                # transactions run, across phases
        self.commits = 0             # ... of which committed
        self.wal_path = os.path.join(self.directory, "wal.log")
        self.snapshot_path = os.path.join(self.directory, "snapshot.json")
        self.wal_end = 0
        # One entry per in-line checkpoint: what the cycle it closes wrote and committed.
        self.cycles: list[dict] = []
        self.cycle_user_bytes = 0
        self.cycle_wal_bytes = database.statistics.wal_bytes

    def close(self) -> None:
        super().close()
        if self.sync_wait is not None:
            self.sync_wait.remove()

    def after_warmup(self) -> None:
        # The warm-up block filled the window: from here on the state is
        # stationary.  Checkpoint cycles are counted from this checkpoint on.
        self.connection.checkpoint()
        self.commits = 0
        self.cycles.clear()
        self.cycle_user_bytes = 0
        self.cycle_wal_bytes = self.connection.database.statistics.wal_bytes

    def block(self, index):
        rng = self.rng("block", index)
        ops = []
        for position in range(self.block_ops):
            pnr = self.FIRST_PNR + index * self.block_ops + position
            paper = {"pnr": pnr, "ptitle": f"Bench paper {pnr}", "pyear": rng.randint(1990, 2023),
                     "pvnr": rng.choice(self.vnrs), "pkey": f"bench/{pnr}"}
            authors = [{"wanr": anr, "wpnr": pnr} for anr in rng.sample(self.anrs, 2)]
            cites = [{"csrc": pnr, "cdst": dst} for dst in rng.sample(self.pnrs, 2)]
            ops.append((paper, authors, cites))
        return ops

    def run_block(self, ops, recorder, tracer) -> None:
        count_exactly = not recorder.blocks
        statistics = self.connection.database.statistics
        before = storage_counts(statistics)
        commits = 0
        sync_wait = self.sync_wait
        # Every other untraced block leaves the device out (see SyncWait).
        sync_wait.skip = tracer is None and recorder.blocks % 2 == 1
        try:
            for op in ops:
                synced = sync_wait.seconds
                committed, op_s, error = self.transaction(op, recorder, tracer)
                if sync_wait.skip:
                    recorder.series["op_unsynced"].append(op_s)
                else:
                    recorder.wall += op_s
                    recorder.series["op"].append(op_s)
                    recorder.series["fsync_wait"].append(sync_wait.seconds - synced)
                recorder.attempted += 1
                if error is not None:
                    recorder.fail(error)
                commits += committed
        finally:
            sync_wait.skip = False
        if count_exactly:
            after = storage_counts(statistics)
            counts = recorder.counts
            counts["commits"] = commits
            for name in before:
                counts[name] = after[name] - before[name]

    def transaction(self, op, recorder, tracer, checkpoints=True):
        """Insert a paper with its links, retire the oldest, commit (or roll back).

        Returns ``(committed, seconds, error)``.
        """
        paper, authors, cites = op
        relations = self.relations
        self.done += 1
        rollback = self.done % self.ROLLBACK_EVERY == 0
        retire = self.live[0] if len(self.live) >= self.WINDOW else None
        inserts = [("papers", paper)] + [("authorship", row) for row in authors] \
            + [("citations", row) for row in cites]
        deletes = [] if retire is None else (
            [("citations", (row["csrc"], row["cdst"])) for row in retire[2]]
            + [("authorship", (row["wanr"], row["wpnr"])) for row in retire[1]]
            + [("papers", (retire[0]["pnr"],))]
        )
        span = _no_span
        if tracer is not None:
            span = tracer.span
            tracer.op += 1
            mark = len(tracer.spans)
        checkpoint_s = None
        started = perf_counter()
        try:
            with span("op"):
                with span("api.begin"):
                    self.session.begin()
                for name, row in inserts:
                    with span("relational.insert"):
                        relations[name].insert(row)
                for name, key in deletes:
                    with span("relational.delete"):
                        deleted = relations[name].delete_key(key)
                    if not deleted:
                        raise LookupError(f"{name} {key} of the retired paper is gone")
                if rollback:
                    with span("api.rollback"):
                        self.session.rollback()
                else:
                    with span("api.commit"):
                        self.session.commit()
                    self.commits += 1
                    # Commits are counted, not transactions: every multiple of
                    # 1000 transactions is also a multiple of 50, a rollback.
                    if checkpoints and self.commits % self.CHECKPOINT_EVERY == 0:
                        # The client checkpoints in line: the stall is this op's latency.
                        skip, self.sync_wait.skip = self.sync_wait.skip, False
                        checkpoint_at = perf_counter()
                        with span("storage.checkpoint"):
                            self.connection.checkpoint()  # always synced
                        checkpoint_s = perf_counter() - checkpoint_at
                        self.sync_wait.skip = skip
        except Exception as exc:
            if self.session.in_transaction:
                self.session.rollback()
            return False, perf_counter() - started, f"transaction {self.done}: {exc!r}"
        op_s = perf_counter() - started
        if not rollback:
            self.live.append(op)
            if retire is not None:
                self.live.popleft()
            # Every commit is fsynced: the log is durable up to its current end.
            self.wal_end = os.path.getsize(self.wal_path)
            self.cycle_user_bytes += sum(
                len(json.dumps(list(row.values()), separators=(",", ":")).encode())
                for row in (paper, *authors, *cites)
            )
        if checkpoint_s is not None:
            wal_bytes = self.connection.database.statistics.wal_bytes
            self.cycles.append({
                "checkpoint_s": checkpoint_s,
                "wal_bytes": wal_bytes - self.cycle_wal_bytes,
                "snapshot_bytes": os.path.getsize(self.snapshot_path),
                "user_bytes": self.cycle_user_bytes,
            })
            self.cycle_wal_bytes = wal_bytes
            self.cycle_user_bytes = 0
        if tracer is not None:
            recorder.series["api.overhead"].append(op_s - _children_seconds(tracer, mark))
        return not rollback, op_s, None

    def expected_rows(self) -> dict[str, frozenset]:
        rows = {name: set(base) for name, base in self.base.items()}
        for paper, authors, cites in self.live:
            rows["papers"].add(_row_key(paper))
            rows["authorship"].update(map(_row_key, authors))
            rows["citations"].update(map(_row_key, cites))
        return {name: frozenset(values) for name, values in rows.items()}

    def finish(self, recorder) -> dict[str, tuple]:
        """Checkpoint, commit a fixed tail, crash-copy, recover, compare."""
        self.connection.checkpoint()
        # Recovery always replays the same work: a fixed tail after a checkpoint.
        for op in self.block(self.TAIL_BLOCK)[: 20 if self.smoke else self.TAIL_COMMITS]:
            _, _, error = self.transaction(op, recorder, None, checkpoints=False)
            recorder.attempted += 1
            if error is not None:
                recorder.fail(error)

        crashed = os.path.join(self.workdir, "durable_writes_crashed")
        shutil.rmtree(crashed, ignore_errors=True)
        shutil.copytree(self.directory, crashed)
        # A crash loses what was never fsynced: cut the copy's log at the last commit.
        with open(os.path.join(crashed, "wal.log"), "r+b") as log:
            log.truncate(self.wal_end)
        started = perf_counter()
        recovered = repro.connect(crashed, durability=repro.DURABILITY_COMMIT)
        recovery_s = perf_counter() - started
        report = recovered.recovery_report
        expected = self.expected_rows()
        lost = 0
        for name in BIBLIOGRAPHY_RELATIONS:
            after_crash = frozenset(map(_row_key, plain_rows(recovered.database, name)))
            live = frozenset(map(_row_key, plain_rows(self.connection.database, name)))
            lost += len(expected[name] ^ after_crash)
            if live != expected[name]:
                recorder.fail(f"live relation {name} differs from the committed rows")
        recovered.close()
        shutil.rmtree(crashed, ignore_errors=True)
        if lost:
            recorder.fail(f"{lost} row(s) differ after recovery")
        replayed = len(report.replayed_transactions)
        metrics = {
            "recovery_s": (recovery_s, replayed),
            "lost_acked_commits": (lost, self.commits),
            "storage.recovery_replayed": (replayed, 1),
            "storage.recovery_records_per_s": (report.records_replayed / recovery_s,
                                               report.records_replayed),
        }
        if self.cycles:
            # The first cycle after set-up holds the same transactions in every
            # run of a seed, however many cycles the run completes: exact.
            first = self.cycles[0]
            metrics["stored_bytes_per_user_byte"] = (
                (first["wal_bytes"] + first["snapshot_bytes"]) / first["user_bytes"],
                self.CHECKPOINT_EVERY)
            metrics["storage.snapshot_bytes"] = (first["snapshot_bytes"], 1)
            metrics["storage.checkpoint_ms"] = (
                median(c["checkpoint_s"] for c in self.cycles) * 1e3, len(self.cycles))
        return metrics

    def layer_probes(self, tracer: Tracer) -> None:
        """Append and fsync this workload's record mix on a scratch log."""
        rounds = 20 if self.smoke else 200
        from repro.storage.serialize import encode_row
        from repro.storage.wal import WriteAheadLog

        path = os.path.join(self.workdir, "scratch-wal.log")
        log = WriteAheadLog(path)
        try:
            for txid, (paper, authors, cites) in enumerate(self.block(self.TAIL_BLOCK + 1)[:rounds]):
                rows = [("papers", paper)] + [("authorship", r) for r in authors] \
                    + [("citations", r) for r in cites]
                with tracer.span("storage.wal_append"):
                    log.append("BEGIN", txid)
                for name, row in rows:
                    encoded = encode_row(self.relations[name].schema.coerce_values(row))
                    with tracer.span("storage.wal_append"):
                        log.append("INSERT", txid, rel=name, row=encoded)
                with tracer.span("storage.wal_append"):
                    log.append("COMMIT", txid)
                with tracer.span("storage.wal_flush"):
                    log.flush(fsync=True)
        finally:
            log.close()
            os.remove(path)


def storage_counts(statistics) -> dict[str, float]:
    """The write-path counters of a database's shared statistics."""
    return {name: getattr(statistics, name) for name in
            ("wal_records", "wal_bytes", "wal_flushes", "index_maintenance_ops",
             "histogram_rebuilds")}


def _row_key(row: dict) -> tuple:
    return tuple(row.values())


def _children_seconds(tracer: Tracer, mark: int) -> float:
    """Seconds covered by the direct children of the span at index ``mark``."""
    return sum(end - start for _, start, end, parent, _ in tracer.spans[mark + 1:]
               if parent == mark)


_NO_SPAN = nullcontext()


def _no_span(name: str):
    """Stands in for ``Tracer.span`` on the untraced path."""
    return _NO_SPAN


# ----------------------------------------------------------- readers_with_writer


class ReadersWithWriter(ReadWorkload):
    name = "readers_with_writer"
    block_ops = 55          # five rounds over the eleven (text, binding) pairs
    COMMITS_PER_SECOND = 100
    DELETE_AFTER = 50

    def setup(self) -> None:
        started = perf_counter()
        source = repro.build_university_database(scale=4 if self.smoke else 16, seed=DATA_SEED)
        self.setup_info["generate_s"] = perf_counter() - started
        self.directory = os.path.join(self.workdir, "readers_with_writer")
        shutil.rmtree(self.directory, ignore_errors=True)
        self.connection = repro.connect(self.directory, durability=repro.DURABILITY_COMMIT)
        database = self.connection.database
        declare_schema(database)
        with self.connection.session():
            for relation in source.relations():
                target = database.relation(relation.name)
                for row in plain_rows(source, relation.name):
                    target.insert(row)
        self.cursor = self.connection.cursor()
        self.oracle = UniversityOracle.of(database)
        self.base_papers = frozenset(map(_row_key, plain_rows(database, "papers")))
        self.authors = sorted(self.oracle.published)
        self.pairs = [
            (name, text, binding, (name, tuple(binding.values())))
            for name, (text, bindings) in parameterized_queries().items()
            for binding in bindings
        ]
        self.phase = 0
        self.writer = None

    def block(self, index):
        # The same eleven pairs each round; the seed picks where the round starts.
        shift = self.rng("block", index).randrange(len(self.pairs))
        rotated = self.pairs[shift:] + self.pairs[:shift]
        return rotated * (self.block_ops // len(self.pairs))

    # -- the open-loop writer ----------------------------------------------------------

    def begin_phase(self, recorder, tracer) -> None:
        self.phase += 1
        self.stop = threading.Event()
        self.writer_tracer = Tracer("writer") if tracer is not None else None
        if self.writer_tracer is not None:
            recorder.tracers.append(self.writer_tracer)
        self.counts_before = storage_counts(self.connection.database.statistics)
        # The writer thread records on its own and is merged in when it has stopped.
        self.writer_recorder = Recorder()
        self.writer = threading.Thread(
            target=self._write,
            args=(self.writer_recorder, self.writer_tracer, self.phase),
            daemon=True,
        )
        self.writer.start()

    def end_phase(self, recorder) -> None:
        self.stop.set()
        self.writer.join(timeout=30)
        if self.writer.is_alive():
            recorder.fail("the writer thread did not stop")
            return
        written = self.writer_recorder
        for name, values in written.series.items():
            recorder.series[name].extend(values)
        recorder.attempted += written.attempted
        recorder.failed += written.failed
        recorder.errors.extend(written.errors)
        recorder.counts["commits"] = written.attempted
        after = storage_counts(self.connection.database.statistics)
        for name, before in self.counts_before.items():
            recorder.counts[name] = after[name] - before

    def _write(self, recorder, tracer, phase) -> None:
        """Commit on a schedule; time each commit from when it was due."""
        span = tracer.span if tracer is not None else _no_span
        papers = self.connection.database.relation("papers")
        session = self.connection.session()
        pending: deque = deque()
        interval = 1.0 / self.COMMITS_PER_SECOND
        lag = recorder.series["write_lag"]
        origin = perf_counter()
        for number in itertools.count():
            due = origin + number * interval
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            if self.stop.is_set():
                break
            row = {"penr": self.authors[number % len(self.authors)], "pyear": 1999,
                   "ptitle": f"Bench {phase}-{number}"}
            if tracer is not None:
                tracer.op += 1
            try:
                with span("op"):
                    with span("api.begin"):
                        session.begin()
                    with span("relational.insert"):
                        record = papers.insert(row)
                    pending.append(record.key)  # the stored key: char arrays are padded
                    if len(pending) > self.DELETE_AFTER:
                        with span("relational.delete"):
                            deleted = papers.delete_key(pending.popleft())
                        if not deleted:
                            raise LookupError("the row inserted 50 commits ago is gone")
                    with span("api.commit"):
                        session.commit()
            except Exception as exc:
                recorder.fail(f"writer commit {number}: {exc!r}")
                if session.in_transaction:
                    session.rollback()
            lag.append(perf_counter() - due)
            recorder.attempted += 1
        # Leave the data as the readers' reference answers assume.
        try:
            with session:
                for key in pending:
                    papers.delete_key(key)
        except Exception as exc:
            recorder.fail(f"writer clean-up: {exc!r}")

    def finish(self, recorder) -> dict[str, tuple]:
        live = frozenset(map(_row_key, plain_rows(self.connection.database, "papers")))
        if live != self.base_papers:
            recorder.fail("papers differ from the base rows after the writer cleaned up")
        return {}


WORKLOADS = {
    workload.name: workload
    for workload in (PointLookup, AdhocPaper, CitationAnalytics, DurableWrites, ReadersWithWriter)
}
