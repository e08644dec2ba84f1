"""No cache serves a stale read: each keys on the version of what it holds.

A Hypothesis state machine adds, rewrites and seals the partitions of a
Hive table, on HDFS and on S3, with the simulated clock advanced between
steps or not.  After every step it reads the table through all sixteen
on/off combinations of the file-list, handle+footer, data and fragment
result caches; every read must return the rows last written to each
partition, as the read with every cache off does.  The caches live as long as the machine, as a coordinator's and a worker's
do, so a step's read meets what the earlier steps' reads left in them.
"""

import itertools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cache.data_cache import DataCacheConfig, TieredDataCache
from repro.cache.file_list_cache import FileListCache
from repro.cache.footer_cache import FileHandleAndFooterCache
from repro.cache.fragment_result_cache import FragmentResultCache
from repro.common.clock import SimulatedClock
from repro.connectors.hive import HiveConnector, write_hive_partition
from repro.core.page import Page
from repro.core.types import DOUBLE, VARCHAR
from repro.execution.engine import PrestoEngine
from repro.metastore.metastore import HiveMetastore
from repro.planner.analyzer import Session
from repro.storage.hdfs import HdfsFileSystem, NameNode
from repro.storage.s3 import S3Client
from repro.storage.s3_filesystem import PrestoS3FileSystem

DATES = ("d0", "d1")
QUERY = "SELECT ds, count(*), sum(v) FROM t GROUP BY ds ORDER BY ds"
# (file list, handle + footer, data, fragment result): on or off.
COMBINATIONS = list(itertools.product((False, True), repeat=4))

values = st.lists(st.integers(0, 1_000), min_size=1, max_size=12)


class VersionKeyedCaches(RuleBasedStateMachine):
    """The machine over one file system; subclasses say which."""

    def make_filesystem(self, clock: SimulatedClock):
        raise NotImplementedError

    def __init__(self) -> None:
        super().__init__()
        self.clock = SimulatedClock()
        self.fs = self.make_filesystem(self.clock)
        self.metastore = HiveMetastore()
        self.metastore.create_table(
            "db", "t", [("v", DOUBLE)], partition_keys=[("ds", VARCHAR)]
        )
        self.written: dict[str, list[int]] = {}  # partition -> its last write
        self.engines = {flags: self._engine(*flags) for flags in COMBINATIONS}

    def _engine(self, file_list, footer, data, fragment) -> PrestoEngine:
        connector = HiveConnector(
            self.metastore,
            self.fs,
            file_list_cache=FileListCache(self.fs) if file_list else None,
            footer_cache=FileHandleAndFooterCache(self.fs) if footer else None,
            data_cache=TieredDataCache(DataCacheConfig()) if data else None,
        )
        engine = PrestoEngine(
            session=Session(catalog="hive", schema="db"),
            fragment_result_cache=FragmentResultCache() if fragment else None,
        )
        engine.register_connector("hive", connector)
        return engine

    def _write(self, ds: str, rows: list[int], files: int, sealed: bool) -> None:
        page = Page.from_rows([DOUBLE], [(float(v),) for v in rows])
        write_hive_partition(
            self.metastore, self.fs, "db", "t", [ds], [page], files=files, sealed=sealed
        )
        self.written[ds] = rows

    @precondition(lambda self: len(self.written) < len(DATES))
    @rule(rows=values, files=st.integers(1, 3), sealed=st.booleans())
    def add_partition(self, rows, files, sealed):
        self._write(DATES[len(self.written)], rows, files, sealed)

    @precondition(lambda self: self.written)
    @rule(
        data=st.data(),
        same_row_count=st.booleans(),
        files=st.integers(1, 3),
        sealed=st.booleans(),
    )
    def rewrite_partition(self, data, same_row_count, files, sealed):
        """``write_hive_partition`` again: the partition is added anew and
        its files replaced at the same paths, with other values (another
        file size), and as many rows as before or not, in more or fewer
        files."""
        ds = data.draw(st.sampled_from(sorted(self.written)))
        if same_row_count:
            count = len(self.written[ds])
            rows = data.draw(st.lists(st.integers(0, 1_000), min_size=count, max_size=count))
        else:
            rows = data.draw(values)
        self._write(ds, rows, files, sealed)

    @precondition(
        lambda self: any(not p.sealed for p in self.metastore.get_table("db", "t").partitions.values())
    )
    @rule(data=st.data())
    def seal_partition(self, data):
        table = self.metastore.get_table("db", "t")
        open_partitions = sorted(v for v, p in table.partitions.items() if not p.sealed)
        self.metastore.seal_partition("db", "t", data.draw(st.sampled_from(open_partitions)))

    @rule(ms=st.sampled_from([1.0, 1_000.0]))
    def advance_clock(self, ms):
        self.clock.advance(ms)

    @invariant()
    def every_combination_reads_what_storage_holds(self):
        expected = [
            (ds, len(rows), float(sum(rows))) for ds, rows in sorted(self.written.items())
        ]
        for flags, engine in self.engines.items():
            assert engine.execute(QUERY).rows == expected, dict(
                zip(("file_list", "footer", "data", "fragment"), flags)
            )


class OnHdfs(VersionKeyedCaches):
    def make_filesystem(self, clock):
        return HdfsFileSystem(NameNode(clock))


class OnS3(VersionKeyedCaches):
    def make_filesystem(self, clock):
        return PrestoS3FileSystem(S3Client(clock), "warehouse")


BUDGET = settings(max_examples=10, stateful_step_count=5, deadline=None)
TestVersionKeysOnHdfs = OnHdfs.TestCase
TestVersionKeysOnHdfs.settings = BUDGET
TestVersionKeysOnS3 = OnS3.TestCase
TestVersionKeysOnS3.settings = BUDGET
