"""Nested data, the new Parquet reader, and schema evolution (section V).

Walks the paper's complex-data story end to end:

1. write deeply nested trips data (a 20-field ``base`` struct, 5 levels)
   into Hive partitions with the native Parquet writer;
2. run the paper's example query with the old reader and the new reader,
   showing the work each does (values decoded, row groups skipped), then
   repeat it over a worker-local data cache (section VII);
3. evolve the schema through the schema service — adding a field is
   allowed (old files read null), renaming/type changes are rejected,
   and a type change made straight in the metastore fails the read
   instead of returning values of the file's type.

Run:  python examples/nested_data_schema_evolution.py
"""

import time

from repro import PrestoEngine, Session
from repro.common.errors import SchemaEvolutionError
from repro.cache import TieredDataCache, VersionedMetastoreCache
from repro.connectors.hive import HiveConnector
from repro.core.types import DOUBLE, RowType
from repro.metastore.metastore import HiveMetastore
from repro.metastore.schema_service import SchemaService
from repro.storage.hdfs import HdfsFileSystem
from repro.workloads.trips import TRIPS_BASE_TYPE, TRIPS_COLUMNS, load_trips_table

QUERY = (
    "SELECT base.driver_uuid FROM schemaless_mezzanine_trips_rows "
    "WHERE datestr = '2017-03-02' AND base.city_id IN (12)"
)


def main() -> None:
    metastore = HiveMetastore()
    fs = HdfsFileSystem()
    print("writing nested trips data (20-field struct, 5 nesting levels)...")
    load_trips_table(
        metastore, fs, ["2017-03-01", "2017-03-02"], rows_per_date=2_000,
        row_group_size=250, num_cities=50,
    )

    print(f"\n-- the paper's section V.C query --\n{QUERY}\n")
    for reader in ("old", "new"):
        engine = PrestoEngine(session=Session(catalog="hive", schema="rawdata"))
        engine.register_connector("hive", HiveConnector(metastore, fs, reader=reader))
        start = time.perf_counter()
        result = engine.execute(QUERY)
        elapsed = (time.perf_counter() - start) * 1000
        print(
            f"{reader:>3} reader: {elapsed:7.1f} ms, {len(result.rows)} drivers, "
            f"{result.stats.rows_scanned} rows entered the engine"
        )

    cache = TieredDataCache()
    engine = PrestoEngine(session=Session(catalog="hive", schema="rawdata"))
    engine.register_connector("hive", HiveConnector(metastore, fs, data_cache=cache))
    for _ in range(2):
        engine.execute(QUERY)
    print(
        f"new reader over a data cache, run twice: {cache.stats.hits} column chunks "
        f"from the cache, {cache.stats.misses} from storage"
    )

    # -- schema evolution through the schema service (section V.A) ---------
    print("\n-- schema evolution rules --")
    service = SchemaService()
    service.register("trips", list(TRIPS_COLUMNS))

    # Adding a field: allowed.  Old data reads null.
    evolved_base = RowType.of(
        *[(f.name, f.type) for f in TRIPS_BASE_TYPE.fields], ("loyalty_tier", DOUBLE)
    )
    version = service.evolve(
        "trips", [("base", evolved_base)] + list(TRIPS_COLUMNS[1:])
    )
    print(f"added base.loyalty_tier -> schema version {version.version} (allowed)")

    # The metastore cache is keyed on the metastore's version: the change
    # below is seen at once, with no invalidation call.
    cache = VersionedMetastoreCache(metastore)
    for _ in range(2):
        cache.get_table("rawdata", "schemaless_mezzanine_trips_rows")
    metastore.update_table_columns(
        "rawdata",
        "schemaless_mezzanine_trips_rows",
        [("base", evolved_base)] + list(TRIPS_COLUMNS[1:]),
    )
    evolved_table = cache.get_table("rawdata", "schemaless_mezzanine_trips_rows")
    print(
        f"metastore cache, two reads before the change and one after: "
        f"{cache.stats.hits} hit, {cache.stats.misses} misses; base has {len(evolved_table.columns[0][1].fields)} fields"
    )
    engine = PrestoEngine(session=Session(catalog="hive", schema="rawdata"))
    engine.register_connector("hive", HiveConnector(metastore, fs))
    result = engine.execute(
        "SELECT base.loyalty_tier FROM schemaless_mezzanine_trips_rows LIMIT 3"
    )
    print(f"querying the new field over old files -> {result.rows} (nulls, as specified)")

    # Renaming a field: rejected.
    renamed = RowType.of(
        *[
            ("driver_id" if f.name == "driver_uuid" else f.name, f.type)
            for f in evolved_base.fields
        ]
    )
    try:
        service.evolve("trips", [("base", renamed)] + list(TRIPS_COLUMNS[1:]))
    except SchemaEvolutionError as error:
        print(f"rename base.driver_uuid -> base.driver_id: REJECTED ({error})")

    # Changing a type: rejected.
    from repro.core.types import VARCHAR

    retyped = RowType.of(
        *[
            (f.name, VARCHAR if f.name == "city_id" else f.type)
            for f in evolved_base.fields
        ]
    )
    try:
        service.evolve("trips", [("base", retyped)] + list(TRIPS_COLUMNS[1:]))
    except SchemaEvolutionError as error:
        print(f"retype base.city_id bigint -> varchar: REJECTED ({error})")

    history = service.history("trips")
    print(
        f"schema versions kept: {[v.version for v in history]}; current is "
        f"{service.current('trips').version}, version 1 has "
        f"{len(service.version('trips', 1).columns)} columns"
    )

    # The same change made straight in the metastore, past the service:
    # the read-side rule refuses to coerce the old files' bigint values.
    metastore.update_table_columns(
        "rawdata",
        "schemaless_mezzanine_trips_rows",
        [("base", retyped)] + list(TRIPS_COLUMNS[1:]),
    )
    try:
        engine.execute("SELECT base.city_id FROM schemaless_mezzanine_trips_rows LIMIT 3")
    except SchemaEvolutionError as error:
        print(f"reading old files as the retyped table: FAILED ({error})")


if __name__ == "__main__":
    main()
