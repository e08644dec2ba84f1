"""User/group → cluster routing, stored in MySQL (section VIII).

"The user and group to cluster mapping data is stored in MySQL.  Presto
administrators could play with MySQL to dynamically redirect any traffic
to any cluster."  The routing table is literally a table in the simulated
MySQL server, so an administrator UPDATE takes effect on the next lookup.
"""

from __future__ import annotations

from repro.common.errors import GatewayError
from repro.connectors.mysql import MySqlServer
from repro.core.types import VARCHAR

ROUTING_DATABASE = "presto_gateway"
ROUTING_TABLE = "routing"
ROUTING_COLUMNS = [("principal", VARCHAR), ("kind", VARCHAR), ("cluster", VARCHAR)]


class RoutingTable:
    """Reads/writes the user/group→cluster mapping in its own MySQL server."""

    def __init__(self) -> None:
        self.mysql = MySqlServer()
        self._write([])

    # -- administration ------------------------------------------------------

    def assign_user(self, user: str, cluster: str) -> None:
        self._assign(user, "user", cluster)

    def assign_group(self, group: str, cluster: str) -> None:
        self._assign(group, "group", cluster)

    def set_default(self, cluster: str) -> None:
        self._assign("*", "default", cluster)

    def _assign(self, principal: str, kind: str, cluster: str) -> None:
        self._write(self._rows_except(principal, kind) + [(principal, kind, cluster)])

    def remove(self, principal: str, kind: str = "user") -> None:
        self._write(self._rows_except(principal, kind))

    def _rows_except(self, principal: str, kind: str) -> list[tuple]:
        return [
            row
            for row in self._all_rows()
            if not (row[0] == principal and row[1] == kind)
        ]

    def _write(self, rows: list[tuple]) -> None:
        self.mysql.create_table(ROUTING_DATABASE, ROUTING_TABLE, ROUTING_COLUMNS, rows)

    def _all_rows(self) -> list[tuple]:
        return self.mysql.execute(
            ROUTING_DATABASE, ROUTING_TABLE, [name for name, _ in ROUTING_COLUMNS]
        )

    # -- resolution ---------------------------------------------------------------

    def resolve(self, user: str, groups: tuple[str, ...] = ()) -> str:
        """User mapping wins over group mapping wins over default."""
        rows = self._all_rows()
        by_key = {(principal, kind): cluster for principal, kind, cluster in rows}
        if (user, "user") in by_key:
            return by_key[(user, "user")]
        for group in groups:
            if (group, "group") in by_key:
                return by_key[(group, "group")]
        if ("*", "default") in by_key:
            return by_key[("*", "default")]
        raise GatewayError(f"no route for user {user!r} (groups {groups})")
