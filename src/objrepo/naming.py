"""The naming service: object URN -> ordered repository locations.

Containment is defined by resolution: an object lives in a repository
exactly when its name resolves there. Records are kept in memory behind a
lock and persisted to an append-only journal of update lines, compacted in
place when the dead-record ratio grows. Replaying the journal reproduces
the exact record state, including per-record update sequence numbers.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from . import shape
from .errors import AlreadyRegistered, BadArguments, NoSuchLocation, NotRegistered

log = logging.getLogger(__name__)

_COMPACT_MIN_RECORDS = 1024
_COMPACT_DEAD_RATIO = 4


@dataclass
class NamingConfig:
    listen_endpoint: str
    journal_path: str | None = None


_NAMING_CONFIG = shape.record(
    NamingConfig,
    listen_endpoint=shape.ENDPOINT,
    journal_path=shape.optional(shape.NON_EMPTY),
)


def load_naming_config(path: str | Path) -> NamingConfig:
    return shape.parse_file(path, _NAMING_CONFIG, BadArguments, "naming config")


def _journal_line(op: str, name: str, location: str, seq: int) -> str:
    update = {"op": op, "name": name, "location": location, "seq": seq}
    return json.dumps(update, sort_keys=True) + "\n"


@dataclass
class NameRecord:
    name: str
    locations: list[str] = field(default_factory=list)
    updated_seq: int = 0


class NamingService:
    """In-memory map with journal persistence; linearizable per name (a
    single service lock serializes all updates)."""

    def __init__(self, journal_path: str | Path | None = None):
        self._lock = threading.RLock()
        self._records: dict[str, NameRecord] = {}
        self._journal_path = Path(journal_path) if journal_path else None
        self._journal = None
        self._appended = 0
        self._live_locations = 0  # sum of len(record.locations), kept by _apply
        if self._journal_path is not None:
            self._journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._replay()
            self._journal = open(self._journal_path, "a", encoding="utf-8")

    # -- operations ------------------------------------------------------

    def register(self, name: str, location: str) -> None:
        shape.check(shape.URN, name, BadArguments, "name")
        shape.check(shape.ENDPOINT, location, BadArguments, "location")
        with self._lock:
            if name in self._records:
                raise AlreadyRegistered(f"{name} is already registered")
            self._apply("register", name, location, 1)
            self._append("register", name, location, 1)

    def resolve(self, name: str) -> list[str]:
        shape.check(shape.URN, name, BadArguments, "name")
        with self._lock:
            return list(self._record(name).locations)

    def add_location(self, name: str, location: str) -> None:
        shape.check(shape.URN, name, BadArguments, "name")
        shape.check(shape.ENDPOINT, location, BadArguments, "location")
        with self._lock:
            record = self._record(name)
            if location in record.locations:
                return  # idempotent, not an applied update
            seq = record.updated_seq + 1
            self._apply("add", name, location, seq)
            self._append("add", name, location, seq)

    def remove_location(self, name: str, location: str) -> None:
        shape.check(shape.URN, name, BadArguments, "name")
        shape.check(shape.ENDPOINT, location, BadArguments, "location")
        with self._lock:
            record = self._record(name)
            if location not in record.locations:
                raise NoSuchLocation(f"{name} does not resolve to {location}")
            seq = record.updated_seq + 1
            self._apply("remove", name, location, seq)  # an empty location set deletes the record
            self._append("remove", name, location, seq)

    def record(self, name: str) -> NameRecord:
        with self._lock:
            record = self._record(name)
            return NameRecord(record.name, list(record.locations), record.updated_seq)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    def _record(self, name: str) -> NameRecord:
        record = self._records.get(name)
        if record is None:
            raise NotRegistered(f"{name} is not registered")
        return record

    # -- persistence -----------------------------------------------------

    def _apply(self, op: str, name: str, location: str, seq: int) -> None:
        """The one state transition, shared by live updates and replay."""
        record = self._records.get(name)
        if op == "register":
            self._records[name] = NameRecord(name, [location], seq)
            self._live_locations += 1
        elif op == "add" and record is not None:
            if location not in record.locations:
                record.locations.append(location)
                self._live_locations += 1
            record.updated_seq = seq
        elif op == "remove" and record is not None:
            if location in record.locations:
                record.locations.remove(location)
                self._live_locations -= 1
            record.updated_seq = seq
            if not record.locations:
                del self._records[name]

    def _replay(self) -> None:
        if not self._journal_path.exists():
            return
        with open(self._journal_path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        for n, line in enumerate(lines):
            if not line:
                continue
            try:
                rec = json.loads(line)
                op, name, location, seq = rec["op"], rec["name"], rec["location"], rec["seq"]
            except (json.JSONDecodeError, KeyError, TypeError):
                if n == len(lines) - 1 or (n == len(lines) - 2 and lines[-1] == ""):
                    log.warning("naming journal: ignoring truncated final record")
                    break
                raise
            self._apply(op, name, location, seq)

    def _append(self, op: str, name: str, location: str, seq: int) -> None:
        if self._journal is None:
            return
        self._journal.write(_journal_line(op, name, location, seq))
        self._journal.flush()
        os.fsync(self._journal.fileno())
        self._appended += 1
        live = self._live_locations
        if self._appended >= _COMPACT_MIN_RECORDS and self._appended > _COMPACT_DEAD_RATIO * live:
            self.compact()

    def compact(self) -> None:
        """Rewrite the journal as the minimal record sequence reproducing
        the current state, sequence numbers included."""
        if self._journal_path is None:
            return
        with self._lock:
            tmp = self._journal_path.with_suffix(".compacting")
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in self._records.values():
                    k = len(record.locations)
                    base = record.updated_seq - k + 1
                    for i, location in enumerate(record.locations):
                        op = "register" if i == 0 else "add"
                        fh.write(_journal_line(op, record.name, location, base + i))
                fh.flush()
                os.fsync(fh.fileno())
            if self._journal is not None:
                self._journal.close()
            os.replace(tmp, self._journal_path)
            # the rename is durable only once the directory entry is on disk
            dir_fd = os.open(self._journal_path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            self._journal = open(self._journal_path, "a", encoding="utf-8")
            self._appended = 0

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None
