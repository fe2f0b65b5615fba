"""Write-ahead logging, checkpointing and crash recovery.

The durability half of the write path (DESIGN.md §15): redo-only logging
of *committed* effects.  What a record holds and how it applies is
:mod:`repro.engine.codec`'s; this module frames, fsyncs, checkpoints and
recovers.

* Every commit — autocommit or transaction, DML or DDL — appends one
  :data:`commit record <COMMIT>` (:meth:`DurabilityManager.log_commit`)
  *before* the in-memory apply.  It is durable exactly when its record is
  fsynced; uncommitted staged state never reaches the log, so recovery has
  nothing to undo.
* Records are framed as ``crc32 length json\n``; recovery replays the
  longest valid prefix and stops at the first torn or corrupt record, so
  a crash mid-append can never resurrect half a commit.
* A commit flushes its record before it lets go of the
  transaction-manager lock, so a snapshot — pinned under that lock — never
  sees a commit that is not durable, and memory and log never disagree
  about what has committed.  One ``fsync`` makes everything written so far
  durable (:meth:`WriteAheadLog.sync_to` skips the flush when the LSN is
  already covered).  Commits fsync by default; ``sync=False`` is for a
  log opened only to be replayed.
* The exception is a non-durable commit (an audit row): its frame reaches
  the OS at once, so a killed process loses nothing, but only the next
  fsync of any kind makes it durable (:meth:`DurabilityManager.sync`), so
  an OS crash can lose the up to :data:`PENDING_LIMIT` frames it covers.
* A checkpoint writes the database as one commit record at its clock
  (:func:`repro.engine.persist.to_document`) with an atomic rename, then
  truncates the log, all under the write fence.  Recovery applies that
  image, then every later WAL record in commit order, through the one
  :func:`~repro.engine.codec.apply_record` — which makes a delta's
  positions exact and a recovered database enforce as the live one did.

Failpoints (:attr:`WriteAheadLog.failpoints`) simulate crashes at the
exact moments that distinguish a correct recovery protocol from a lucky
one: before the append, after a *partial* append (torn write), before the
fsync, and after the fsync but before the commit acknowledges.  The crash
harness in ``tests/engine/test_wal_recovery.py`` drives them.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path

from ..errors import InjectedFailure
from . import persist
from .codec import apply_record, encode_effect, encode_op
from .database import Database

#: Commit-record type tag.
COMMIT = "commit"

#: The tag records carrying catalog ops were once written under; replay
#: reads them like any commit record.
DDL = "ddl"

#: Checkpoint-marker record type tag (first record of a fresh log).
CHECKPOINT = "checkpoint"

#: Per-table row effects a record can carry, cheapest first.
EFFECT_OPS = ("append", "delta", "replace")

#: Unsynced frames a non-durable commit leaves before it fsyncs itself.
PENDING_LIMIT = 64

_SNAPSHOT_NAME = "snapshot.json"
_WAL_NAME = "wal.log"


def _frame(record: dict) -> bytes:
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x %08x %s\n" % (crc, len(payload), payload)


class WriteAheadLog:
    """An append-only, CRC-framed record log; one fsync covers every
    record written before it."""

    def __init__(self, path: "str | Path", sync: bool = True):
        self.path = Path(path)
        self.sync_enabled = sync
        self._write_lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._written_lsn = 0
        self._synced_lsn = 0
        self.appends = 0
        self.syncs = 0
        #: Bytes of every frame appended through this handle.
        self.bytes = 0
        #: Active failpoint names; see module docstring.
        self.failpoints: set[str] = set()
        self._file = open(self.path, "ab")

    # -- failpoints --------------------------------------------------------

    def _hit(self, point: str) -> None:
        if point in self.failpoints:
            raise InjectedFailure(point)

    # -- appending ---------------------------------------------------------

    def append(self, record: dict, sync: bool = True) -> int:
        """Append one record; returns its LSN (1-based record ordinal).

        With ``sync`` the record is durable before the call returns
        (subject to :attr:`sync_enabled`).
        """
        frame = _frame(record)
        with self._write_lock:
            self._hit("wal.before_append")
            if "wal.partial_append" in self.failpoints:
                # A torn write: half the frame reaches the disk, then the
                # process dies.  Recovery must discard it.
                self._file.write(frame[: max(1, len(frame) // 2)])
                self._file.flush()
                os.fsync(self._file.fileno())
                raise InjectedFailure("wal.partial_append")
            self._file.write(frame)
            self._file.flush()
            self._written_lsn += 1
            lsn = self._written_lsn
            self.appends += 1
            self.bytes += len(frame)
        if sync:
            self.sync_to(lsn)
        return lsn

    def sync_to(self, lsn: int) -> None:
        """Make every record up to ``lsn`` durable.

        Callers racing here coalesce: whoever takes the sync lock first
        fsyncs *everything written so far*; the rest find their LSN
        already covered and return without a second flush.
        """
        self._hit("wal.before_sync")
        if not self.sync_enabled:
            self._synced_lsn = max(self._synced_lsn, lsn)
            self._hit("wal.after_sync")
            return
        if self._synced_lsn >= lsn:
            self._hit("wal.after_sync")
            return
        with self._sync_lock:
            if self._synced_lsn < lsn:
                with self._write_lock:
                    target = self._written_lsn
                    os.fsync(self._file.fileno())
                self._synced_lsn = target
                self.syncs += 1
        self._hit("wal.after_sync")

    # -- reading -----------------------------------------------------------

    def replay(self) -> "tuple[list[dict], int]":
        """Decode the longest valid record prefix.

        Returns ``(records, torn_bytes)`` where ``torn_bytes`` counts
        trailing bytes discarded because the final frame was truncated or
        failed its CRC.  Never raises on a damaged tail — that is the
        normal shape of a crash — but a damaged *middle* cannot be told
        apart from a damaged tail and also stops the replay there.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0
        records: list[dict] = []
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                break
            line = data[offset : newline + 1]
            record = _decode_frame(line)
            if record is None:
                break
            records.append(record)
            offset = newline + 1
        return records, len(data) - offset

    def truncate(self) -> None:
        """Start a fresh, empty log (post-checkpoint)."""
        with self._write_lock:
            self._file.close()
            self._file = open(self.path, "wb")
            self._file.flush()
            os.fsync(self._file.fileno())
            self._written_lsn = 0
            self._synced_lsn = 0

    def close(self) -> None:
        """Fsync what non-durable commits left pending, then close."""
        with self._write_lock:
            if not self._file.closed:
                if self.sync_enabled and self._synced_lsn < self._written_lsn:
                    os.fsync(self._file.fileno())
                    self.syncs += 1
                self._synced_lsn = self._written_lsn
                self._file.close()

    def stats(self) -> dict[str, int]:
        return {
            "appends": self.appends,
            "bytes": self.bytes,
            "syncs": self.syncs,
            "written_lsn": self._written_lsn,
            "synced_lsn": self._synced_lsn,
        }


def _decode_frame(line: bytes) -> "dict | None":
    """Decode one framed record; ``None`` when torn or corrupt."""
    if not line.endswith(b"\n") or len(line) < 19:
        return None
    head, sep, payload = line[:-1].partition(b" ")
    if not sep:
        return None
    length_hex, sep, payload = payload.partition(b" ")
    if not sep:
        return None
    try:
        crc = int(head, 16)
        length = int(length_hex, 16)
    except ValueError:
        return None
    if len(payload) != length:
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


class DurabilityManager:
    """Glue between a database, its transaction manager and the disk.

    Owns a directory with two files: ``snapshot.json`` (the newest
    checkpoint, written atomically) and ``wal.log`` (commits since).  Once
    attached, every commit flowing through the transaction manager is
    logged before it applies; :func:`open_database` reverses the process.
    """

    def __init__(
        self,
        database: Database,
        directory: "str | Path",
        sync: bool = True,
    ):
        self.database = database
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(self.directory / _WAL_NAME, sync=sync)
        self.checkpoints = 0
        self.recovered_commits = 0
        self.torn_bytes = 0
        #: Records logged / bytes written, by the costliest row effect.
        self.records = dict.fromkeys(EFFECT_OPS, 0)
        self.record_bytes = dict.fromkeys(EFFECT_OPS, 0)
        database.transactions.wal = self
        database.durability = self

    # -- logging (called by the transaction manager, under its lock) --------

    def log_commit(
        self,
        ts: int,
        effects: "dict[str, tuple[str, object]]",
        ddl: "list[dict]" = (),
    ) -> int:
        """Log one commit; returns the record's LSN.

        ``effects`` maps table name to ``(op, payload)`` — see
        :func:`~repro.engine.codec.encode_effect`; ``ddl`` are the commit's
        logical catalog ops, which the record carries ahead of them (a
        record without any is
        ``{"type": "commit", "ts", "tables"}``).  Called under the
        transaction-manager lock, *before* the in-memory apply; the committer
        calls :meth:`sync` after the apply, still under that lock, so no
        snapshot pins the commit before it is durable.  The record is
        accounted to the costliest effect it carries (one whole-table
        ``replace`` makes it a replace record).
        """
        record: dict = {"type": COMMIT, "ts": ts}
        if ddl:
            record["ops"] = [encode_op(op) for op in ddl]
        record["tables"] = {
            name: encode_effect(op, payload)
            for name, (op, payload) in effects.items()
        }
        before = self.wal.bytes
        lsn = self.wal.append(record, sync=False)
        if effects:
            op = max((op for op, _ in effects.values()), key=EFFECT_OPS.index)
            self.records[op] += 1
            self.record_bytes[op] += self.wal.bytes - before
        return lsn

    def sync(self, lsn: int, durable: bool = True) -> None:
        """Return once the record at ``lsn`` is durable — a non-durable one
        only once :data:`PENDING_LIMIT` frames wait for an fsync."""
        if durable or lsn - self.wal._synced_lsn >= PENDING_LIMIT:
            self.wal.sync_to(lsn)

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> None:
        """Write an atomic full snapshot and truncate the log.

        All under the transaction manager's fence: the image, the clock it
        is stamped with and the log swap describe one state.  A commit landing
        between them would be acknowledged, absent from the image and
        erased with the log — and delta records are addressed by position
        in the image, so even a surviving one would replay onto the wrong
        rows.
        """
        with self.database.transactions.exclusive():
            document = persist.to_document(self.database)
            snapshot_path = self.directory / _SNAPSHOT_NAME
            temp_path = snapshot_path.with_suffix(".json.tmp")
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, snapshot_path)
            self.wal.truncate()
            self.wal.append({"type": CHECKPOINT, "ts": document["ts"]})
        self.checkpoints += 1

    def close(self) -> None:
        self.wal.close()

    def stats(self) -> dict:
        stats = dict(self.wal.stats())
        stats["checkpoints"] = self.checkpoints
        stats["recovered_commits"] = self.recovered_commits
        stats["torn_bytes"] = self.torn_bytes
        stats["records"] = dict(self.records)
        stats["record_bytes"] = dict(self.record_bytes)
        return stats


def open_database(
    directory: "str | Path",
    name: str = "db",
    sync: bool = True,
) -> "tuple[Database, DurabilityManager]":
    """Open (or create) a durable database rooted at ``directory``.

    Recovery protocol: load the newest checkpoint image if present, then
    apply every valid WAL commit record stamped after the image's ``ts``,
    in order, through the same :func:`~repro.engine.codec.apply_record`
    that loaded the image.  The result is exactly the committed prefix:
    commits whose record survived are reapplied, torn tails are discarded.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    snapshot_path = directory / _SNAPSHOT_NAME
    if snapshot_path.exists():
        database = persist.load(snapshot_path)
        if name != "db":
            database.name = name
    else:
        database = Database(name)
    checkpoint_clock = database.transactions.clock
    # Replay before attaching the WAL: recovered commits must not be
    # re-logged (they are already durable).
    wal = WriteAheadLog(directory / _WAL_NAME, sync=sync)
    records, torn = wal.replay()
    recovered = 0
    for record in records:
        if record.get("type") in (COMMIT, DDL) and record["ts"] > checkpoint_clock:
            apply_record(database, record)
            recovered += 1
    wal.close()
    if torn:
        # Heal the log: drop the torn tail so post-recovery commits append
        # after the valid prefix — otherwise the next replay would stop at
        # the garbage and discard every commit logged after it.
        wal_path = directory / _WAL_NAME
        os.truncate(wal_path, wal_path.stat().st_size - torn)
    durability = DurabilityManager(database, directory, sync=sync)
    durability.recovered_commits = recovered
    durability.torn_bytes = torn
    return database, durability
