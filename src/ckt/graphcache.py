"""The per-user cache of loaded graphs: a query against a graph directory
that `ckt build` wrote, or whose bytes an earlier query parsed, decodes
the graph, and the replay of its trace copy, from the cache, not from
nodes.jsonl, triples.tsv and trace.jsonl.

An entry is what one strict parse by ckt.graph gives: the columns of the
graph (KnowledgeGraph.entry), and the Eraser replay's per-variable
locksets of the trace copy, or none.  The build writes it from the
graph it saved, and a load from the graph it parsed; its bytes are a
function of those values alone, so both write the same entry.  It is
named by what it was made from, as a content-addressed store names a
block (Venti; ccache): the BLAKE2b-128 of the key, the graph format and
the digests of the two graph files and of the trace copy, with this
entry layout, the marshal format, the interpreter, the byte order and
the item size of each array typecode, since arrays are written as their
bytes in memory.  So an entry is never compared with its graph
directory, never rewritten once it decodes, and shared by every copy of
the directory; one of another interpreter, layout or byte order has
another name and is never opened.  An absent, unreadable or damaged
entry is a miss, on which the caller parses the files and writes the
entry.  Deleting the cache is always safe.

A stamp spares a load the hashing of the graph files: after a load has
hashed them and found them fresh, it records their stat data, and the
key they hashed to, in <name>.stamp, named by the graph directory's
resolved path alone, so every load of a directory shares its stamp.  A later load whose stat of
every file gives the same data, each file older than the stamp, takes
the entry of the stamped key without reading graph.json or hashing a
byte (the stat-data check of git's index, with its racy-git rule, and
of ccache's direct mode).  An absent, damaged or foreign stamp, or any
mismatch, and the load hashes as it would with none.

An extraction entry spares a build the parse of each source file that
an earlier build of the same manifest parsed (Extractions): <name>.facts,
named by the manifest's resolved path, holds one record per file, keyed
by the file's path and bytes and by the extractor's source, as ccache's
direct mode keys an object file (and a build system's action cache, in
"Build systems à la carte", Mokhov, Mitchell and Peyton Jones, 2018).

The cache lives in $XDG_CACHE_HOME/ckt, or ~/.cache/ckt, never in a graph
directory: a query must not write where `ckt build` writes.  It is used
only while that directory is this user's, with no access for any other
(private_dir).  An entry is <name>.graph, a sequence of records, each its
payload's length (4 bytes, little-endian), a BLAKE2b-128 digest of every
payload of the entry up to and including its own, and the payload:
first the typecode of each column that is an array, or "" for one that
is not, then one record per column, an array as its bytes (tobytes,
read back by frombytes) and any other column in marshal format 2, and
last the locksets record: None, or a (variable, candidate, accesses,
tids, wrote) tuple per variable of the replay, its sets as sorted lists.
Marshal format 2 records neither which objects the writer shared nor
which strings it interned, so how the writer's objects share memory
never shows in the bytes.  A digest covers the records before its own,
so a missing, reordered, truncated or changed record is a miss.  Entries
are read and written a record at a time: no process holds a whole entry
beside the graph.
"""

from __future__ import annotations

import marshal
import os
import stat
import sys
from array import array, typecodes
from _thread import get_ident
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from typing import BinaryIO

from ckt.model import Lockset

# the interpreter's BLAKE2b, as in ckt.graph
from _blake2 import blake2b as _blake2b

VERSION = 5  # of the entry and stamp layouts
KEEP = 8  # files a cache directory keeps of each kind (_prune)
_DIGEST_SIZE = 16
_HEAD = 4 + _DIGEST_SIZE  # the length and the digest before each payload
_RECORD = _HEAD + _DIGEST_SIZE  # and the key between them, in an extraction record


class _Miss(Exception):
    """The entry cannot be used."""


def user_dir() -> Path | None:
    """$XDG_CACHE_HOME/ckt when that variable is an absolute path, else
    $HOME/.cache/ckt when that is one, else None: no cache."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(base):
        return Path(base, "ckt")
    home = os.environ.get("HOME", "")
    return Path(home, ".cache", "ckt") if os.path.isabs(home) else None


def private_dir() -> Path | None:
    """user_dir(), made with mode 0700 if absent, when it is a directory
    that this user owns and no other user may read, write or enter; else
    None: no cache.  An entry in a directory that another user can write
    could be forged, record digests and all, since they have no key."""
    cache = user_dir()
    if cache is None:
        return None
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        found = os.stat(cache)
    except OSError:
        return None
    private = (stat.S_ISDIR(found.st_mode) and found.st_uid == os.getuid()
               and not found.st_mode & 0o077)
    return cache if private else None


def _name(key: tuple | str, suffix: str = ".graph") -> str:
    """The name of the entry of `key`, a tuple of JSON values, or with
    suffix ".stamp" the stamp of `key`, a directory's resolved path, or
    with ".facts" the extraction entry of `key`, a manifest's resolved
    path, as written by this layout, marshal format and interpreter, in
    this byte order and with these sizes of array items."""
    made_from = repr((key, VERSION, marshal.version, sys.implementation.cache_tag,
                      sys.byteorder, [array(code).itemsize for code in typecodes]))
    return f"{_blake2b(made_from.encode(), digest_size=_DIGEST_SIZE).hexdigest()}{suffix}"


def _temporary(path: Path) -> Path:
    """The temporary file this thread writes `path` through."""
    return path.with_name(f".{path.name}.{os.getpid()}-{get_ident()}.tmp")


def has(key: tuple) -> bool:
    """Whether private_dir holds a file by the name of the entry of `key`."""
    cache = private_dir()
    return cache is not None and os.path.exists(cache / _name(key))


def read(key: tuple) -> tuple[list, dict[str, Lockset] | None] | None:
    """(columns, locksets) from the entry of `key` in private_dir; None for
    a miss: no cache, or the entry absent, unreadable or damaged."""
    cache = private_dir()
    if cache is None:
        return None
    try:
        with open(cache / _name(key), "rb") as file:
            return _decode(file)
    except (OSError, _Miss):
        return None


def _decode(file: BinaryIO) -> tuple[list, dict[str, Lockset] | None]:
    size = os.fstat(file.fileno()).st_size
    chain = _blake2b(digest_size=_DIGEST_SIZE)

    def record() -> bytes:
        head = file.read(_HEAD)
        length = int.from_bytes(head[:4], "little")
        if len(head) != _HEAD or length > size - file.tell():
            raise _Miss
        payload = file.read(length)
        chain.update(payload)
        if len(payload) != length or chain.digest() != head[4:]:
            raise _Miss
        return payload

    try:
        columns = []
        for code in marshal.loads(record()):
            if code:
                column = array(code)
                column.frombytes(record())
            else:
                column = marshal.loads(record())
            columns.append(column)
        locksets = marshal.loads(record())
        if locksets is not None:
            locksets = {var: Lockset(set(candidate), accesses, set(tids), wrote)
                        for var, candidate, accesses, tids, wrote in locksets}
    except (ValueError, TypeError, EOFError) as exc:  # no record this module writes
        raise _Miss from exc
    if file.read(1):
        raise _Miss
    return columns, locksets


def write(key: tuple, columns: list, locksets: dict[str, Lockset] | None) -> None:
    """Write the entry of `key` in private_dir: `columns`, those of the
    graph that a strict parse of the bytes `key` names gives, and the
    locksets of the trace copy it names, or None; through a temporary file
    renamed into place, and prune the directory.  No cache, or one that
    cannot be written, is left as it is, and nothing raised."""
    cache = private_dir()
    if cache is None:
        return
    path = cache / _name(key)
    try:
        tmp = _temporary(path)
        try:
            with open(tmp, "wb") as file:
                _encode(file, columns, locksets)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        _prune(cache)
    except OSError:
        pass


def _encode(file: BinaryIO, columns: list, locksets: dict[str, Lockset] | None) -> None:
    chain = _blake2b(digest_size=_DIGEST_SIZE)

    def record(payload: bytes) -> None:
        chain.update(payload)
        file.write(len(payload).to_bytes(4, "little") + chain.digest())
        file.write(payload)

    # marshal format 2 records no sharing and no interning, so the bytes
    # are a function of the values, whoever made them
    record(marshal.dumps([getattr(column, "typecode", "") for column in columns], 2))
    for column in columns:
        record(column.tobytes() if isinstance(column, array) else marshal.dumps(column, 2))
    record(marshal.dumps(None if locksets is None else [
        (var, sorted(rec.candidate), rec.accesses, sorted(rec.tids), rec.wrote)
        for var, rec in locksets.items()], 2))


def read_stamp(place: str) -> tuple[dict, tuple, int] | None:
    """(stat data by file name, entry key, the stamp's mtime in ns) of the
    stamp of `place` in private_dir; None for no cache, or a stamp that
    is absent, unreadable, damaged or of another place."""
    cache = private_dir()
    if cache is None:
        return None
    try:
        with open(cache / _name(place, ".stamp"), "rb") as file:
            made = os.fstat(file.fileno()).st_mtime_ns
            data = file.read()
        digest, payload = data[:_DIGEST_SIZE], data[_DIGEST_SIZE:]
        if _blake2b(payload, digest_size=_DIGEST_SIZE).digest() != digest:
            return None
        stamped, stats, key = marshal.loads(payload)
    except (OSError, ValueError, TypeError, EOFError):
        return None
    return (stats, key, made) if stamped == place else None


@contextmanager
def stamping(place: str) -> Iterator[Callable[[dict, tuple], None]]:
    """A function stamp(stats, key) that writes the stamp of `place` in
    private_dir: the stat data of each file by name, and the key of the
    entry they hashed to.  The stamp's temporary file is made when the
    block begins, and the stamp keeps that file's mtime, so a file that
    changed after the block began, its hash among it, is never older than
    the stamp.  A block that writes no stamp leaves no file; no cache, or
    one that cannot be written, yields a function that writes nothing."""
    cache = private_dir()
    file = None
    if cache is not None:
        path = cache / _name(place, ".stamp")
        tmp = _temporary(path)
        try:
            file = open(tmp, "wb")
        except OSError:
            pass
    if file is None:
        yield lambda stats, key: None
        return

    def stamp(stats: dict, key: tuple) -> None:
        payload = marshal.dumps((place, stats, key))
        try:
            file.write(_blake2b(payload, digest_size=_DIGEST_SIZE).digest() + payload)
            file.close()
            os.utime(tmp, ns=(made, made))
            os.replace(tmp, path)
            _prune(cache)
        except OSError:
            pass

    try:
        with file:
            made = os.fstat(file.fileno()).st_mtime_ns
            yield stamp
    finally:
        tmp.unlink(missing_ok=True)


class Extractions:
    """The extraction entry of a manifest in private_dir, named by the
    manifest's resolved path `place` as a stamp is named by its directory,
    with suffix ".facts"; in a `with` block, get(key) is the payload that
    an earlier build put for `key`, or None, and put(key, payload) puts
    one.  A key (key()) is the BLAKE2b-128 of a file's relative path and
    bytes, keyed by the extractor's identity: a digest of the source files
    `made_by` and of what _name makes a name of.  So an edit to any of
    them, or another layout, marshal format, interpreter or byte order,
    misses every key, and without one of those files there is no cache.

    The entry is a sequence of records, each the payload's length (4
    bytes, little-endian), its key, its BLAKE2b-128 digest keyed by that
    key, and the payload.  When made, it opens the new entry's temporary
    file and reads the old entry's heads; a record is read when its key
    is got, and one whose digest fails is a miss.  A record got or put is
    written to the temporary file at once, the one got as it was read, so
    no build holds the entry whole.  When the block ends without an
    error, and the temporary file is not the old entry's size (a record
    was put, or the entry holds one that was not got), it is renamed into
    place and the directory pruned, as for a .graph entry; else it is
    removed.  No cache, or one that cannot be read or written, misses
    every key and raises nothing."""

    def __init__(self, place: str, made_by: list[str]):
        # key -> offset and length of its record in the old entry; that entry's size
        self._old, self._size, self._out, self._files = {}, 0, None, ExitStack()
        self._identity, cache = b"", private_dir()
        if cache is not None:
            with suppress(OSError):  # no source to key by, or an entry not to be read or written
                made = tuple(_blake2b(Path(path).read_bytes()).hexdigest() for path in made_by)
                self._identity = _name(made, "").encode()  # 32 bytes, a BLAKE2b key
                self._path = cache / _name(place, ".facts")
                self._out = self._files.enter_context(open(_temporary(self._path), "wb"))
                # once the file is renamed, a no-op
                self._files.callback(Path(self._out.name).unlink, missing_ok=True)
                self._file = self._files.enter_context(open(self._path, "rb"))
                self._size = os.fstat(self._file.fileno()).st_size
                while len(head := self._file.read(_RECORD)) == _RECORD:
                    start, length = self._file.tell() - _RECORD, int.from_bytes(head[:4], "little")
                    self._old[head[4:_HEAD]] = start, min(_RECORD + length, self._size)
                    self._file.seek(length, os.SEEK_CUR)

    def __enter__(self) -> Extractions:
        return self

    def key(self, rel: str, data: bytes) -> bytes:
        # marshal format 2 writes a path the same way whether interned or not
        return _blake2b(marshal.dumps(rel, 2) + data, digest_size=_DIGEST_SIZE,
                        key=self._identity).digest()

    def get(self, key: bytes) -> bytes | None:
        try:
            offset, length = self._old[key]
            record = os.pread(self._file.fileno(), length, offset)
        except (KeyError, OSError):
            return None
        payload = record[_RECORD:]
        if _blake2b(payload, digest_size=_DIGEST_SIZE, key=key).digest() != record[_HEAD:_RECORD]:
            return None
        self._write(record)
        return payload

    def put(self, key: bytes, payload: bytes) -> None:
        self._size = -1  # so the entry is written
        self._write(len(payload).to_bytes(4, "little") + key
                    + _blake2b(payload, digest_size=_DIGEST_SIZE, key=key).digest() + payload)

    def _write(self, record: bytes) -> None:
        if self._out is not None:
            try:
                self._out.write(record)
            except OSError:  # so no entry is written
                self._out = None

    def __exit__(self, exc, *_) -> None:
        with suppress(OSError), self._files:
            if not exc and self._out and self._out.tell() != self._size:
                self._out.close()
                os.replace(self._out.name, self._path)
                _prune(self._path.parent)


def _prune(cache: Path) -> None:
    """Remove all but the KEEP newest files of `cache` of each kind, by
    mtime: graph entries, stamps and extraction entries, each kind with
    its temporary files, so that one a writer killed mid-write left goes
    too, and a stamp or an extraction entry never evicts a graph entry; a
    file that another process removed first is passed over.  A live
    writer's file is among the newest, and were it removed, its rename
    would fail as any other write can."""
    kinds: dict[str, list] = {}  # ".graph", ".stamp" or ".facts" -> (mtime, path)
    with os.scandir(cache) as found:
        for entry in found:
            # a temporary file, .<name>.<pid>-<thread>.tmp, is of the kind of <name>
            name = entry.name.rsplit(".", 2)[0] if entry.name.endswith(".tmp") else entry.name
            kind = os.path.splitext(name)[1]
            if kind in (".graph", ".stamp", ".facts"):
                try:
                    kinds.setdefault(kind, []).append((entry.stat().st_mtime_ns, entry.path))
                except FileNotFoundError:
                    pass
    for files in kinds.values():
        for _, stale in sorted(files)[:-KEEP]:
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass
