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
resolved path and the copies the load read.  A later load whose stat of
every file gives the same data, each file older than the stamp, takes
the entry of the stamped key without reading graph.json or hashing a
byte (the stat-data check of git's index, with its racy-git rule, and
of ccache's direct mode).  An absent, damaged or foreign stamp, or any
mismatch, and the load hashes as it would with none.

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
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

from ckt.model import Lockset

# the interpreter's BLAKE2b, as in ckt.graph
from _blake2 import blake2b as _blake2b

VERSION = 5  # of the entry and stamp layouts
KEEP = 8  # entries and temporary files, and stamps, a cache directory keeps of each
_DIGEST_SIZE = 16
_HEAD = 4 + _DIGEST_SIZE  # the length and the digest before each payload


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


def _name(key: tuple, suffix: str = ".graph") -> str:
    """The name of the entry, or with suffix ".stamp" the stamp, of `key`,
    a tuple of JSON values, as written by this layout, marshal format and
    interpreter, in this byte order and with these sizes of array items."""
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


def read_stamp(place: tuple) -> tuple[dict, tuple, int] | None:
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
def stamping(place: tuple) -> Iterator[Callable[[dict, tuple], None]]:
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


def _prune(cache: Path) -> None:
    """Remove all but the KEEP newest entries and temporary files of `cache`
    by mtime, so that one a writer killed mid-write left goes too, and all
    but the KEEP newest stamps, so that stamps never evict an entry; a file
    that another process removed first is passed over.  A live writer's
    file is among the newest, and were it removed, its rename would fail as
    any other write can."""
    kinds: dict[bool, list] = {False: [], True: []}  # is a stamp -> (mtime, path)
    with os.scandir(cache) as found:
        for entry in found:
            if entry.name.endswith((".graph", ".tmp", ".stamp")):
                try:
                    kinds[entry.name.endswith(".stamp")].append(
                        (entry.stat().st_mtime_ns, entry.path))
                except FileNotFoundError:
                    pass
    for files in kinds.values():
        for _, stale in sorted(files)[:-KEEP]:
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass
