"""The per-user cache of loaded graphs: a query against a graph directory
whose bytes an earlier query parsed decodes the graph, and the replay of
its trace copy, from the cache, not from nodes.jsonl, triples.tsv and
trace.jsonl.

An entry is what one strict parse by load_graph gave: the graph's nodes,
ranks and keys, and the Eraser replay's per-variable locksets of the
trace copy that the caller parsed before it, or none.  It is named by
what it was made from, as a content-addressed store names a block
(Venti; ccache): the BLAKE2b-128 of the key, which load_graph gives as
the graph format and the digests of the two graph files and of the trace
copy, with this entry layout, the marshal format and the interpreter.
So an entry is never compared with its graph directory, never rewritten
once it decodes, and shared by every copy of the directory; one of
another interpreter or layout has another name and is never opened.  An
absent, unreadable or damaged entry is a miss, on which the caller
parses the files and load_graph writes the entry.  Deleting the cache is
always safe.

The cache lives in $XDG_CACHE_HOME/ckt, or ~/.cache/ckt, never in a graph
directory: a query must not write where `ckt build` writes.  It is used
only while that directory is this user's, with no access for any other
(private_dir).  An entry is <name>.graph, a sequence of records, each its
payload's length (4 bytes, little-endian), a BLAKE2b-128 digest of every
payload of the entry up to and including its own, and a marshal payload:
first the counts of nodes and keys, then node records of up to RECORD
(id, kind, label, span, attrs, rank) tuples in ascending id order, then
key records of up to RECORD keys in SPO order as (subject indexes,
predicates, object indexes or literals), each index the node's place in
id order, and last the locksets record: None, or a (variable, candidate,
accesses, tids, wrote) tuple per variable of the replay.  A digest
covers the records before its own, so a missing, reordered, truncated or
changed record is a miss.  Entries are read and written a record at a
time: no process holds a whole entry, or a second copy of the graph.
"""

from __future__ import annotations

import marshal
import os
import stat
import sys
from itertools import islice
from pathlib import Path
from typing import BinaryIO

from ckt.model import Entity, Lockset, Span

# the interpreter's BLAKE2b, as in ckt.graph
from _blake2 import blake2b as _blake2b

VERSION = 3  # of the entry layout
RECORD = 256  # nodes or keys per record
KEEP = 8  # entries and temporary files a cache directory keeps after each write
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


def _name(key: tuple) -> str:
    """The name of the entry of `key`, a tuple of JSON values, as written
    by this entry layout, marshal format and interpreter."""
    made_from = repr((key, VERSION, marshal.version, sys.implementation.cache_tag))
    return f"{_blake2b(made_from.encode(), digest_size=_DIGEST_SIZE).hexdigest()}.graph"


def read(key: tuple) -> tuple | None:
    """(entities, SPO keys, ranks, locksets) from the entry of `key` in
    private_dir; None for a miss: no cache, or the entry absent,
    unreadable or damaged."""
    cache = private_dir()
    if cache is None:
        return None
    try:
        with open(cache / _name(key), "rb") as file:
            return _decode(file)
    except (OSError, _Miss):
        return None


def _decode(file: BinaryIO) -> tuple:
    size = os.fstat(file.fileno()).st_size
    chain = _blake2b(digest_size=_DIGEST_SIZE)

    def record():
        head = file.read(_HEAD)
        length = int.from_bytes(head[:4], "little")
        if len(head) != _HEAD or length > size - file.tell():
            raise _Miss
        payload = file.read(length)
        chain.update(payload)
        if len(payload) != length or chain.digest() != head[4:]:
            raise _Miss
        return marshal.loads(payload)

    entities: dict[str, Entity] = {}
    ranks: dict[str, float] = {}
    spo: list = []
    try:
        n_nodes, n_keys = record()
        while len(entities) < n_nodes:
            for eid, kind, label, span, attrs, rank in record():
                entities[eid] = Entity(eid, kind, label, span and tuple.__new__(Span, span), attrs)
                ranks[eid] = rank
        ids = list(entities)
        while len(spo) < n_keys:
            subjects, predicates, objects = record()
            spo += zip(map(ids.__getitem__, subjects), predicates,
                       [ids[o] if type(o) is int else o for o in objects])
        locksets = record()
        if locksets is not None:
            locksets = {var: Lockset(candidate, accesses, tids, wrote)
                        for var, candidate, accesses, tids, wrote in locksets}
    except (ValueError, TypeError, IndexError, EOFError) as exc:  # no record this module writes
        raise _Miss from exc
    if len(entities) != n_nodes or len(spo) != n_keys or file.read(1):
        raise _Miss
    return entities, spo, ranks, locksets


def write(key: tuple, entities: dict[str, Entity], spo: list, ranks: dict[str, float],
          locksets: dict[str, Lockset] | None) -> None:
    """Write the entry of `key` in private_dir, for the graph that a strict
    parse of the bytes `key` names gave and the locksets of the trace
    copy it names, or None, through a temporary file renamed into place,
    and keep the KEEP newest files of the directory.  No cache, or one
    that cannot be written, is left as it is, and nothing raised."""
    cache = private_dir()
    if cache is None:
        return
    path = cache / _name(key)
    try:
        tmp = cache / f".{path.name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as file:
                _encode(file, entities, spo, ranks, locksets)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        _prune(cache)
    except OSError:
        pass


def _encode(file: BinaryIO, entities: dict[str, Entity], spo: list,
            ranks: dict[str, float], locksets: dict[str, Lockset] | None) -> None:
    chain = _blake2b(digest_size=_DIGEST_SIZE)

    def record(value) -> None:
        payload = marshal.dumps(value)
        chain.update(payload)
        file.write(len(payload).to_bytes(4, "little") + chain.digest())
        file.write(payload)

    # the load interns each kind, span path, attribute key and predicate,
    # so marshal writes each once per record, and a decoded entry shares
    # one string for each of them, as the parsed graph does
    record((len(entities), len(spo)))
    nodes = iter(entities.values())
    while batch := list(islice(nodes, RECORD)):
        record([(e.id, e.kind, e.label, e.span and tuple(e.span), e.attrs, ranks[e.id])
                for e in batch])
    # each end of a key is written as its node's index in id order; an
    # object that is no node is a literal, written as it is
    index = {eid: i for i, eid in enumerate(entities)}
    for start in range(0, len(spo), RECORD):
        subjects, predicates, objects = zip(*spo[start:start + RECORD])
        record((list(map(index.__getitem__, subjects)), predicates,
                list(map(index.get, objects, objects))))
    record(None if locksets is None else [(var, rec.candidate, rec.accesses, rec.tids, rec.wrote)
                                          for var, rec in locksets.items()])


def _prune(cache: Path) -> None:
    """Remove all but the KEEP newest entries and temporary files of `cache`
    by mtime, so that one a writer killed mid-write left goes too; one that
    another process removed first is passed over.  A live writer's file is
    among the newest, and were it removed, its rename would fail as any
    other write can."""
    entries = []
    with os.scandir(cache) as found:
        for entry in found:
            if entry.name.endswith((".graph", ".tmp")):
                try:
                    entries.append((entry.stat().st_mtime_ns, entry.path))
                except FileNotFoundError:
                    pass
    for _, stale in sorted(entries)[:-KEEP]:
        try:
            os.unlink(stale)
        except FileNotFoundError:
            pass
