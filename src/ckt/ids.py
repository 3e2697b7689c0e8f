"""Canonical entity identifier scheme.

Every node in the knowledge graph is addressed by a deterministic string id:

    file:<path>
    func:<path>#<name>
    var:<path>#<scope-qualified-name>     (globals: <name>; locals/params: <func>.<name>)
    type:<path>#<name>
    comment:<path>#L<start>
    bug:<tracker>/<number>
    commit:<hash>
    dev:<email-or-name>
    concept:<ontology-term>

Paths are stored with forward slashes, relative to the project root.
"""

from __future__ import annotations

KIND_BY_PREFIX = {
    "file": "file",
    "func": "function",
    "var": "variable",
    "type": "type",
    "comment": "comment",
    "bug": "bug",
    "commit": "commit",
    "dev": "developer",
    "concept": "concept",
}

ENTITY_KINDS = frozenset(
    [
        "file",
        "function",
        "variable",
        "type",
        "class",
        "comment",
        "bug",
        "commit",
        "developer",
        "concept",
        "thread-root",
    ]
)

# Singleton marker node; subject of every starts-thread triple.
THREAD_ROOT_ID = "concept:thread-root"


def norm_path(path: str) -> str:
    path = path.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    return path


def file_id(path: str) -> str:
    return f"file:{norm_path(path)}"


def func_id(path: str, name: str) -> str:
    return f"func:{norm_path(path)}#{name}"


def var_id(path: str, qualified_name: str) -> str:
    return f"var:{norm_path(path)}#{qualified_name}"


def type_id(path: str, name: str) -> str:
    return f"type:{norm_path(path)}#{name}"


def comment_id(path: str, start_line: int) -> str:
    return f"comment:{norm_path(path)}#L{start_line}"


def commit_id(sha: str) -> str:
    return f"commit:{sha}"


def dev_id(email_or_name: str) -> str:
    return f"dev:{email_or_name}"


def concept_id(term: str) -> str:
    return f"concept:{term}"


def kind_of(entity_id: str) -> str | None:
    """Infer the entity kind from the id prefix, or None when not inferable."""
    prefix, _, rest = entity_id.partition(":")
    if not rest:
        return None
    return KIND_BY_PREFIX.get(prefix)


def path_of(entity_id: str) -> str | None:
    """File path embedded in a code-element id, or None for other kinds."""
    prefix, _, rest = entity_id.partition(":")
    if prefix == "file":
        return rest or None
    if prefix in ("func", "var", "type", "comment"):
        path, sep, _ = rest.rpartition("#")
        return path if sep else None
    return None
