"""Path utilities for the simulated VFS.

All simulated paths are absolute, ``/``-separated, and normalized before any
filesystem sees them. Paths never refer to the host filesystem.

Each layer a file operation crosses (syscalls, the mount namespace, Aufs
and its branches) asks ``split``, ``join``, ``parent`` or ``basename`` of
the same few paths again, so those four answer from one table shared by
every device in the process. They are pure functions of immutable strings,
so a parsed answer is never stale: a raw path maps to its canonical form,
components, parent and basename, and a tuple of ``join`` fragments to the
entry of the path they join to. The table holds at most
:data:`PATH_CACHE_LIMIT` inputs and is cleared when it reaches that many,
as :func:`repro.minisql.engine.prepare` treats its statements. Threads
share it without a lock: every entry for a key is the same answer, so a
racing insert or clear costs at most one parse more.

``normalize`` is not memoised: a canonical input is already returned as
is, without splitting (the same object, which a table keyed by equality
could not promise), and a non-canonical one is parsed by the helper that
receives it once, on its first use.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple, Union


def normalize(path: str) -> str:
    """Normalize ``path`` to a canonical absolute form.

    Collapses repeated slashes, resolves ``.`` and ``..`` components (without
    consulting the filesystem — the simulated VFS has no symlink loops to
    worry about), and strips trailing slashes. The root is ``"/"``. A path
    that is already canonical is returned unchanged without being split;
    names that merely start with a dot are ordinary components.

    >>> normalize("//a/./b/../c/")
    '/a/c'
    >>> normalize("/a/..")
    '/'
    >>> normalize("/d/.wh.x")
    '/d/.wh.x'
    """
    if (
        path[:1] == "/"
        and "//" not in path
        and "/./" not in path
        and "/../" not in path
        and (path == "/" or not path.endswith(("/", "/.", "/..")))
    ):
        return path
    if not path.startswith("/"):
        path = "/" + path
    parts: List[str] = []
    for component in path.split("/"):
        if component in ("", "."):
            continue
        if component == "..":
            if parts:
                parts.pop()
            continue
        parts.append(component)
    return "/" + "/".join(parts)


#: Inputs the table holds before it is cleared: over twice the distinct
#: inputs of thousands of delegate invocations (about 1,800), so a clear
#: is rare and costs one parse per path.
PATH_CACHE_LIMIT = 4096

#: A raw path, or a tuple of ``join`` fragments, to the entry
#: ``(canonical path, components, parent, basename)`` of the path it names.
_Entry = Tuple[str, Tuple[str, ...], str, str]
_parsed: Dict[Union[str, Tuple[str, ...]], _Entry] = {}


def _parse(key: Union[str, Tuple[str, ...]], path: str) -> _Entry:
    """Parse ``path`` once and file its entry under ``key``. The parts
    are interned: the many paths that share a parent or component then
    share one copy of it."""
    path = normalize(path)
    head, _, name = path.rpartition("/")
    parts = tuple(map(sys.intern, path[1:].split("/"))) if name else ()
    entry = (path, parts, sys.intern(head or "/"), sys.intern(name))
    if len(_parsed) >= PATH_CACHE_LIMIT:
        _parsed.clear()
    _parsed[key] = entry
    return entry


def split(path: str) -> Tuple[str, ...]:
    """Split a normalized path into its components.

    >>> split("/a/b/c")
    ('a', 'b', 'c')
    >>> split("/")
    ()
    """
    try:
        return _parsed[path][1]
    except KeyError:
        return _parse(path, path)[1]


def join(*parts: str) -> str:
    """Join path fragments into a normalized absolute path.

    >>> join("/a", "b/c", "d")
    '/a/b/c/d'
    >>> join("/", "/a/", "b")
    '/a/b'
    """
    try:
        return _parsed[parts][0]
    except KeyError:
        # Fragments lose their outer slashes first, so joining canonical
        # fragments yields a canonical path that normalize returns unchanged.
        stripped = [p.strip("/") for p in parts]
        return _parse(parts, "/" + "/".join(p for p in stripped if p))[0]


def parent(path: str) -> str:
    """Return the parent directory of ``path`` (the root is its own parent).

    >>> parent("/a/b")
    '/a'
    >>> parent("/")
    '/'
    """
    try:
        return _parsed[path][2]
    except KeyError:
        return _parse(path, path)[2]


def basename(path: str) -> str:
    """Return the final component of ``path`` (empty string for the root).

    >>> basename("/a/b")
    'b'
    """
    try:
        return _parsed[path][3]
    except KeyError:
        return _parse(path, path)[3]


def is_within(path: str, ancestor: str) -> bool:
    """True if ``path`` equals ``ancestor`` or lies beneath it.

    >>> is_within("/a/b/c", "/a/b")
    True
    >>> is_within("/a/bc", "/a/b")
    False
    """
    path = normalize(path)
    ancestor = normalize(ancestor)
    if ancestor == "/":
        return True
    return path == ancestor or path.startswith(ancestor + "/")


def relative_to(path: str, ancestor: str) -> str:
    """Return ``path`` relative to ``ancestor`` (no leading slash).

    Raises :class:`ValueError` if ``path`` is not within ``ancestor``.

    >>> relative_to("/a/b/c", "/a")
    'b/c'
    >>> relative_to("/a", "/a")
    ''
    """
    path = normalize(path)
    ancestor = normalize(ancestor)
    if not is_within(path, ancestor):
        raise ValueError(f"{path!r} is not within {ancestor!r}")
    if path == ancestor:
        return ""
    if ancestor == "/":
        return path[1:]
    return path[len(ancestor) + 1 :]
