"""Path utilities for the simulated VFS.

All simulated paths are absolute, ``/``-separated, and normalized before any
filesystem sees them. Paths never refer to the host filesystem.
"""

from __future__ import annotations

from typing import List, Tuple


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


def split(path: str) -> Tuple[str, ...]:
    """Split a normalized path into its components.

    >>> split("/a/b/c")
    ('a', 'b', 'c')
    >>> split("/")
    ()
    """
    path = normalize(path)
    if path == "/":
        return ()
    return tuple(path[1:].split("/"))


def join(*parts: str) -> str:
    """Join path fragments into a normalized absolute path.

    >>> join("/a", "b/c", "d")
    '/a/b/c/d'
    >>> join("/", "/a/", "b")
    '/a/b'
    """
    # Fragments lose their outer slashes first, so joining canonical
    # fragments yields a canonical path that normalize returns unchanged.
    stripped = [p.strip("/") for p in parts]
    return normalize("/" + "/".join(p for p in stripped if p))


def parent(path: str) -> str:
    """Return the parent directory of ``path`` (the root is its own parent).

    >>> parent("/a/b")
    '/a'
    >>> parent("/")
    '/'
    """
    return normalize(path).rpartition("/")[0] or "/"


def basename(path: str) -> str:
    """Return the final component of ``path`` (empty string for the root).

    >>> basename("/a/b")
    'b'
    """
    return normalize(path).rpartition("/")[2]


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
