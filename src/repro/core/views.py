"""Mount plans: which Aufs branches each app instance gets (paper Table 2).

This module is pure policy — it computes, as data, the mount table the
branch manager should build for an initiator or a delegate. Keeping the
plan symbolic lets the Table 2 benchmark print it in the paper's own
notation and lets tests check the layout without building filesystems.

Branch *kinds* name the backing stores the branch manager owns:

- ``pub`` — public external storage (``Pub(all)`` files);
- ``extpriv`` — per-app private directories on external storage;
- ``vol_ext`` / ``vol_int`` — an initiator's volatile state ``Vol(A)``
  (delegate writes to external paths / to the initiator's internal dir);
- ``deleg_int`` — a delegate instance's writable private branch (its
  ``nPriv`` copy-on-write layer);
- ``deleg_extpriv`` — a delegate's writes to its *own* private external
  dirs (part of ``Priv(B^A)``, invisible to the initiator);
- ``ppriv`` — persistent private state, keyed per (delegate, initiator);
- ``system_priv`` — an app's real internal directory on the system fs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.android.storage import EXTDIR
from repro.core.context import delegate_key
from repro.core.manifest import MaxoidManifest, EMPTY_MANIFEST
from repro.kernel import path as vpath
from repro.naming import DATA_ROOT, PPRIV_ROOT


@dataclass(frozen=True)
class BranchSpec:
    """One branch of a planned mount: backing store kind + subpath."""

    kind: str
    subpath: str
    writable: bool
    label: str  # the paper's notation, e.g. "A/tmp" or "B-A/data/B"


@dataclass(frozen=True)
class MountPlan:
    """One mount point with its ordered branches (highest priority first)."""

    mountpoint: str
    branches: List[BranchSpec]
    always_allow_read: bool = True

    def describe(self) -> str:
        parts = []
        for branch in self.branches:
            rw = "rw" if branch.writable else "ro"
            parts.append(f"{branch.label}({rw})")
        return f"{self.mountpoint}: {', '.join(parts)}"


def _short(package: str) -> str:
    """Short app name for labels (the paper writes A, B, ...)."""
    return package.rsplit(".", 1)[-1]


def plan_initiator_mounts(package: str, manifest: Optional[MaxoidManifest]) -> List[MountPlan]:
    """The mount plan for app ``package`` running on behalf of itself.

    Single-branch mounts everywhere (paper 7.2.1: "Maxoid uses a single
    branch at any internal or external mount point for initiators").
    """
    manifest = manifest or EMPTY_MANIFEST
    me = _short(package)
    plans = [
        MountPlan(
            mountpoint=EXTDIR,
            branches=[BranchSpec("pub", "/", writable=True, label="pub")],
        ),
        MountPlan(
            mountpoint=vpath.join(EXTDIR, "tmp"),
            branches=[
                BranchSpec("vol_ext", package, writable=True, label=f"{me}/tmp")
            ],
        ),
        MountPlan(
            mountpoint=vpath.join(DATA_ROOT, package, "tmp"),
            branches=[
                BranchSpec(
                    "vol_int", package, writable=True, label=f"{me}/tmp-int"
                )
            ],
        ),
    ]
    for private_dir in manifest.private_ext_dirs:
        plans.append(
            MountPlan(
                mountpoint=vpath.join(EXTDIR, private_dir),
                branches=[
                    BranchSpec(
                        "extpriv",
                        vpath.join(package, private_dir),
                        writable=True,
                        label=f"{me}/{private_dir}",
                    )
                ],
            )
        )
    return plans


def plan_delegate_mounts(
    package: str,
    initiator: str,
    manifest: Optional[MaxoidManifest],
    initiator_manifest: Optional[MaxoidManifest],
) -> List[MountPlan]:
    """The mount plan for ``package`` running on behalf of ``initiator``
    (Table 2 of the paper, plus the internal-storage mounts of 4.2)."""
    manifest = manifest or EMPTY_MANIFEST
    initiator_manifest = initiator_manifest or EMPTY_MANIFEST
    me = _short(package)
    init = _short(initiator)
    pair = delegate_key(package, initiator)
    plans = [
        # nPriv(B^A): writable overlay over Priv(B).
        MountPlan(
            mountpoint=vpath.join(DATA_ROOT, package),
            branches=[
                BranchSpec("deleg_int", pair, writable=True, label=f"{me}-{init}/int"),
                BranchSpec("system_priv", package, writable=False, label=f"{me}/int"),
            ],
        ),
        # pPriv(B^A): one writable branch, persistent per (B, A).
        MountPlan(
            mountpoint=vpath.join(PPRIV_ROOT, package),
            branches=[
                BranchSpec("ppriv", pair, writable=True, label=f"ppriv/{me}-{init}")
            ],
        ),
        # The initiator's internal dir, exposed read-only with writes
        # redirected to Vol(A) (paper 4.2 "internal private files exposed
        # to delegates").
        MountPlan(
            mountpoint=vpath.join(DATA_ROOT, initiator),
            branches=[
                BranchSpec(
                    "vol_int", initiator, writable=True, label=f"{init}/tmp-int"
                ),
                BranchSpec("system_priv", initiator, writable=False, label=f"{init}/int"),
            ],
        ),
        # EXTDIR: volatile overlay over public storage (Table 2 row 1).
        MountPlan(
            mountpoint=EXTDIR,
            branches=[
                BranchSpec("vol_ext", initiator, writable=True, label=f"{init}/tmp"),
                BranchSpec("pub", "/", writable=False, label="pub"),
            ],
        ),
    ]
    # The initiator's private external dirs (Table 2 row 2): readable, with
    # writes redirected into Vol(A) under the same relative path.
    for private_dir in initiator_manifest.private_ext_dirs:
        plans.append(
            MountPlan(
                mountpoint=vpath.join(EXTDIR, private_dir),
                branches=[
                    BranchSpec(
                        "vol_ext",
                        vpath.join(initiator, private_dir),
                        writable=True,
                        label=f"{init}/tmp/{private_dir}",
                    ),
                    BranchSpec(
                        "extpriv",
                        vpath.join(initiator, private_dir),
                        writable=False,
                        label=f"{init}/{private_dir}",
                    ),
                ],
            )
        )
    # The delegate's own private external dirs (Table 2 row 3): writes are
    # confined to a branch invisible to both A and B.
    for private_dir in manifest.private_ext_dirs:
        plans.append(
            MountPlan(
                mountpoint=vpath.join(EXTDIR, private_dir),
                branches=[
                    BranchSpec(
                        "deleg_extpriv",
                        vpath.join(pair, private_dir),
                        writable=True,
                        label=f"{me}-{init}/{private_dir}",
                    ),
                    BranchSpec(
                        "extpriv",
                        vpath.join(package, private_dir),
                        writable=False,
                        label=f"{me}/{private_dir}",
                    ),
                ],
            )
        )
    return plans
