"""Exception hierarchy for the Maxoid reproduction.

The kernel-level errors mirror POSIX errno semantics (the simulated syscall
layer raises these instead of returning negative error codes), while the
Maxoid-level errors express policy decisions such as refused invocations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Kernel / POSIX-style errors
# ---------------------------------------------------------------------------


class KernelError(ReproError):
    """Base class for simulated kernel errors. ``errno_name`` mirrors POSIX."""

    errno_name = "EINVAL"


class FileNotFound(KernelError):
    """Path does not resolve to an existing file (ENOENT)."""

    errno_name = "ENOENT"


class FileExists(KernelError):
    """Exclusive creation hit an existing name (EEXIST)."""

    errno_name = "EEXIST"


class NotADirectory(KernelError):
    """A non-directory appeared where a directory was required (ENOTDIR)."""

    errno_name = "ENOTDIR"


class IsADirectory(KernelError):
    """File operation attempted on a directory (EISDIR)."""

    errno_name = "EISDIR"


class DirectoryNotEmpty(KernelError):
    """rmdir on a non-empty directory (ENOTEMPTY)."""

    errno_name = "ENOTEMPTY"


class PermissionDenied(KernelError):
    """Credential check failed (EACCES)."""

    errno_name = "EACCES"


class ReadOnlyFilesystem(KernelError):
    """Write attempted on a read-only mount or branch (EROFS)."""

    errno_name = "EROFS"


class BadFileDescriptor(KernelError):
    """Operation on a closed or wrong-mode file handle (EBADF)."""

    errno_name = "EBADF"


class InvalidArgument(KernelError):
    """rename() of a directory into its own subtree (EINVAL)."""


class CrossDeviceLink(KernelError):
    """rename() across mounts (EXDEV)."""

    errno_name = "EXDEV"


class NetworkUnreachable(KernelError):
    """connect() refused; Maxoid emulates network loss for delegates
    (ENETUNREACH, see paper section 6.2)."""

    errno_name = "ENETUNREACH"


class NoSuchProcess(KernelError):
    """Operation on a dead or unknown pid (ESRCH)."""

    errno_name = "ESRCH"


class InjectedFault(KernelError):
    """Generic I/O error substituted by the fault plane (EIO).

    The default error for :mod:`repro.faults` policies when no specific
    substitution (EROFS, ENETUNREACH, ...) was requested.
    """

    errno_name = "EIO"


# ---------------------------------------------------------------------------
# Mini SQL engine errors
# ---------------------------------------------------------------------------


class SqlError(ReproError):
    """Base class for errors raised by :mod:`repro.minisql`."""


class SqlSyntaxError(SqlError):
    """The SQL text failed to tokenize or parse."""


class SqlNameError(SqlError):
    """Unknown table, view, column, or function name."""


class SqlIntegrityError(SqlError):
    """Constraint violation, e.g. duplicate primary key or NOT NULL."""


class SqlReadOnlyError(SqlError):
    """Write attempted on a SQL view with no INSTEAD OF trigger."""


# ---------------------------------------------------------------------------
# Android framework errors
# ---------------------------------------------------------------------------


class AndroidError(ReproError):
    """Base class for simulated Android framework errors."""


class PackageNotFound(AndroidError):
    """Unknown package name."""


class ActivityNotFound(AndroidError):
    """No activity resolved for an intent."""


class SecurityException(AndroidError):
    """Android-style security failure (missing permission, bad URI grant)."""


class ProviderNotFound(AndroidError):
    """No content provider registered for an authority."""


# ---------------------------------------------------------------------------
# Maxoid policy errors
# ---------------------------------------------------------------------------


class MaxoidError(ReproError):
    """Base class for Maxoid policy violations."""


class NestedDelegationError(MaxoidError):
    """A delegate asked to create its own delegate (unsupported, paper 3.4)."""


class IpcDenied(MaxoidError):
    """Binder transaction outside the delegate's allowed peer set."""


class DelegateNetworkDenied(MaxoidError):
    """A delegate asked a trusted service to touch the network on its
    behalf (e.g. a Downloads fetch request, paper section 6.2)."""


class DelegateTimeout(MaxoidError):
    """A binder delegate invocation blew through its virtual-clock
    deadline (and its bounded retries) under the deterministic
    scheduler; surfaced in the AuditLog instead of hanging a schedule."""
