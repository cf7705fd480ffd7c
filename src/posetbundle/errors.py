"""Exception hierarchy shared by all posetbundle modules, and the helpers
that let input errors name the line and file they came from."""

import re


class PosetBundleError(Exception):
    """Base class for all errors raised by this package."""


class located:
    """Append `suffix`, a place in the input such as " (line 3)", to the
    message of a `PosetBundleError` raised inside; cheap to enter per line."""

    __slots__ = ("suffix",)

    def __init__(self, suffix):
        self.suffix = suffix

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, PosetBundleError):
            exc.args = (f"{exc}{self.suffix}",)


# The text formats break lines where text-mode `open()` does, and fields
# at spaces and tabs only: any other whitespace stays inside its token,
# where the name rule or an element lookup refuses it.
BLANKS = " \t"
_LINE_BREAK = re.compile(r"\r\n?|\n")
split_fields = re.compile(r"[^ \t]+").findall


def content_lines(text):
    """(number, line without comment, raw line) for each nonblank line."""
    for number, raw in enumerate(_LINE_BREAK.split(text), 1):
        line = raw.split("#", 1)[0].strip(BLANKS)
        if line:
            yield number, line, raw


# --- poset construction ---

class DuplicateElement(PosetBundleError):
    pass


class UnknownElement(PosetBundleError):
    pass


class AntisymmetryViolation(PosetBundleError):
    pass


class BadParameter(PosetBundleError):
    pass


def check_name(name, what, forbidden="#"):
    """Raise `BadParameter` unless `name` is a nonempty string without
    whitespace or any character of `forbidden`: a name the text formats
    write and read back unchanged."""
    if not (isinstance(name, str) and name.split() == [name]
            and not any(c in name for c in forbidden)):
        raise BadParameter(f"bad {what} {name!r}: a name is a nonempty string "
                           f"with no whitespace and none of {' '.join(forbidden)}")


# --- simplicial ---

class UnsupportedDimension(PosetBundleError):
    pass


class IndexOutOfRange(PosetBundleError):
    pass


class NoSuchSimplex(PosetBundleError):
    pass


# --- paths ---

class EndpointMismatch(PosetBundleError):
    pass


class NotConnected(PosetBundleError):
    pass


class SearchLimitExceeded(PosetBundleError):
    pass


def check_count(value, name):
    """`BadParameter` unless `value`, the parameter `name`, is an int >= 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise BadParameter(f"{name} must be an int >= 0, got {value!r}")


def check_limit(count, limit, what):
    """Raise `SearchLimitExceeded` if a search of `count` candidates,
    described by `what`, would go over `limit`; checked before any
    work starts.  A limit that is not an int >= 0 is a `BadParameter`."""
    check_count(limit, "limit")
    if count > limit:
        raise SearchLimitExceeded(f"{what} exceed the limit {limit}")


# --- groups ---

class MalformedTable(PosetBundleError):
    pass


class NotAssociative(MalformedTable):
    pass


class NoIdentity(MalformedTable):
    pass


class NoInverse(MalformedTable):
    pass


class Mismatch(PosetBundleError):
    pass


# --- cochains ---

class CentralityViolation(PosetBundleError):
    pass


class MissingValue(PosetBundleError):
    pass


# --- connections ---

class NotAConnection(PosetBundleError):
    pass


class PreconditionViolated(PosetBundleError):
    pass


class TrivialGroup(PosetBundleError):
    pass


class NotCentral(PosetBundleError):
    pass


class MixedCocycles(PosetBundleError):
    pass


# --- gauge ---

class WrongCocycle(PosetBundleError):
    pass


# --- cli ---

class UsageError(PosetBundleError):
    pass
