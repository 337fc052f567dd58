"""Exception types shared across the package."""


class TotaldomError(Exception):
    """Base class for all package-specific errors."""


class InputError(TotaldomError):
    """Input that cannot be used: an unreadable or non-UTF-8 file, a vertex
    label the graph does not have, the one-vertex tree given to
    ``stable_shelling`` or ``cm_type`` (it has no total dominating set, so
    its N(G) is the unit ideal), or an unmixed balanced tree of height other
    than 3 given to ``deconstruct``."""


class EdgeListParseError(TotaldomError):
    """Malformed edge-list input (bad token count, self-loop, ...)."""


class NotAForestError(TotaldomError):
    """A graph expected to be acyclic contains a cycle."""


class NotATreeError(TotaldomError):
    """A graph expected to be a tree is disconnected or cyclic."""


class NotBalancedError(TotaldomError):
    """A tree expected to be balanced has two adjacent same-height vertices."""


class MixedTreeError(TotaldomError):
    """An operation requiring an unmixed tree received a mixed one."""


class NotSquareFreeError(TotaldomError):
    """A square-free monomial ideal was required."""


class EnumerationCapExceeded(TotaldomError):
    """An enumeration grew past its configured cap.

    Raised instead of silently truncating output.
    """


class TheoremViolation(TotaldomError):
    """An internal cross-check that mirrors a proved statement failed.

    This never indicates bad user input; it means the implementation (or the
    statement it encodes) is wrong, so it is surfaced loudly.
    """
