"""Every exception the package raises, under one base class.

There are three branches, and the ``agraded`` command line maps each to
one exit code:

* ``InputError`` (exit 2): malformed or unsupported input, from a file, an
  option or a caller.  It is a ValueError.
* ``GuardExceeded`` (exit 2): an enumeration visited more vertices or ran
  more K-polynomial tests than its guard allows.  It is a RuntimeError.
* ``CertificateError`` (exit 4): a computed certificate or an internal
  invariant failed its exact re-check.  It is an AssertionError, but
  ``certify`` raises it explicitly, so the checks also run under
  ``python -O``.  A known-answer example that gives another answer is a
  report, not an exception; ``agraded verify-paper`` exits 4 on it.

The modules that raise a class import it from here, so each class can
also be imported from the module that raises it.
"""


class AgradedError(Exception):
    """Base class of every exception the package raises."""


class InputError(AgradedError, ValueError):
    """Malformed or unsupported input."""


class FormatError(InputError):
    """A matrix, ideal, weight or graph document that does not parse."""


class UnknownName(InputError):
    """A fixture or known-answer example that is not in the catalogue."""


class GradingError(InputError):
    """A matrix that is not a grading matrix."""


class RankDeficient(GradingError):
    pass


class NotPointed(GradingError):
    pass


class ExponentOverflow(InputError):
    """An exponent lies outside the packed field range 0 <= e < 2**31."""


class NonHomogeneousInput(InputError):
    """A binomial or pair whose two monomials have different degrees."""


class NotAGraded(InputError):
    """A monomial ideal without the Hilbert function of the toric ideal."""


class IncompleteInput(InputError):
    pass


class BadLength(InputError):
    pass


class IncompleteGraph(InputError):
    pass


class NotApplicable(InputError):
    """Neither orientation pairs a minimal generator with an outside monomial."""


class NotFlippable(InputError):
    """The wall ideal does not reproduce the source under the reverse marking.

    Raised with the packed pair (a, b) and its number of fields n.  The
    flip-graph search rejects most of its candidates, so the sides are
    unpacked, and the message formatted, only when it is shown.
    """

    def __init__(self, pa, pb, n):
        super().__init__(pa, pb, n)

    def __str__(self):
        from .monomials import unpack  # monomials imports this module
        pa, pb, n = self.args
        return f"wall of {unpack(pa, n)} - {unpack(pb, n)} does not re-mark to the source"


class NotFlippableComplex(InputError):
    pass


class GuardExceeded(AgradedError, RuntimeError):
    """An enumeration visited more vertices or ran more K-polynomial tests than its guard allows."""


class CertificateError(AgradedError, AssertionError):
    """A certificate or an internal invariant failed its exact re-check."""


def certify(ok, message):
    """Raise CertificateError(message) unless ``ok``; runs under python -O."""
    if not ok:
        raise CertificateError(message)
