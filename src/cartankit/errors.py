"""Exception types shared across the toolkit."""


class CartanKitError(Exception):
    """Base class for all toolkit errors."""


# --- linear algebra layer ---

class NonSquareMatrix(CartanKitError):
    pass


class DimensionOverflow(CartanKitError):
    pass


class NotASubalgebra(CartanKitError):
    pass


class NumericalRankAmbiguity(CartanKitError):
    pass


class NotAbelian(CartanKitError):
    pass


class SeedOutsideAlgebra(CartanKitError):
    pass


class EmptyAlgebra(CartanKitError):
    """The zero algebra (e.g. realized from a groupoid with no units): it
    has no unit, so it carries no unital subalgebra or Cartan pair."""

    def __init__(self, msg="the zero algebra has no unit (a groupoid with "
                           "no units realizes to it)"):
        super().__init__(msg)


# --- groupoid layer ---

class UnknownUnit(CartanKitError):
    pass


class UnknownArrow(CartanKitError):
    pass


class NotASubgroupoid(CartanKitError):
    pass


class IsomorphismUndecided(CartanKitError):
    """The groupoids agree on the invariant signature, and are too large
    for the exhaustive isomorphism search."""


# --- twist layer ---

class TwistMismatch(CartanKitError):
    pass


class DegreeMismatch(CartanKitError):
    pass


class FactorizationPropertyFails(CartanKitError):
    pass


class SigmaUndefined(CartanKitError):
    """sigma has no value at a composable pair (only tables that fail
    validation get here)."""


class OutsideFibers(CartanKitError):
    """A product of realized arrows leaves the realized fibers, or the
    deltas that ``delta_norms``, ``algebra`` and ``diagonal`` read are no
    partial isometry pattern, or (for the last two) overlap or vanish.
    Only tables that fail validation get here."""


# --- inclusion layer ---

class OutsideAmbient(CartanKitError):
    pass


class NotANormalizer(CartanKitError):
    pass


class NotRegular(CartanKitError):
    """N(C, D) does not generate C; the witness is the first failing slice."""

    def __init__(self, what, witness):
        i, j, d, a, b, r, s = self.witness = witness
        super().__init__(f"{what} requires a regular inclusion: dim p_{j} C "
                         f"p_{i} = {d}, dim A_{i} = {a}, dim A_{j} = {b}, "
                         f"rank p_{i} = {r}, rank p_{j} = {s}")


class NotInvariant(CartanKitError):
    pass


class InvarianceUndecided(CartanKitError):
    """No partial isometry is built between non-scalar corners."""


class NonUniquePseudoExpectation(CartanKitError):
    pass


# --- weyl / envelope layer ---

class NotInDomain(CartanKitError):
    pass


class NoConditionalExpectation(CartanKitError):
    pass


class SourceVanishes(CartanKitError):
    pass


class NotComposable(CartanKitError):
    pass


class NotCovering(CartanKitError):
    pass


class CoverNotCertified(CartanKitError):
    pass


class NotNested(CartanKitError):
    pass


class EnvelopeAbsent(CartanKitError):
    pass


class InvalidMode(CartanKitError, ValueError):
    """A mode outside a function's choices, or arguments its mode does
    not take; a ValueError too, so callers catching that still catch it."""


# --- I/O layer ---

class ParseError(CartanKitError):
    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
