"""Exception hierarchy for grouplab.

Errors fall into three families: bad input (rejected data or parameters),
resource caps (work refused because a configured limit would be exceeded),
and internal-consistency failures (conditions that are mathematically
guaranteed for valid input, so a raise means a bug).
"""


class GroupLabError(Exception):
    """Base class for all grouplab errors."""


# --- input errors -----------------------------------------------------------

class ValidationError(GroupLabError):
    """A structure violated one of its invariants; the message names it."""


class ParseError(GroupLabError):
    """A catalog or spec file could not be parsed."""

    def __init__(self, message: str, path: str | None = None, position: str | None = None):
        self.path = path
        self.position = position
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if position is not None:
            detail = f"{detail} (at {position})"
        super().__init__(detail)


class EmptyGeneratorList(ValidationError):
    """Permutation closure requested with no generators and no point set."""


class NotNormal(ValidationError):
    """Quotient requested by a subgroup that is not normal."""


class NotAbelian(ValidationError):
    """Abelian invariants requested for a non-abelian group."""


class NotAPairing(ValidationError):
    """The supplied pair table violates one of the pairing axioms."""


class WitnessInvalid(ValidationError):
    """An isoclinism witness failed verification."""


class ModulusMismatch(ValidationError):
    """Cohomology classes from spaces with different coefficient moduli."""


class UnknownFamily(ValidationError):
    """Unrecognised builtin group family name."""


class ParamOutOfRange(ValidationError):
    """Builtin family parameter outside the supported range."""


# --- resource caps ----------------------------------------------------------

class CapExceeded(GroupLabError):
    """Base class for configured-limit errors (CLI exit code 2)."""


class ClosureExceedsCap(CapExceeded):
    """Permutation closure grew past the requested cap."""


class GroupTooLarge(CapExceeded):
    """Group order above the cap configured for this construction."""


class GroupTooLargeForOracle(CapExceeded):
    """Group order above the cohomology oracle cap."""


class CosetLimitExceeded(CapExceeded):
    """Coset enumeration defined max_cosets cosets without closing.

    Signals either an infinite presented group or an insufficient cap.
    """


# --- internal consistency (bug signals) --------------------------------------

class InternalCheckFailed(GroupLabError):
    """A condition that valid input cannot violate failed anyway."""


class TableNotClosed(InternalCheckFailed):
    """Realization requested from a coset table that is not closed."""


class KappaRelatorViolation(InternalCheckFailed):
    """A pairing-presentation relator did not map to a commutator identity."""


class RelatorNotKilled(InternalCheckFailed):
    """Generator images failed to kill a relator while extending to a map."""


class PairingAxiomFailed(InternalCheckFailed):
    """A pair table derived from a verified witness failed a pairing axiom."""


class InconsistentOrders(InternalCheckFailed):
    """Two order computations that must agree did not divide evenly."""
