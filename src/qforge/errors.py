"""Exception hierarchy shared by all qforge modules."""


class QForgeError(Exception):
    """Base class for all qforge errors."""


class DivisionByZero(QForgeError, ZeroDivisionError):
    """Exact division by a zero field element."""


class ZeroDenominator(QForgeError, ZeroDivisionError):
    """A denominator vanished at a concrete evaluation point."""


class InvalidDomain(QForgeError):
    """Numeric operation outside its convergence domain (e.g. |q| >= 1)."""


class NotTerminating(QForgeError):
    """No terminating exponent r <= TERMINATION_BOUND was detected for an exact series."""


class NoConvergence(QForgeError):
    """A numeric series or product did not meet its tolerance within its term bound."""


class ResumeMismatch(QForgeError):
    """A numeric series was resumed at other parameters or precision, or at a looser tolerance."""


class NotInTable(QForgeError, KeyError):
    """Shift vector has no transcribed (Q, R) pair."""


class UnreachableTolerance(QForgeError):
    """The tolerance cannot be met: it is below the rounding error of the
    working precision, or it is not a positive finite number."""


class UnboundSymbol(QForgeError, KeyError):
    """A concrete point leaves a symbol that the evaluation needs unbound."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class BudgetExceeded(QForgeError):
    """Derived relation exceeded the requested x-degree budget."""


class VerificationFailed(QForgeError):
    """A derived relation failed a check: in qr_derive, the factoring of
    its ladder or the exact series match (the proof of the relation at
    each fixed witness point); or verify_relation's numeric residual, the
    oracle of the relation table's reproduction and of the tests."""


class UndefinedAction(QForgeError):
    """A symmetry generator divides by an identically-zero parameter."""


class NoRepresentativeFound(QForgeError):
    """No orbit member satisfies the canonical representative condition."""


class GroupNotClosed(QForgeError):
    """The symmetry generators do not close into a group of the known order."""


class DegenerateFamily(QForgeError):
    """Parameter family lies on an excluded locus (identically degenerate)."""


class DegenerateParameter(QForgeError):
    """A concrete parameter value makes the requested identity undefined."""


class UnsupportedBinding(QForgeError):
    """A family's fixed bindings are not one root of unity, the only kind
    the exact family check reduces by its cyclotomic polynomial."""


class SamplingExhausted(QForgeError):
    """Random sampling kept hitting degenerate points."""


class ConstraintViolated(QForgeError):
    """Bindings do not satisfy an identity record's constraints."""
