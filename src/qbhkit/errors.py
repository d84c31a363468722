"""Exception hierarchy shared by the whole package."""


class QbhError(Exception):
    """Base class for all errors raised by qbhkit."""


class ChartMismatchError(QbhError):
    """Two values that must live on the same chart do not."""


class UnknownCoordinateError(QbhError):
    """A coordinate name does not belong to the chart."""


class ExprSyntaxError(QbhError):
    """Expression text failed to parse.

    ``offset`` is the byte offset into the UTF-8 input where the
    problem was detected.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """An identifier in expression text is neither a chart coordinate
    nor a known function name."""

    def __init__(self, identifier, offset):
        super().__init__(f"unknown identifier '{identifier}'", offset)
        self.identifier = identifier


class ExpressionTooDeepError(QbhError):
    """An expression tree would be deeper than the bound every tree
    walk can recurse through. ``depth`` is the depth of the node that
    was being built, ``limit`` the bound."""

    def __init__(self, depth, limit):
        super().__init__(
            f"expression tree of depth {depth} exceeds the limit of {limit}"
        )
        self.depth = depth
        self.limit = limit


class EvaluationDomainError(QbhError):
    """Evaluation hit a point outside an operation's domain.

    Carries the offending expression node and a short reason such as
    "division by zero".
    """

    def __init__(self, node, reason):
        super().__init__(reason)
        self.node = node
        self.reason = reason


class GuardTooRestrictiveError(QbhError):
    """Rejection sampling exhausted its attempt budget."""


class AllPointsSkippedError(QbhError):
    """Every sampled point was rejected (degenerate basis or undefined
    expressions), so a pointwise check has nothing to report."""


class SingularFactorError(QbhError):
    """A structure-coefficient guard |X2(H)| >= eps failed at a sampled
    point."""


class PreconditionResidualError(QbhError):
    """A residual precondition of an operation exceeded tolerance.

    ``condition`` names the violated precondition.
    """

    def __init__(self, condition, max_residual):
        super().__init__(
            f"precondition '{condition}' violated (max residual {max_residual:.3e})"
        )
        self.condition = condition
        self.max_residual = max_residual


class DeltaViolatedError(QbhError):
    """The three-field commutation algebra does not hold."""

    def __init__(self, report):
        super().__init__("commutation-algebra check failed")
        self.report = report


class HamiltonianConditionViolatedError(QbhError):
    """X1(X2(H)) does not vanish on the sampled domain."""

    def __init__(self, report):
        super().__init__("second-order Hamiltonian condition failed")
        self.report = report


class NonVanishingRhoError(QbhError):
    """The non-vanishing requirement on the rescaling function failed:
    |rho| dipped below the guard epsilon (or rho changed sign) on the
    sampled domain."""


class NotAnIntegralError(QbhError):
    """F was required to be an integral of the first structure but
    {H,F} does not vanish on the sampled domain."""

    def __init__(self, max_residual):
        super().__init__(
            f"{{H,F}} does not vanish (max residual {max_residual:.3e})"
        )
        self.max_residual = max_residual


class ProblemFormatError(QbhError):
    """A problem file is malformed. ``line`` is 1-based."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
