"""Exception types shared across the library."""


class ActionGovError(Exception):
    """Base class for all library-specific errors.

    ``step`` is the index of the supervised step during which the error was
    raised, set only by the code that holds the loop's step index:
    ``supervised_step`` for the errors of ``govern``, its oracle and the env;
    ``run_supervised`` for its controller's; and ``run_safe_koopman`` for
    everything in its step, the reset draw included.  ``govern`` called on
    its own sets none.  When set, it prefixes the message.
    """

    step = None

    def __str__(self):
        msg = super().__str__()
        return msg if self.step is None else f"step {self.step}: {msg}"


class EmptySetError(ActionGovError):
    """An operation received or produced an empty set where nonempty is required."""


class UnboundedSetError(ActionGovError):
    """A support/optimization query is unbounded in the requested direction."""


class NumericalError(ActionGovError):
    """A numerical procedure failed to converge or hit a degenerate pivot/denominator."""


class InstabilityError(ActionGovError):
    """A closed-loop matrix is not Schur (spectral radius too large)."""


class NoStabilizingSolutionError(ActionGovError):
    """Riccati iteration failed to converge to a stabilizing solution."""


class MoasConstructionError(ActionGovError):
    """Admissible-set construction became infeasible (disturbance too large)."""


class MoasNotDeterminedError(ActionGovError):
    """Admissible-set recursion hit the iteration cap without finite determination."""


class InfeasibleStateError(ActionGovError):
    """The supervisor's feasible-action set is empty at the queried state."""


class UninitializedGovernorError(ActionGovError):
    """Backup branch reached with no previously held reference."""


class NonFiniteInputError(ActionGovError):
    """The supervisor was given a state or proposed action that is not finite."""


class SeedConstructionError(ActionGovError):
    """The invariant seed set of the grid classifier came out empty."""


class SafeSetClosureError(ActionGovError):
    """A safe pair of the grid classification is inadmissible or has a
    disturbance successor off the grid or outside the safe set."""
