"""Exception types shared across the package."""


class SupportError(ValueError):
    """A point lies outside the support of a basis family or density."""


class OrderLimitError(ValueError):
    """A basis index exceeds the order cap, basis1d.MAX_ORDER."""


class ProposalSupportError(RuntimeError):
    """The proposal density vanishes at a sample, so importance weights are undefined."""


class ScoreRejectionError(RuntimeError):
    """Too many samples produced non-finite target scores."""


class PoleError(ArithmeticError):
    """The score of a squared expansion is undefined at a node of the expansion."""


class TableBuildError(RuntimeError):
    """A cumulative-integral table failed its completeness check."""


class TransformError(ValueError):
    """A standardizing transform could not be built or attached."""


class ConfigError(ValueError):
    """An experiment configuration is invalid."""
