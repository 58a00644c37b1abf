"""Exception hierarchy shared across the package."""


class ProjlabError(Exception):
    """Base class for all package-specific errors."""


class SeparationError(ProjlabError):
    """A set declared r-separated contains a pair closer than r."""

    def __init__(self, r, pair, distance):
        self.r = r
        self.pair = pair
        self.distance = distance
        super().__init__(
            f"separation violation: points {pair[0]} and {pair[1]} are at "
            f"distance {distance:.6g} < required {r:.6g}"
        )


class NonConcentrationError(ProjlabError):
    """A non-concentration check exceeded its threshold; carries the witness."""

    def __init__(self, label, report, threshold):
        self.label = label
        self.report = report
        self.threshold = threshold
        super().__init__(
            f"{label}: worst ratio {report.worst_ratio:.4g} exceeds threshold "
            f"{threshold:.4g} at ball center {report.witness_center}, "
            f"radius {report.witness_radius:.6g}"
        )


class BsgHypothesisError(ProjlabError):
    """Pair graph fails the density or restricted-sumset hypothesis."""


class GeneratorError(ProjlabError):
    """A seeded generator could not build a set that meets its bound."""


class TwoScaleError(ProjlabError):
    """The two-scale decomposition could not be assembled."""


class CsvFormatError(ProjlabError):
    """Malformed CSV input; carries path and 1-based line number."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")
