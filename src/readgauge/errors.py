"""Exception hierarchy shared across the toolkit.

A subclass's name is its error code: the CLI prints ``error: <Name>: ...``.
"""


class ReadgaugeError(Exception):
    """Base class for all toolkit errors."""

    def __str__(self):
        # Always one "<Code>: <message>" line, as the CLI prints it to stderr.
        return f"{type(self).__name__}: " + " ".join(super().__str__().splitlines())


class MissingFile(ReadgaugeError):
    pass


class BadEncoding(ReadgaugeError):
    pass


class BadOutput(ReadgaugeError):
    pass


class MalformedRow(ReadgaugeError):
    pass


class MalformedRule(ReadgaugeError):
    pass


class BadProbabilitySum(ReadgaugeError):
    pass


class UnsupportedRule(ReadgaugeError):
    pass


class NoParse(ReadgaugeError):
    pass


class UnknownClass(ReadgaugeError):
    pass


class DegenerateLabels(ReadgaugeError):
    pass


class NameCollision(ReadgaugeError):
    pass


class FeatureMismatch(ReadgaugeError):
    pass


class NonFiniteFeature(ReadgaugeError):
    pass


class TooFewSamples(ReadgaugeError):
    pass


class SizeTooLarge(ReadgaugeError):
    pass


class BadSize(ReadgaugeError):
    pass


class BadArgument(ReadgaugeError):
    pass


class MissingResource(ReadgaugeError):
    pass


class MissingDoc(ReadgaugeError):
    pass


class DuplicateId(ReadgaugeError):
    pass


class MissingScore(ReadgaugeError):
    pass
