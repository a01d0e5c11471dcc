"""Exception hierarchy shared across the toolkit."""


class ReadgaugeError(Exception):
    """Base class for all toolkit errors."""

    code = "Error"

    def __str__(self):
        # Always one "<Code>: <message>" line, as the CLI prints it to stderr.
        return f"{self.code}: " + " ".join(super().__str__().splitlines())


class MissingFile(ReadgaugeError):
    code = "MissingFile"


class BadEncoding(ReadgaugeError):
    code = "BadEncoding"


class BadOutput(ReadgaugeError):
    code = "BadOutput"


class MalformedRow(ReadgaugeError):
    code = "MalformedRow"


class MalformedRule(ReadgaugeError):
    code = "MalformedRule"


class BadProbabilitySum(ReadgaugeError):
    code = "BadProbabilitySum"


class UnsupportedRule(ReadgaugeError):
    code = "UnsupportedRule"


class NoParse(ReadgaugeError):
    code = "NoParse"


class EmptyKBest(ReadgaugeError):
    code = "EmptyKBest"


class SupportViolation(ReadgaugeError):
    code = "SupportViolation"


class UnknownClass(ReadgaugeError):
    code = "UnknownClass"


class DegenerateLabels(ReadgaugeError):
    code = "DegenerateLabels"


class NameCollision(ReadgaugeError):
    code = "NameCollision"


class FeatureMismatch(ReadgaugeError):
    code = "FeatureMismatch"


class LengthMismatch(ReadgaugeError):
    code = "LengthMismatch"


class TooFewSamples(ReadgaugeError):
    code = "TooFewSamples"


class SizeTooLarge(ReadgaugeError):
    code = "SizeTooLarge"


class BadSize(ReadgaugeError):
    code = "BadSize"


class BadArgument(ReadgaugeError):
    code = "BadArgument"


class MissingResource(ReadgaugeError):
    code = "MissingResource"


class MissingDoc(ReadgaugeError):
    code = "MissingDoc"


class DuplicateId(ReadgaugeError):
    code = "DuplicateId"


class MissingScore(ReadgaugeError):
    code = "MissingScore"
