"""Exception types shared across the package."""


class ConnSysError(Exception):
    """Base class for all library errors."""


class InternalError(RuntimeError):
    """A self-check failed: the library contradicted itself, whatever the input."""


class InputError(ConnSysError):
    """Malformed instance, family, or certificate input."""


class GroundSetTooLarge(InputError):
    pass


class TableIncomplete(InputError):
    pass


class FunctionViolation(ConnSysError):
    """A well-formed function that is not symmetric or not submodular.

    subsets holds the subset keys of the witness, in the order the message names them.
    """

    subsets: tuple[str, ...]


class SymmetryViolation(FunctionViolation):
    def __init__(self, mask: int, detail: str = "", subsets: tuple[str, ...] = ()):
        self.mask = mask
        self.subsets = subsets
        super().__init__(f"f is not symmetric at subset mask {mask:#x}" + (f": {detail}" if detail else ""))


class SubmodularityViolation(FunctionViolation):
    def __init__(self, a_mask: int, b_mask: int, detail: str = "", subsets: tuple[str, ...] = ()):
        self.a_mask = a_mask
        self.b_mask = b_mask
        self.subsets = subsets
        super().__init__(
            f"f is not submodular on pair ({a_mask:#x}, {b_mask:#x})" + (f": {detail}" if detail else "")
        )


class NormalizationViolation(ConnSysError):
    pass


class GroundSetMismatch(ConnSysError):
    pass


class NotAFilter(ConnSysError):
    def __init__(self, verdict=None, detail: str = ""):
        self.verdict = verdict
        super().__init__(detail or "family does not satisfy the filter axioms")


class BoundIncrease(ConnSysError):
    pass


class SizeGateExceeded(ConnSysError):
    """An exhaustive search refused an instance above its size gate; the message names the limit."""


class GroundSetTooLargeForEnumeration(SizeGateExceeded):
    pass


class GroundSetTooLargeForExhaustiveSearch(SizeGateExceeded):
    pass


class EmptyIntersection(ConnSysError):
    def __init__(self, witnesses):
        self.witnesses = tuple(witnesses)
        super().__init__(f"members intersect to the empty set: {self.witnesses}")


class EfficiencyEscape(ConnSysError):
    def __init__(self, a_mask: int, b_mask: int, missing_mask: int):
        self.a_mask = a_mask
        self.b_mask = b_mask
        self.missing_mask = missing_mask
        super().__init__(
            f"generated family is not intersection-closed: ({a_mask:#x}) & ({b_mask:#x}) "
            f"= {missing_mask:#x} is efficient but absent"
        )


class MalformedTree(ConnSysError):
    pass


class NotAPermutation(ConnSysError):
    pass


class NotASequenceChain(ConnSysError):
    pass


class NotSingleElement(ConnSysError):
    pass


class ElementAlreadyPresent(ConnSysError):
    pass


class ElementAbsent(ConnSysError):
    pass


class ChainOrderBroken(ConnSysError):
    pass


class EfficiencyViolation(ConnSysError):
    def __init__(self, mask: int, value: int, k: int):
        self.mask = mask
        self.value = value
        self.k = k
        super().__init__(f"subset {mask:#x} has f = {value} > {k}")


class NotKEfficient(ConnSysError):
    def __init__(self, mask: int):
        self.mask = mask
        super().__init__(f"subset {mask:#x} exceeds the efficiency bound")


class InvalidParameter(ConnSysError):
    pass


class FipCrossCheckWarning(UserWarning):
    """Raised as a warning when the two finite-intersection-property routes disagree."""
