class FunctalError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(FunctalError):
    pass


class AlgebraMismatch(FunctalError):
    pass


class SingularMatrix(FunctalError):
    pass


class NotMatrixAlgebra(FunctalError):
    pass


class DegeneratePencil(FunctalError):
    pass


class NoRegularAlpha0(FunctalError):
    pass


class NotType1(FunctalError):
    pass


class AlgebraParseError(FunctalError):
    pass


class AssociativityViolation(AlgebraParseError):
    def __init__(self, triple, message=None):
        self.triple = triple
        super().__init__(message or f"associativity fails at basis triple {triple}")
