"""Shared error types.

Every domain failure raised by the library is a DomainError carrying a
stable ``kind`` string; the CLI serializes these as {"error": {"kind", "detail"}}.
Verdict-style outcomes (link violations, hypothesis failures, stuck
residuals) are ordinary return values, not exceptions.
"""


class DomainError(Exception):
    kind = "DomainError"

    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = detail

    def to_json(self):
        return {"error": {"kind": self.kind, "detail": self.detail}}


def _make(kind_name):
    return type(kind_name, (DomainError,), {"kind": kind_name})


# exactfield
ZeroPolynomial = _make("ZeroPolynomial")
ConstantPolynomial = _make("ConstantPolynomial")
UnsupportedField = _make("UnsupportedField")
NotIrreducible = _make("NotIrreducible")

# galois_orbits
DegreeMismatch = _make("DegreeMismatch")
IncompatibleFields = _make("IncompatibleFields")
UncomputableOverQ = _make("UncomputableOverQ")
ScaleExceeded = _make("ScaleExceeded")
CollinearTriple = _make("CollinearTriple")
FingerprintMismatch = _make("FingerprintMismatch")

# mfs_catalog / linsys
NonRational = _make("NonRational")
InvalidLink = _make("InvalidLink")
MultiplicityOutOfRange = _make("MultiplicityOutOfRange")
NonpositiveLambda = _make("NonpositiveLambda")

# rewriting
SharedFiber = _make("SharedFiber")
NotTypeIICB = _make("NotTypeIICB")
NotARelator = _make("NotARelator")
UndecidableCenters = _make("UndecidableCenters")
ChainBreak = _make("ChainBreak")

# freeprod
UnresolvedClass = _make("UnresolvedClass")

# constructions
NotGeneralPosition = _make("NotGeneralPosition")
EvenDegree = _make("EvenDegree")
ConicCoincidence = _make("ConicCoincidence")
EndpointMismatch = _make("EndpointMismatch")

# cli / json
BadInput = _make("BadInput")

# what reading a malformed JSON value raises; the JSON readers turn these
# into BadInput
MALFORMED_JSON = (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError)
