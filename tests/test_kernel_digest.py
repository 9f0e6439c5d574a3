"""A sha256 of the integer kernel's readouts over a fixed grid.

Every raw mpf that derivative_extremes returns, and every residual and term
of derivative_sum, is hashed over four families, n in {1, 2, 3, 5, 24, 48},
64, 256 and 512 bits, seven points y0 (the middle knot among them) and the
orders 1..8.  The digest pins the kernel's bits: a rewrite of the jet or of
the term stage that keeps every output bit passes, any other fails.  Run as
a script to print the digest of the kernel at hand:

    PYTHONPATH=src python3 tests/test_kernel_digest.py
"""
import hashlib
from fractions import Fraction

from fejerlab.apnum import ApFloat
from fejerlab.hermite import derivative_extremes, derivative_sum, hermite_fejer_basis
from fejerlab.knots import make_knots
from exact_oracle import FAMILIES

NS = (1, 2, 3, 5, 24, 48)
PRECISIONS = (64, 256, 512)
#: None stands for the middle knot x_(n//2).
Y0S = (Fraction(0), Fraction(1, 2), Fraction(-7, 10), Fraction(1, 1000), Fraction(2), Fraction(-5, 4), None)
P_MAX = 8
ORDERS = range(1, P_MAX + 1)

#: Taken from the kernel before the term stage was regrouped.
DIGEST = "20d2640228d39df8a1f1e3d0af6f4ad27653f5be89ff3b8b2f020f3e413f6604"


def _raw_text(x: ApFloat) -> str:
    sign, man, exp, bc = x.raw
    return f"{sign} {int(man)} {exp} {bc}"


def kernel_digest() -> str:
    digest = hashlib.sha256()
    for family, params in FAMILIES:
        for n in NS:
            if family == "equispaced" and n < 2:
                continue  # an equispaced set needs both end points
            for bits in PRECISIONS:
                basis = hermite_fejer_basis(make_knots(family, n, bits, **params))
                for y in Y0S:
                    y0 = basis.knots.points[n // 2] if y is None else ApFloat(y, bits)
                    digest.update(f"{family} {n} {bits} {y}\n".encode())
                    for residual, largest in derivative_extremes(basis, P_MAX, y0):
                        digest.update(f"{_raw_text(residual)} {_raw_text(largest)}\n".encode())
                    for p in ORDERS:
                        residual, terms = derivative_sum(basis, p, y0)
                        digest.update(" ".join(map(_raw_text, [residual, *terms])).encode() + b"\n")
    return digest.hexdigest()


def test_kernel_readouts_keep_their_bits():
    assert kernel_digest() == DIGEST


if __name__ == "__main__":
    print(kernel_digest())
