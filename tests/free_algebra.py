"""The concatenation product of `hallq.uminus.FreeElement`s, which only the
tests use: they check the derivations and the evaluation against it."""

from hallq.laurent import LaurentPoly
from hallq.uminus import FreeElement, Word


def multiply(x: FreeElement, y: FreeElement) -> FreeElement:
    """Bilinear concatenation product."""
    if x.quiver != y.quiver:
        raise ValueError("elements over different quivers")
    out: dict[Word, LaurentPoly] = {}
    for w1, c1 in x.terms:
        for w2, c2 in y.terms:
            w = w1 + w2
            out[w] = out.get(w, LaurentPoly.zero()) + c1 * c2
    return FreeElement.make(x.quiver, out)
