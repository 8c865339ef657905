"""Scalar geometry of the upper half-plane: points, distances, the
Busemann cocycle at infinity, the flow-time alignment and the Moebius
action.  The oracle's lemma sweep works on coordinate arrays; these
one-point formulas are the references its tests check it against.  Not a
test module; the tests import it."""

import math
from dataclasses import dataclass

from cuspgrowth.errors import DomainError
from cuspgrowth.h2_oracle import MoebiusElement


@dataclass(frozen=True)
class HPoint:
    """Upper half-plane point."""
    re: float
    im: float

    def __post_init__(self) -> None:
        if not self.im > 0:
            raise DomainError("point must lie in the open upper half-plane")


def apply(g: MoebiusElement, z: HPoint) -> HPoint:
    """The image g z."""
    w = complex(z.re, z.im)
    img = (g.a * w + g.b) / (g.c * w + g.d)
    return HPoint(img.real, img.imag)


def h2_distance(z: HPoint, w: HPoint) -> float:
    gap = (z.re - w.re) ** 2 + (z.im - w.im) ** 2
    return math.acosh(1.0 + gap / (2.0 * z.im * w.im))


def busemann_inf(x: HPoint, y: HPoint) -> float:
    """Busemann cocycle centered at the cusp at infinity; positive when
    y sits deeper in the cusp than x."""
    return math.log(y.im) - math.log(x.im)


def t_xi(x: HPoint, y: HPoint) -> float:
    """Minimal flow time until the shallower point, lifted to the deeper
    point's horosphere, comes within horocyclic distance 1 of it.

    On the level im = L the horocyclic metric is |re difference| / L, and
    the radial flow toward the cusp multiplies the level by e^t, so the
    alignment time is ln |re x - re y| - ln max(im x, im y), clamped at 0.
    """
    gap = abs(x.re - y.re)
    level = max(x.im, y.im)
    if gap <= level:
        return 0.0
    return math.log(gap) - math.log(level)
