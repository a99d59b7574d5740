"""Exact evaluation of the closed-form bounds: the cubic upper bound
ceil(k^3 r^3 / 12), its sufficiency inequality, the local-lemma inequality
for avoiding monochromatic Berge cliques on a linear design host, and the
exponential asymptote (sqrt(2)/e) t 2^(t/2).

All inequality decisions use integers and fractions only.  Euler's number
enters the local-lemma check through E_UPPER, a fixed rational that
over-approximates e; over-approximating is conservative for certifying the
strict '< 1' direction, so tightening E_UPPER can only keep a True verdict
True.
"""

from collections import namedtuple
from fractions import Fraction
from math import comb, e, inf, sqrt

# 2.7182818284590453 as an exact fraction; e = 2.71828182845904523536...
E_UPPER = Fraction(27182818284590453, 10 ** 16)

class NoValidNError(ValueError):
    """Raised when no vertex count satisfies the local-lemma inequality."""


class BoundReport(namedtuple("BoundReport",
                             "formula_id inputs value satisfied notes",
                             defaults=(None, ()))):
    """One evaluated formula: exact value, optional truth verdict for
    inequalities, and a human-readable derivation trail."""

    __slots__ = ()

    def render(self):
        lines = [f"formula: {self.formula_id}"]
        for key in sorted(self.inputs):
            lines.append(f"  {key} = {self.inputs[key]}")
        val = self.value
        if isinstance(val, Fraction):
            lines.append(f"  value = {val.numerator}/{val.denominator}")
            lines.append(f"  value~ = {float(val):.12g}")
        else:
            lines.append(f"  value = {val}")
            if isinstance(val, float):
                lines.append(f"  value~ = {val:.12g}")
        if self.satisfied is not None:
            lines.append(f"  satisfied = {self.satisfied}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def sufficiency_inequality_holds(k, s):
    """Exact check of k^3 s^3 / 12 >= 3 (C(k,3)+1) (C(s,3)+1), the step that
    drives the union bound below 1 at the cubic vertex count."""
    if k < 2 or s < 2:
        raise ValueError("requires k >= 2 and s >= 2")
    lhs = Fraction(k ** 3 * s ** 3, 12)
    rhs = 3 * (comb(k, 3) + 1) * (comb(s, 3) + 1)
    return BoundReport(
        formula_id="cubic-sufficiency",
        inputs={"k": k, "s": s},
        value=lhs - rhs,
        satisfied=lhs >= rhs,
        notes=(f"lhs = {lhs.numerator}/{lhs.denominator}, rhs = {rhs}",),
    )


def thm1_upper_bound(k, r):
    """ceil(k^3 r^3 / 12) in exact integer arithmetic, with the sufficiency
    inequality at s = r recorded alongside."""
    if k < 2 or r < 2:
        raise ValueError("requires k >= 2 and r >= 2")
    num = k ** 3 * r ** 3
    value = -(-num // 12)
    suff = sufficiency_inequality_holds(k, r)
    return BoundReport(
        formula_id="cubic-upper-bound",
        inputs={"k": k, "r": r},
        value=value,
        satisfied=None,
        notes=(f"ceil({num}/12)",
               f"sufficiency at s=r: {suff.satisfied}"),
    )


def lll_inequality_holds(n, t, k):
    """Exact check of e * C(t,2) * C(k,2) * C(n-2,t-2) * 2^(1-C(t,2)) < 1,
    with e replaced by the rational over-approximation E_UPPER."""
    if t < 3 or n < t or k < 2:
        raise ValueError("requires n >= t >= 3 and k >= 2")
    ct2 = comb(t, 2)
    lhs = E_UPPER * comb(t, 2) * comb(k, 2) * comb(n - 2, t - 2) * 2
    value = lhs / 2 ** ct2
    return BoundReport(
        formula_id="lll-inequality",
        inputs={"n": n, "t": t, "k": k},
        value=value,
        satisfied=value < 1,
        notes=(f"e upper bound {E_UPPER.numerator}/{E_UPPER.denominator}",),
    )


def lll_threshold_n(t, k, admissible=False):
    """Largest n at which the local-lemma inequality still holds; with
    `admissible` the largest such n with n = k (mod k(k-1)), the necessary
    congruence for a resolvable design host to exist.

    The inequality is downward-closed in n (the dependency count only
    grows), so exponential search up followed by binary search is exact.
    """
    if t < 3 or k < 2:
        raise ValueError("requires t >= 3 and k >= 2")
    holds = lambda n: lll_inequality_holds(n, t, k).satisfied
    if not holds(t):
        raise NoValidNError(f"inequality already fails at n = t = {t}")
    lo, hi = t, 2 * t
    while holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    value = lo
    notes = [f"largest n with the inequality: {lo}"]
    if admissible:
        modulus = k * (k - 1)
        value = lo - ((lo - k) % modulus)
        notes.append(f"largest admissible n = k (mod {modulus}): {value}")
        if value < t:
            raise NoValidNError(
                f"no admissible n in [t, {lo}] for t={t}, k={k}")
    return BoundReport(
        formula_id="lll-threshold",
        inputs={"t": t, "k": k, "admissible": admissible},
        value=value,
        satisfied=True,
        notes=tuple(notes),
    )


def asymptotic_lower(t):
    """(sqrt(2)/e) * t * 2^(t/2) as a float, for display next to exact
    thresholds; never used in inequality decisions."""
    if t < 1:
        raise ValueError("requires t >= 1")
    try:
        value = (sqrt(2) / e) * t * 2 ** (t / 2)
    except OverflowError:
        value = inf
    if value == inf:
        raise ValueError(f"asymptote for t={t} exceeds the float range")
    return BoundReport(
        formula_id="exp-lower-asymptote",
        inputs={"t": t},
        value=value,
        satisfied=None,
        notes=("display-only float, 12 significant digits",),
    )
