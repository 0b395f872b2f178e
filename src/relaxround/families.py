"""Concrete instance families wiring the pipeline cases to demos.

Each family is one ``Family`` record, registered in ``FAMILIES``; the rest
of the package reads the record and the instance, never the family's name.
Each constructor declares the family's guarantee factor, decomposition
scale, rounding case and curve, then audits the guarantees it relies on
before handing the instance out: that the polytope contains every feasible
allocation's indicator, the alpha contract on probe profiles,
decomposability at every polytope vertex for the scaled families, and the
exact thinning calibration for the thinned families.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Iterable, Sequence

from .lp import FractionalPoint, contains, enumerate_vertices
from .mechanism import _round_point
from .model import (AdditiveValuation, Family, FamilySpec, Instance,
                    SingleMindedValuation, SinglePeakedValuation,
                    ValuationProfile, ZERO, ONE, enumerate_feasible,
                    indicator)
from .relaxation import (PiecewiseCurve, audit_alpha, build_polytope,
                         build_relaxation)
from .rounding import (AllocationDistribution, DecompositionInfeasibleError,
                       expected_value_per_bidder)

DEFAULT_SINGLE_MINDED_ALPHA = Fraction(1, 2)
DEFAULT_CURVE_SEGMENTS = 16
DEFAULT_POSITIONS = 8

#: Probe coordinates for the construction-time calibration audit.
CALIBRATION_PROBE_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2),
                          Fraction(3, 4), ONE)

# Document caps.  Construction audits grow faster than linearly in n;
# measured with Python 3.11 on a 2-vCPU VM: single-item 0.59 s at n=32
# (1.09 s at n=40), case-b 0.68 s at n=5 (3.8 s at n=6, since its
# calibration audit probes 5**n grid points).  The lottery has no audit;
# its cap matches single-item, where `run_without_money` takes 0.01 s.
# Single-minded auctions have one variable per bidder, and their
# decomposability audit enumerates vertices in at most 8 variables.
# gap-toy builds one polytope row per machine for each of its 5**n
# calibration probes, and single-peaked one variable per position: gap-toy
# with 3 bidders loads in 1.5-1.7 s at 64 machines and 32 segments together
# (2.4-3.4 s at 64 and 64), single-peaked in 0.02 s and 21 MiB at m=10000
# (0.84 s and 101 MiB at m=200000).  The loads resolve each constructor
# when called, so a wrapper installed on the module name sees them.
SINGLE_ITEM = Family(
    "single-item", AdditiveValuation, money=True, m=1, max_n=32,
    load=lambda n, m, profile: make_single_item(n))
CASE_B = Family(
    "case-b", AdditiveValuation, money=True, m=1, max_n=5,
    extra=(("beta", None),),
    load=lambda n, m, profile, beta: make_case_b_family(n, beta))
SINGLE_MINDED_CA = Family(
    "single-minded-ca", SingleMindedValuation, money=True, max_n=8,
    extra=(("alpha", DEFAULT_SINGLE_MINDED_ALPHA),),
    load=lambda n, m, profile, alpha: make_single_minded_ca(
        m, [v.bundle for v in profile.valuations], alpha))
GAP_TOY = Family(
    "gap-toy", AdditiveValuation, money=True, max_m=64, max_segments=32,
    extra=(("segments", DEFAULT_CURVE_SEGMENTS),),
    load=lambda n, m, profile, segments: make_gap_toy(n, m, segments))
NO_MONEY_LOTTERY = Family(
    "no-money-lottery", AdditiveValuation, money=False, m=1, max_n=32,
    load=lambda n, m, profile: make_no_money(n, "lottery"))
SINGLE_PEAKED = Family(
    "single-peaked", SinglePeakedValuation, money=False, max_m=10_000,
    load=lambda n, m, profile: make_no_money(n, "single_peaked",
                                             positions=m))

FAMILIES = {family.name: family for family in (
    SINGLE_ITEM, CASE_B, SINGLE_MINDED_CA, GAP_TOY, NO_MONEY_LOTTERY,
    SINGLE_PEAKED)}


class FamilyConstructionError(ValueError):
    """A family audit failed at construction time."""


class InputError(ValueError):
    """Malformed constructor arguments."""


def unit_gap_curve(segments: int = DEFAULT_CURVE_SEGMENTS) -> PiecewiseCurve:
    """Secant piecewise-linear form of t(2-t)/2 on [0, 1].

    Concave, increasing, below the diagonal, so curve(x)/x is always a
    probability; breakpoints coincide with the smooth curve exactly.
    """
    if segments < 1:
        raise InputError("need at least one curve segment")
    points = []
    for k in range(segments + 1):
        t = Fraction(k, segments)
        points.append((t, t * (2 - t) / 2))
    return PiecewiseCurve(tuple(points))


def _probe_profiles(instance: Instance) -> list[ValuationProfile]:
    """Deterministic additive probes: unit vectors, all-ones, a ramp."""
    scalars = []
    for i in range(instance.n):
        scalars.append(tuple(ONE if j == i else ZERO
                             for j in range(instance.n)))
    scalars.append(tuple(ONE for _ in range(instance.n)))
    scalars.append(tuple(Fraction(i + 1) for i in range(instance.n)))
    return [profile_for(instance, values) for values in scalars]


def _audit_containment(instance: Instance) -> None:
    """The polytope must contain every feasible allocation's indicator.

    This depends on the instance alone, so it is proved once here, not for
    every profile's relaxation.
    """
    poly = build_polytope(instance)
    for alloc in enumerate_feasible(instance):
        if not contains(poly, FractionalPoint(indicator(instance, alloc))):
            raise FamilyConstructionError(
                "polytope does not contain a feasible allocation's "
                f"indicator: {alloc.bitmasks()}")


def _audit_alpha_on_probes(instance: Instance) -> None:
    for profile in _probe_profiles(instance):
        objective, _ = build_relaxation(instance, profile)
        audit = audit_alpha(objective, instance, profile)
        if not audit.passed:
            raise FamilyConstructionError(
                f"alpha audit failed for family {instance.family.name!r}: "
                f"counterexample {audit.counterexample}")


def _audit_decomposability(instance: Instance
                           ) -> dict[tuple[Fraction, ...],
                                     AllocationDistribution]:
    """Scaled decomposition must exist at every vertex of the polytope.

    Vertices suffice: the decomposable set is convex, so covering all
    vertices covers the whole polytope.  Returns each vertex's finished
    lottery (decomposed and thinned), keyed by its coordinates: a linear
    relaxation's simplex optimum is a vertex, so these are the only
    lotteries ``run`` can play.
    """
    poly = build_polytope(instance)
    scale = instance.spec.decomposition_scale
    lotteries = {}
    for vertex in enumerate_vertices(poly):
        try:
            lotteries[vertex.coords] = _round_point(instance, vertex)
        except DecompositionInfeasibleError as exc:
            raise FamilyConstructionError(
                f"decomposition of vertex {vertex.coords} at scale {scale} "
                f"is infeasible (residual {exc.residual}); declare a smaller "
                "alpha") from exc
    return lotteries


def _audit_calibration(instance: Instance) -> None:
    """Thinned expectations must hit the relaxed objective exactly.

    Probes every point with coordinates in the probe grid that lies in the
    polytope, using per-bidder unit profiles; matching each bidder's
    coefficient makes the identity hold for every additive profile.
    """
    poly = build_polytope(instance)
    probes = [FractionalPoint(coords) for coords in
              product(CALIBRATION_PROBE_GRID, repeat=instance.num_vars)]
    target = instance.spec.calibration
    for probe in probes:
        if not contains(poly, probe):
            continue
        thinned = _round_point(instance, probe)
        for profile in _probe_profiles(instance):
            objective, _ = build_relaxation(instance, profile)
            expected = sum(expected_value_per_bidder(thinned, profile), ZERO)
            want = target * objective.evaluate(probe.coords)
            if expected != want:
                raise FamilyConstructionError(
                    f"calibration audit failed at {probe.coords}: "
                    f"E[f(X')] = {expected}, expected {want} "
                    f"(gap {expected - want})")


def make_single_item(n: int) -> Instance:
    """One item, scalar bids, integral LP; the pipeline is second price."""
    if n < 1:
        raise InputError("need at least one bidder")
    variables = tuple((i, frozenset({0})) for i in range(n))
    spec = FamilySpec(alpha=ONE, decomposition_scale=ONE, rounding_case="c")
    instance = Instance(SINGLE_ITEM, n, 1, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    return instance


def make_single_minded_ca(m: int, desires: Sequence[Iterable[int]],
                          alpha: Fraction = DEFAULT_SINGLE_MINDED_ALPHA
                          ) -> Instance:
    """Single-minded combinatorial auction with scaled-down decomposition.

    ``desires`` lists each bidder's package (items by index).  The declared
    alpha doubles as the decomposition scale; feasibility of the scaled
    decomposition is audited at every polytope vertex, so a successful
    construction covers the full polytope.
    """
    if m < 1 or m > 4:
        raise InputError("desk-scale single-minded auctions use 1..4 items")
    bundles = [frozenset(int(j) for j in d) for d in desires]
    if not bundles:
        raise InputError("need at least one bidder")
    for b in bundles:
        if not b:
            raise InputError("desired bundles must be nonempty")
        if not all(0 <= j < m for j in b):
            raise InputError("desired bundle references an unknown item")
    variables = tuple((i, b) for i, b in enumerate(bundles))
    spec = FamilySpec(alpha=alpha, decomposition_scale=alpha,
                      rounding_case="c")
    instance = Instance(SINGLE_MINDED_CA, len(bundles), m, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    lotteries = _audit_decomposability(instance)
    audited = replace(instance, vertex_lotteries=MappingProxyType(lotteries))
    audited.derived.update(instance.derived)  # the audits' polytope and set
    return audited


def with_desires(instance: Instance,
                 desires: Sequence[Iterable[int]]) -> Instance:
    """Same family parameters, different reported packages."""
    if instance.family is not SINGLE_MINDED_CA:
        raise InputError("only single-minded instances rebind desires")
    return make_single_minded_ca(instance.m, desires, instance.spec.alpha)


def make_gap_toy(bidders: int, machines: int,
                 segments: int = DEFAULT_CURVE_SEGMENTS) -> Instance:
    """Toy assignment market with a concave objective and case-a rounding.

    Bidder i is tied to machine i mod ``machines`` (unit capacity); the
    relaxed objective applies a concave per-variable curve to each bid, the
    first rounding overshoots it, and the thinning formula
    keep_i = curve(x_i)/x_i lands exactly on L.  The calibration is audited
    exactly on the probe grid at construction.
    """
    if bidders < 1 or machines < 1:
        raise InputError("need at least one bidder and one machine")
    if bidders > 4:
        raise InputError("desk-scale audits cap the toy at 4 bidders")
    curve = unit_gap_curve(segments)
    variables = tuple((i, frozenset({i % machines})) for i in range(bidders))
    spec = FamilySpec(alpha=curve.value_at(ONE), decomposition_scale=ONE,
                      rounding_case="a", curve=curve)
    instance = Instance(GAP_TOY, bidders, machines, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    _audit_calibration(instance)
    return instance


def make_case_b_family(n: int, beta: Fraction) -> Instance:
    """Single-item base thinned uniformly to beta of the relaxed value."""
    if n < 1:
        raise InputError("need at least one bidder")
    if not (ZERO < beta <= ONE):
        raise InputError("beta must lie in (0, 1]")
    variables = tuple((i, frozenset({0})) for i in range(n))
    spec = FamilySpec(alpha=ONE, decomposition_scale=ONE, rounding_case="b",
                      beta=beta)
    instance = Instance(CASE_B, n, 1, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    _audit_calibration(instance)
    return instance


def make_no_money(n: int, kind: str,
                  positions: int = DEFAULT_POSITIONS) -> Instance:
    """Without-money families: uniform lottery or median of peaks."""
    if n < 1:
        raise InputError("need at least one bidder")
    spec = FamilySpec(alpha=ONE, decomposition_scale=ONE, rounding_case="c")
    if kind == "lottery":
        variables = tuple((i, frozenset({0})) for i in range(n))
        return Instance(NO_MONEY_LOTTERY, n, 1, variables, spec)
    if kind == "single_peaked":
        if positions < 1:
            raise InputError("need at least one position")
        variables = tuple((None, frozenset({p})) for p in range(positions))
        return Instance(SINGLE_PEAKED, n, positions, variables, spec)
    raise InputError(f"unknown without-money kind {kind!r}")


def profile_for(instance: Instance,
                values: Sequence[Fraction]) -> ValuationProfile:
    """Profile of the family's valuation kind from one scalar per bidder.

    Scalars are peak positions for single-peaked bidders, and otherwise
    bids on the bidder's own bundle.
    """
    if len(values) != instance.n:
        raise InputError(f"expected {instance.n} scalars")
    kind = instance.family.valuation
    vals = []
    for i, v in enumerate(values):
        v = Fraction(v)
        if kind is SinglePeakedValuation:
            vals.append(SinglePeakedValuation(v))
            continue
        _, bundle = instance.variable_index[i]
        if kind is SingleMindedValuation:
            vals.append(SingleMindedValuation(bundle, v))
        else:
            vals.append(AdditiveValuation(tuple(
                v if j in bundle else ZERO for j in range(instance.m))))
    return ValuationProfile(tuple(vals))
