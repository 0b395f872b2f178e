"""Concrete instance families wiring the pipeline cases to demos.

Each constructor declares the family's guarantee factor, decomposition
scale, rounding case and keep-probability formula, then audits the
guarantees it relies on before handing the instance out: that the polytope
contains every feasible allocation's indicator, the alpha contract on probe
profiles, decomposability at every polytope vertex for the scaled families,
and the exact thinning calibration for the curved family.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Iterable, Sequence

from .lp import FractionalPoint, contains, enumerate_vertices
from .mechanism import _round_point
from .model import (AdditiveValuation, FamilySpec, Instance, InvariantError,
                    SingleMindedValuation, SinglePeakedValuation,
                    ValuationProfile, ZERO, ONE, enumerate_feasible,
                    indicator)
from .relaxation import (PiecewiseCurve, audit_alpha, build_polytope,
                         build_relaxation)
from .rounding import (AllocationDistribution, DecompositionInfeasibleError,
                       adjust, convex_decompose, exact_distribution,
                       expected_value_per_bidder)

DEFAULT_SINGLE_MINDED_ALPHA = Fraction(1, 2)
DEFAULT_CURVE_SEGMENTS = 16
DEFAULT_POSITIONS = 8

#: Probe coordinates for the construction-time calibration audit.
CALIBRATION_PROBE_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2),
                          Fraction(3, 4), ONE)


class FamilyConstructionError(ValueError):
    """A family audit failed at construction time."""


class InputError(ValueError):
    """Malformed constructor arguments."""


def _ones_keep(instance: Instance,
               coords: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(ONE for _ in range(instance.n))


def _constant_keep(beta: Fraction):
    def keep(instance: Instance,
             coords: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(beta for _ in range(instance.n))
    return keep


def _curve_ratio_keep(instance: Instance,
                      coords: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """keep_i = curve(x_i) / x_i, the exact case-(a) deflation to L."""
    if instance.spec.curve is None:
        raise InvariantError("the curve-ratio keep formula needs a curve")
    unit = PiecewiseCurve(instance.spec.curve)
    probs = [ONE] * instance.n
    for x, (owner, _) in zip(coords, instance.variable_index):
        if owner is None:
            raise InvariantError("the curve-ratio keep formula needs an "
                                 "owner for every variable")
        probs[owner] = unit.value_at(x) / x if x > 0 else ONE
    return tuple(probs)


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
                f"alpha audit failed for family {instance.family!r}: "
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
    spec = instance.spec
    probes = [FractionalPoint(coords) for coords in
              product(CALIBRATION_PROBE_GRID, repeat=instance.num_vars)]
    target = spec.calibration
    for probe in probes:
        if not contains(poly, probe):
            continue
        dist = exact_distribution(
            convex_decompose(probe, spec.decomposition_scale, instance))
        keep = (spec.keep_prob(instance, probe.coords) if spec.keep_prob
                else tuple(ONE for _ in range(instance.n)))
        thinned = adjust(dist, spec.rounding_case, keep)
        for profile in _probe_profiles(instance):
            objective, _ = build_relaxation(instance, profile)
            expected = sum(expected_value_per_bidder(thinned, profile), ZERO)
            if spec.rounding_case == "a":
                want = objective.evaluate(probe.coords)
            else:
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
    spec = FamilySpec(tag="single-item", alpha=ONE, decomposition_scale=ONE,
                      rounding_case="c")
    instance = Instance("single-item", n, 1, variables, spec)
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
    spec = FamilySpec(tag="single-minded-ca", alpha=alpha,
                      decomposition_scale=alpha, rounding_case="c")
    instance = Instance("single-minded-ca", len(bundles), m, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    lotteries = _audit_decomposability(instance)
    audited = replace(instance, vertex_lotteries=MappingProxyType(lotteries))
    audited.derived.update(instance.derived)  # the audits' polytope and set
    return audited


def with_desires(instance: Instance,
                 desires: Sequence[Iterable[int]]) -> Instance:
    """Same family parameters, different reported packages."""
    if instance.family != "single-minded-ca":
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
    spec = FamilySpec(tag="gap-toy", alpha=curve.value_at(ONE),
                      decomposition_scale=ONE, rounding_case="a",
                      keep_prob_name="curve-ratio",
                      keep_prob=_curve_ratio_keep, curve=curve.points)
    instance = Instance("gap-toy", bidders, machines, variables, spec)
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
    spec = FamilySpec(tag="case-b", alpha=ONE, decomposition_scale=ONE,
                      rounding_case="b", beta=beta,
                      keep_prob_name=f"uniform-{beta}",
                      keep_prob=_constant_keep(beta))
    instance = Instance("case-b", n, 1, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    _audit_calibration(instance)
    return instance


def make_no_money(n: int, kind: str,
                  positions: int = DEFAULT_POSITIONS) -> Instance:
    """Without-money families: uniform lottery or median of peaks."""
    if n < 1:
        raise InputError("need at least one bidder")
    if kind == "lottery":
        variables = tuple((i, frozenset({0})) for i in range(n))
        spec = FamilySpec(tag="no-money-lottery", alpha=ONE,
                          decomposition_scale=ONE, rounding_case="c")
        return Instance("no-money-lottery", n, 1, variables, spec)
    if kind == "single_peaked":
        if positions < 1:
            raise InputError("need at least one position")
        variables = tuple((None, frozenset({p})) for p in range(positions))
        spec = FamilySpec(tag="single-peaked", alpha=ONE,
                          decomposition_scale=ONE, rounding_case="c")
        return Instance("single-peaked", n, positions, variables, spec)
    raise InputError(f"unknown without-money kind {kind!r}")


def find_max(values: Sequence[Fraction]) -> tuple[int, Fraction]:
    """Linear scan for the maximum; lowest index wins ties."""
    if not values:
        raise InputError("cannot take the maximum of an empty list")
    best_idx = 0
    best = values[0]
    for i in range(1, len(values)):
        if best < values[i]:
            best = values[i]
            best_idx = i
    return best_idx, best


def profile_for(instance: Instance,
                values: Sequence[Fraction]) -> ValuationProfile:
    """Family-appropriate profile from one scalar per bidder.

    Scalars are bids for auction families and peak positions for the
    single-peaked family.
    """
    if len(values) != instance.n:
        raise InputError(f"expected {instance.n} scalars")
    vals = []
    for i, v in enumerate(values):
        v = Fraction(v)
        if instance.family in ("single-item", "case-b", "no-money-lottery"):
            vals.append(AdditiveValuation((v,)))
        elif instance.family == "gap-toy":
            _, bundle = instance.variable_index[i]
            (machine,) = bundle
            vals.append(AdditiveValuation(tuple(
                v if j == machine else ZERO for j in range(instance.m))))
        elif instance.family == "single-minded-ca":
            _, bundle = instance.variable_index[i]
            vals.append(SingleMindedValuation(bundle, v))
        elif instance.family == "single-peaked":
            vals.append(SinglePeakedValuation(v))
        else:
            raise InputError(f"no scalar profile recipe for {instance.family!r}")
    return ValuationProfile(tuple(vals))
