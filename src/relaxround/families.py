"""Concrete instance families wiring the pipeline cases to demos.

Each family is one ``Family`` record, registered in ``FAMILIES``; the rest
of the package reads the record and the instance, never the family's name.
Each constructor declares the family's alpha, beta and curve (the
decomposition scale and the thinning follow from them), then audits the
guarantees it relies on before handing the instance out: that the polytope
contains every feasible allocation's indicator, the alpha contract on every
nonnegative profile (proved on the n unit profiles), and decomposability at
every polytope vertex for the scaled families.  Calibration depends on
the point played, so ``mechanism._round_point`` checks it on every lottery
it builds: each vertex table's at construction, every other one per run.

A single-minded instance's audits read its conflict structure alone (see
``conflict_structure``), so ``with_desires`` hands a rebind with the
source's structure the source's audited vertex lotteries, relabelled, and
audits afresh only when the structure differs.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .lp import FractionalPoint, contains, enumerate_vertices
from .mechanism import _round_point
from .model import (AdditiveValuation, Family, FamilySpec, Instance,
                    InvariantError, SingleMindedValuation,
                    SinglePeakedValuation, ValuationProfile, ZERO, ONE,
                    enumerate_feasible, indicator)
from .relaxation import (PiecewiseCurve, audit_alpha, build_polytope,
                         build_relaxation)
from .rounding import AllocationDistribution, DecompositionInfeasibleError

DEFAULT_SINGLE_MINDED_ALPHA = Fraction(1, 2)
DEFAULT_CURVE_SEGMENTS = 16
DEFAULT_POSITIONS = 8

# Document caps.  Construction audits grow faster than linearly in n;
# measured with Python 3.11 on a 2-vCPU VM: single-item 0.3-0.6 s at n=32
# (1.09 s at n=40).  case-b and gap-toy check their calibration on each
# lottery as it is built, not at load: case-b loads in 2-3 ms at n=5, and
# gap-toy with 4 bidders in 6-9 ms at 2 machines and 12-19 ms at 64
# machines and 32 segments together.  Their caps stay where the old
# 5**n-probe calibration audit put them.  The lottery has no audit;
# its cap matches single-item, where `run_without_money` takes 0.01 s.
# Single-minded auctions have one variable per bidder, and their
# decomposability audit enumerates vertices in at most 8 variables.
# single-peaked builds one variable per position: it loads in 0.02 s
# and 21 MiB at m=10000 (0.84 s and 101 MiB at m=200000).  A single-peaked
# feasible set holds an n-bundle allocation per position, so the family
# also caps n: verify-no-money at 32 bidders and 10000 positions takes
# 0.2-0.3 s and 27 MiB in a child process (244 MiB while each allocation
# was sorted by n m-bit masks).  The loads resolve each constructor when
# called, so a wrapper installed on the module name sees them.
SINGLE_ITEM = Family(
    "single-item", AdditiveValuation, money=True, m=1, max_n=32,
    load=lambda n, m, profile: make_single_item(n))
CASE_B = Family(
    "case-b", AdditiveValuation, money=True, m=1, max_n=5,
    extra=(("beta", None),),
    load=lambda n, m, profile, beta: make_case_b_family(n, beta))
SINGLE_MINDED_CA = Family(
    "single-minded-ca", SingleMindedValuation, money=True, max_n=8, max_m=4,
    extra=(("alpha", DEFAULT_SINGLE_MINDED_ALPHA),),
    load=lambda n, m, profile, alpha: make_single_minded_ca(
        m, [v.bundle for v in profile.valuations], alpha))
GAP_TOY = Family(
    "gap-toy", AdditiveValuation, money=True, max_n=4, max_m=64,
    max_segments=32, extra=(("segments", DEFAULT_CURVE_SEGMENTS),),
    load=lambda n, m, profile, segments: make_gap_toy(n, m, segments))
NO_MONEY_LOTTERY = Family(
    "no-money-lottery", AdditiveValuation, money=False, m=1, max_n=32,
    load=lambda n, m, profile: make_no_money(n, "lottery"))
SINGLE_PEAKED = Family(
    "single-peaked", SinglePeakedValuation, money=False, max_n=32,
    max_m=10_000,
    load=lambda n, m, profile: make_no_money(n, "single_peaked",
                                             positions=m))

FAMILIES = {family.name: family for family in (
    SINGLE_ITEM, CASE_B, SINGLE_MINDED_CA, GAP_TOY, NO_MONEY_LOTTERY,
    SINGLE_PEAKED)}


class FamilyConstructionError(ValueError):
    """A family audit failed at construction time."""


class InputError(ValueError):
    """Malformed constructor arguments."""


def unit_gap_curve(segments: int) -> PiecewiseCurve:
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
    """The n unit profiles: bidder i bids 1 on its bundle, the rest 0."""
    return [profile_for(instance, [ONE if j == i else ZERO
                                   for j in range(instance.n)])
            for i in range(instance.n)]


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
    """L(chi(s)) >= alpha f(s) for every allocation s and every nonnegative
    profile, and L(chi(s)) = f(s) for a linear L.

    Both sides are linear in the bids, for each s: L is the bids times
    unit values, and f(s) sums each bidder's bid on the bundle s gives it.
    A nonnegative profile is a nonnegative combination of the n unit
    profiles, so the contract on those proves it on all of them.
    """
    for profile in _probe_profiles(instance):
        objective, _ = build_relaxation(instance, profile)
        audit = audit_alpha(objective, instance, profile)
        if not audit.passed:
            raise FamilyConstructionError(
                f"alpha audit failed for family {instance.family.name!r}, "
                "so the contract fails on some nonnegative profile: "
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


def make_single_item(n: int) -> Instance:
    """One item, scalar bids, integral LP; the pipeline is second price."""
    if n < 1:
        raise InputError("need at least one bidder")
    variables = tuple((i, frozenset({0})) for i in range(n))
    spec = FamilySpec(alpha=ONE)
    instance = Instance(SINGLE_ITEM, n, 1, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    return instance


def _single_minded(m: int, desires: Sequence[Iterable[int]],
                   alpha: Fraction) -> Instance:
    """The single-minded instance of validated ``desires``, not audited."""
    if m < 1 or m > SINGLE_MINDED_CA.max_m:
        raise InputError("desk-scale single-minded auctions use "
                         f"1..{SINGLE_MINDED_CA.max_m} items")
    bundles = [frozenset(int(j) for j in d) for d in desires]
    if not bundles:
        raise InputError("need at least one bidder")
    for b in bundles:
        if not b:
            raise InputError("desired bundles must be nonempty")
        if not all(0 <= j < m for j in b):
            raise InputError("desired bundle references an unknown item")
    variables = tuple((i, b) for i, b in enumerate(bundles))
    spec = FamilySpec(alpha=alpha)
    return Instance(SINGLE_MINDED_CA, len(bundles), m, variables, spec)


def make_single_minded_ca(m: int, desires: Sequence[Iterable[int]],
                          alpha: Fraction = DEFAULT_SINGLE_MINDED_ALPHA
                          ) -> Instance:
    """Single-minded combinatorial auction with scaled-down decomposition.

    ``desires`` lists each bidder's package (items by index).  The declared
    alpha doubles as the decomposition scale; feasibility of the scaled
    decomposition is audited at every polytope vertex, so a successful
    construction covers the full polytope.
    """
    instance = _single_minded(m, desires, alpha)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    instance.derived["vertex_lotteries"] = MappingProxyType(
        _audit_decomposability(instance))
    return instance


def conflict_structure(bundles: Sequence[frozenset[int]],
                       alpha: Fraction) -> tuple:
    """n, alpha and the maximal item-row supports of single-minded
    ``bundles``: the bidders that want each item, any set contained in
    another dropped.

    Each support S is the row sum_{i in S} x_i <= 1, and x >= 0 implies a
    contained support's row and each bidder row, so the maximal supports
    fix the polytope as a point set, hence its sorted vertices.  Two
    bidders can win together iff no support holds both, so they fix the
    feasible winner sets too.  A winner's mask is nonzero and a loser's
    zero, so ``Allocation.sort_key`` orders allocations by their winners,
    whatever the masks: every phase-one input of the vertex audit is
    fixed.  Every construction audit is a function of this key.
    """
    supports = {frozenset(i for i, b in enumerate(bundles) if j in b)
                for j in frozenset().union(*bundles)}
    return len(bundles), alpha, frozenset(
        s for s in supports if not any(s < t for t in supports))


def _relabel(lotteries: Mapping[tuple[Fraction, ...], AllocationDistribution],
             target: Instance) -> Mapping[tuple[Fraction, ...],
                                          AllocationDistribution]:
    """``lotteries`` with each allocation replaced by the allocation of
    ``target`` that has its winners, keys and entry order kept."""
    by_winners = {a.winners(): a for a in enumerate_feasible(target)}
    relabelled = {}
    for coords, dist in lotteries.items():
        entries = []
        for alloc, p in dist.entries:
            found = by_winners.get(alloc.winners())
            if found is None:
                raise InvariantError(
                    f"winners {alloc.winners()} of a source lottery are not "
                    "feasible in the rebound instance; its conflict "
                    "structure differs")
            entries.append((found, p))
        relabelled[coords] = AllocationDistribution(tuple(entries))
    return MappingProxyType(relabelled)


def with_desires(instance: Instance,
                 desires: Sequence[Iterable[int]]) -> Instance:
    """Same family parameters, different reported packages.

    ``desires`` is validated as ``make_single_minded_ca`` validates it.
    Where the new packages have ``instance``'s conflict structure, every
    construction audit would read the same facts and pass, and each
    vertex lottery is ``instance``'s with its allocations relabelled by
    their winners (see ``conflict_structure``), so the rebound instance
    takes those and no audit runs again.  Otherwise, or if ``instance``
    carries no audited lotteries, it is constructed and audited in full.
    """
    if instance.family is not SINGLE_MINDED_CA:
        raise InputError("only single-minded instances rebind desires")
    alpha = instance.spec.alpha
    rebound = _single_minded(instance.m, desires, alpha)
    # An instance built without its audits has no lotteries to hand on.
    if not instance.vertex_lotteries or (
            conflict_structure([b for _, b in rebound.variable_index], alpha)
            != conflict_structure([b for _, b in instance.variable_index],
                                  alpha)):
        return make_single_minded_ca(instance.m, desires, alpha)
    rebound.derived["vertex_lotteries"] = _relabel(
        instance.vertex_lotteries, rebound)
    return rebound


def make_gap_toy(bidders: int, machines: int,
                 segments: int = DEFAULT_CURVE_SEGMENTS) -> Instance:
    """Toy assignment market with a concave objective and case-a rounding.

    Bidder i is tied to machine i mod ``machines`` (unit capacity); the
    relaxed objective applies a concave per-variable curve to each bid, the
    first rounding overshoots it, and the thinning formula
    keep_i = curve(x_i)/x_i lands exactly on L.  Each thinned lottery's
    marginals are checked against curve(x_i) when it is built.
    """
    if bidders < 1 or machines < 1:
        raise InputError("need at least one bidder and one machine")
    if bidders > GAP_TOY.max_n:
        raise InputError(f"the toy takes at most {GAP_TOY.max_n} bidders")
    curve = unit_gap_curve(segments)
    variables = tuple((i, frozenset({i % machines})) for i in range(bidders))
    spec = FamilySpec(alpha=curve.value_at(ONE), curve=curve)
    instance = Instance(GAP_TOY, bidders, machines, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    return instance


def make_case_b_family(n: int, beta: Fraction) -> Instance:
    """Single-item base thinned uniformly to beta of the relaxed value.

    Each thinned lottery's marginals are checked against beta * x_i when
    it is built.
    """
    if n < 1:
        raise InputError("need at least one bidder")
    variables = tuple((i, frozenset({0})) for i in range(n))
    spec = FamilySpec(alpha=ONE, beta=beta)
    instance = Instance(CASE_B, n, 1, variables, spec)
    _audit_containment(instance)
    _audit_alpha_on_probes(instance)
    return instance


def make_no_money(n: int, kind: str,
                  positions: int = DEFAULT_POSITIONS) -> Instance:
    """Without-money families: uniform lottery or median of peaks."""
    if n < 1:
        raise InputError("need at least one bidder")
    spec = FamilySpec(alpha=ONE)
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
