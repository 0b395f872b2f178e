"""Domain model: instances, allocations, valuations, and exact welfare.

Every quantity is an exact rational (``fractions.Fraction``); no floating
point is used anywhere so that incentive inequalities can be checked with
zero tolerance.  All types are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence, Union

if TYPE_CHECKING:
    from .relaxation import PiecewiseCurve
    from .rounding import AllocationDistribution

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_ENUMERATION_BOUND = 50_000

ROUNDING_CASES = ("a", "b", "c")


class InvariantError(RuntimeError):
    """An internal guarantee failed: the program is at fault, not its input."""


class EvaluationError(ValueError):
    """A valuation cannot value an allocation (e.g. two positions at once)."""


class EnumerationTooLargeError(ValueError):
    """The feasible set exceeds the configured enumeration bound."""

    def __init__(self, bound: int, estimate: int):
        super().__init__(
            f"feasible-set enumeration exceeds the bound of {bound} "
            f"allocations (estimated up to {estimate})")
        self.bound = bound
        self.estimate = estimate


@dataclass(frozen=True)
class Allocation:
    """One bundle of items per bidder; empty bundles are allowed."""

    bundles: tuple[frozenset[int], ...]

    @staticmethod
    def empty(n: int) -> "Allocation":
        return Allocation(tuple(frozenset() for _ in range(n)))

    def bitmasks(self) -> tuple[int, ...]:
        return tuple(sum(1 << j for j in b) for b in self.bundles)

    def sort_key(self) -> tuple[int, ...]:
        # Bidder 0 varies fastest: [empty, b0-wins, b1-wins, ...].
        return tuple(reversed(self.bitmasks()))

    def winners(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bundles) if b)


@dataclass(frozen=True)
class Family:
    """What sets one instance family apart; ``families`` registers each.

    ``valuation`` is the valuation type its bidders report: additive on
    their own bundle, single-minded, or single-peaked (one shared position
    on a line, so its variables carry no owner).  ``money`` says whether
    the mechanism charges payments.  The rest is the document codec:
    ``extra`` lists the further fields a document may give, each with its
    default (None: required); ``m`` is the item count a document must give
    (None: any); the caps bound what a document may ask for; ``load``
    builds the instance from n, m, the profile and the extra fields.
    """

    name: str
    valuation: type
    money: bool
    load: Callable[..., "Instance"] = field(compare=False, repr=False)
    extra: tuple[tuple[str, Any], ...] = ()
    m: int | None = None
    max_n: int | None = None
    max_m: int | None = None
    max_segments: int | None = None

    @property
    def shared(self) -> bool:
        """Every bidder consumes the same outcome."""
        return self.valuation is SinglePeakedValuation


@dataclass(frozen=True)
class FamilySpec:
    """Mechanism parameters of an instance family.

    ``alpha`` is the welfare guarantee factor: the relaxed objective at any
    feasible allocation's indicator is at least alpha times its welfare.
    ``decomposition_scale`` is the factor applied to the fractional optimum
    before it is decomposed into a lottery (it equals alpha for the scaled
    linear families and 1 for the curved one).  ``beta`` is the thinning
    target of rounding case b.  ``curve``, if given, is the unit curve of a
    separable concave objective: the relaxation scales it by each bid, and
    the case-(a) thinning keeps bidder i with probability curve(x_i)/x_i.
    The pipeline's approximation floor is ``alpha * beta``; its payment
    calibration is ``decomposition_scale * beta``.
    """

    alpha: Fraction
    decomposition_scale: Fraction
    rounding_case: str
    beta: Fraction = ONE
    curve: "PiecewiseCurve | None" = None

    def __post_init__(self):
        if self.rounding_case not in ROUNDING_CASES:
            raise ValueError(f"unknown rounding case {self.rounding_case!r}")
        if not (ZERO < self.alpha * self.beta <= ONE):
            raise ValueError("alpha*beta must lie in (0, 1]")
        if not (ZERO < self.decomposition_scale <= ONE):
            raise ValueError("decomposition scale must lie in (0, 1]")
        if self.rounding_case != "b" and self.beta != ONE:
            raise ValueError("beta is only meaningful for rounding case b")

    @property
    def calibration(self) -> Fraction:
        """Factor g with E[sum_i v_i(X')] = g * L(x*) for every profile."""
        return self.decomposition_scale * self.beta


@dataclass(frozen=True)
class Instance:
    """A market: its family, bidder/item counts, and the variable space.

    ``variable_index`` is a bijection between relaxation variables and
    (bidder, bundle) pairs; the owner is None for shared-outcome families
    where every bidder consumes the same point.  ``vertex_lotteries`` maps
    each polytope vertex's coordinates to its finished lottery, for the
    families whose constructor rounds every vertex anyway (empty for the
    rest).  ``derived`` keeps facts of the instance alone (its polytope and
    feasible set), each computed on first use and never changed after.
    Both are caches, so they take no part in equality or hashing.
    """

    family: Family
    n: int
    m: int
    variable_index: tuple[tuple[int | None, frozenset[int]], ...]
    spec: FamilySpec
    vertex_lotteries: Mapping[tuple[Fraction, ...],
                              AllocationDistribution] = field(
        default_factory=lambda: MappingProxyType({}), compare=False,
        repr=False)
    derived: dict[str, Any] = field(default_factory=dict, init=False,
                                    compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one bidder and one item")
        seen = set()
        for owner, bundle in self.variable_index:
            if owner is not None and not (0 <= owner < self.n):
                raise ValueError(f"variable owner {owner} out of range")
            if not bundle:
                raise ValueError("variable bundles must be nonempty")
            if not all(0 <= j < self.m for j in bundle):
                raise ValueError("bundle references an unknown item")
            key = (owner, bundle)
            if key in seen:
                raise ValueError(f"variable_index is not a bijection: {key}")
            seen.add(key)
        shared = self.family.shared
        if shared and any(o is not None for o, _ in self.variable_index):
            raise ValueError("shared-outcome variables carry no owner")
        if not shared and any(o is None for o, _ in self.variable_index):
            raise ValueError("auction variables must carry an owner")

    @property
    def num_vars(self) -> int:
        return len(self.variable_index)


# ---------------------------------------------------------------------------
# Valuations


@dataclass(frozen=True)
class AdditiveValuation:
    """Per-item values; the value of a bundle is the sum over its items."""

    item_values: tuple[Fraction, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.item_values):
            raise ValueError("additive item values must be nonnegative")


@dataclass(frozen=True)
class SingleMindedValuation:
    """Full value for any superset of the desired bundle, zero otherwise."""

    bundle: frozenset[int]
    value: Fraction

    def __post_init__(self):
        if not self.bundle:
            raise ValueError("a single-minded bundle must be nonempty")
        if self.value < 0:
            raise ValueError("single-minded value must be nonnegative")


@dataclass(frozen=True)
class SinglePeakedValuation:
    """Value of position p is the negative distance to the private peak."""

    peak: Fraction

    def __post_init__(self):
        if self.peak < 0:
            raise ValueError("peak positions must be nonnegative")


Valuation = Union[AdditiveValuation, SingleMindedValuation,
                  SinglePeakedValuation]


@dataclass(frozen=True)
class ValuationProfile:
    """One valuation per bidder."""

    valuations: tuple[Valuation, ...]

    @property
    def n(self) -> int:
        return len(self.valuations)


def value_of(profile: ValuationProfile, bidder: int, alloc: Allocation) -> Fraction:
    """Exact value of ``bidder`` for its bundle under ``alloc``."""
    if not (0 <= bidder < profile.n):
        raise ValueError(f"bidder index {bidder} out of range")
    bundle = alloc.bundles[bidder]
    v = profile.valuations[bidder]
    if isinstance(v, AdditiveValuation):
        return sum((v.item_values[j] for j in bundle), ZERO)
    if isinstance(v, SingleMindedValuation):
        return v.value if bundle >= v.bundle else ZERO
    if isinstance(v, SinglePeakedValuation):
        if not bundle:
            return ZERO
        if len(bundle) != 1:
            raise EvaluationError("a single-peaked outcome is one position")
        (p,) = bundle
        return -abs(Fraction(p) - v.peak)
    raise TypeError(f"unknown valuation type {type(v).__name__}")


def social_welfare(profile: ValuationProfile, alloc: Allocation) -> Fraction:
    """f(x) = sum of all bidders' values, exactly."""
    return sum((value_of(profile, i, alloc) for i in range(profile.n)), ZERO)


def fractional_value(profile: ValuationProfile, bidder: int,
                     instance: Instance, coords: Sequence[Fraction]) -> Fraction:
    """Linear extension of ``bidder``'s value to a fractional point."""
    total = ZERO
    for x, (owner, bundle) in zip(coords, instance.variable_index):
        if owner is None or owner == bidder:
            probe = Allocation(tuple(
                bundle if i == bidder else frozenset()
                for i in range(instance.n)))
            total += x * value_of(profile, bidder, probe)
    return total


def indicator(instance: Instance, alloc: Allocation) -> tuple[Fraction, ...]:
    """Embedding of an allocation into the relaxation's variable space."""
    coords = []
    for owner, bundle in instance.variable_index:
        if owner is None:
            active = all(b == bundle for b in alloc.bundles)
        else:
            active = alloc.bundles[owner] == bundle
        coords.append(ONE if active else ZERO)
    return tuple(coords)


def enumerate_feasible(instance: Instance,
                       bound: int = DEFAULT_ENUMERATION_BOUND) -> list[Allocation]:
    """All feasible allocations, duplicate-free, in deterministic order.

    Auction families: every subset of variables with no shared bidder and
    pairwise-disjoint bundles (each winner receives exactly the bundle of
    its variable; the empty allocation is always included).  Shared-outcome
    families: the empty allocation plus one allocation per position.  The
    set is enumerated once per instance; every call checks ``bound``
    against it and returns a fresh list.
    """
    found = instance.derived.get("feasible")
    if found is None:
        found = instance.derived["feasible"] = tuple(
            _feasible(instance, bound))
    elif len(found) > bound:
        raise EnumerationTooLargeError(bound, len(found))
    return list(found)


def _feasible(instance: Instance, bound: int) -> list[Allocation]:
    if instance.family.shared:
        if instance.m + 1 > bound:
            raise EnumerationTooLargeError(bound, instance.m + 1)
        allocs = [Allocation.empty(instance.n)]
        for _, bundle in instance.variable_index:
            allocs.append(Allocation(tuple(bundle for _ in range(instance.n))))
        allocs.sort(key=Allocation.sort_key)
        return allocs

    variables = instance.variable_index
    found: list[Allocation] = []

    def extend(idx: int, owners: frozenset[int], items: frozenset[int],
               chosen: tuple[int, ...]):
        if idx == len(variables):
            bundles = [frozenset()] * instance.n
            for v in chosen:
                owner, bundle = variables[v]
                bundles[owner] = bundle
            found.append(Allocation(tuple(bundles)))
            if len(found) > bound:
                raise EnumerationTooLargeError(bound, 2 ** len(variables))
            return
        extend(idx + 1, owners, items, chosen)
        owner, bundle = variables[idx]
        if owner not in owners and not (bundle & items):
            extend(idx + 1, owners | {owner}, items | bundle, chosen + (idx,))

    extend(0, frozenset(), frozenset(), ())
    found.sort(key=Allocation.sort_key)
    return found


def validate_profile(instance: Instance, profile: ValuationProfile) -> None:
    """Raise ValueError unless ``profile`` matches the instance family."""
    if profile.n != instance.n:
        raise ValueError(f"profile has {profile.n} valuations, "
                         f"instance has {instance.n} bidders")
    kind = instance.family.valuation
    for i, v in enumerate(profile.valuations):
        if not isinstance(v, kind):
            raise ValueError(f"bidder {i}: family {instance.family.name!r} "
                             f"reads {kind.__name__}s")
        if kind is AdditiveValuation and len(v.item_values) != instance.m:
            raise ValueError(f"bidder {i}: expected {instance.m} item values")
        if (kind is SingleMindedValuation
                and v.bundle != instance.variable_index[i][1]):
            raise ValueError(f"bidder {i}: reported bundle does not match "
                             "the instance's desired bundle")
        if kind is SinglePeakedValuation and (
                v.peak.denominator != 1 or not (0 <= v.peak < instance.m)):
            raise ValueError(f"bidder {i}: peak must be one of the "
                             f"{instance.m} positions")
