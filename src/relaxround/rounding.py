"""Oblivious rounding: convex decomposition, thinning cases, sampling.

The decomposition writes a scaled fractional point as an exact lottery over
feasible allocations; it never reads a valuation profile, and neither does
the thinning step.  One or two one-row blocks take a closed-form coupling,
any other polytope phase-one simplex.  The exact distribution is the one
lottery type; sampling is a convenience layer on top of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .lp import FractionalPoint, contains, phase_one
from .model import (Allocation, Instance, ValuationProfile, ZERO, ONE,
                    enumerate_feasible, indicator, social_welfare, value_of)
from .relaxation import build_polytope


class DecompositionInfeasibleError(ValueError):
    """No exact lottery matches the scaled point; the scale is too large."""

    def __init__(self, residual: Fraction):
        super().__init__("no convex decomposition exists; phase-one residual "
                         f"{residual} (the declared scale is too large for "
                         "this point)")
        self.residual = residual


@dataclass(frozen=True)
class AllocationDistribution:
    """Exact probability distribution over allocations.

    Entries are merged, strictly positive, sum to exactly 1 and are kept in
    the deterministic allocation order, so equal distributions compare
    bit-identically.
    """

    entries: tuple[tuple[Allocation, Fraction], ...]

    def __post_init__(self):
        if any(p <= 0 for _, p in self.entries):
            raise ValueError("probabilities must be positive")
        if sum((p for _, p in self.entries), ZERO) != ONE:
            raise ValueError("probabilities must sum to exactly 1")
        keys = [a.sort_key() for a, _ in self.entries]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("entries must be merged and sorted")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Allocation, Fraction]]
                   ) -> "AllocationDistribution":
        merged: dict[Allocation, Fraction] = {}
        for alloc, p in pairs:
            if p != 0:
                merged[alloc] = merged.get(alloc, ZERO) + p
        entries = tuple(sorted(((a, p) for a, p in merged.items() if p != 0),
                               key=lambda ap: ap[0].sort_key()))
        return AllocationDistribution(entries)

    def mass(self, alloc: Allocation) -> Fraction:
        for a, p in self.entries:
            if a == alloc:
                return p
        return ZERO

    def support(self) -> tuple[Allocation, ...]:
        return tuple(a for a, _ in self.entries)

    @property
    def support_size(self) -> int:
        return len(self.entries)


def convex_decompose(x: FractionalPoint, scale: Fraction,
                     instance: Instance) -> AllocationDistribution:
    """Exact lottery with sum(weight_j * chi(z_j)) = scale * x.

    ``_coupling`` builds it where it applies; elsewhere the weights solve
    an equality system over the enumerated feasible set via phase-one
    simplex, the empty allocation absorbing slack.  That set is sorted and
    duplicate-free, so the weights are the distribution's entries as they
    stand.  Output is deterministic; its support is at most num_vars + 1.
    """
    if not (ZERO < scale <= ONE):
        raise ValueError("scale must lie in (0, 1]")
    if x.dim != instance.num_vars:
        raise ValueError(f"point dimension {x.dim} does not match the "
                         f"instance's {instance.num_vars} variables")
    if instance.family.money and not contains(build_polytope(instance), x):
        raise ValueError("point lies outside the family polytope")
    if instance.family.money and _coupling(instance) is not None:
        return _coupled(x, scale, *instance.derived["coupling"])
    allocs = enumerate_feasible(instance)
    columns = [indicator(instance, a) for a in allocs]
    equalities = [(tuple(col[v] for col in columns), scale * x.coords[v])
                  for v in range(instance.num_vars)]
    equalities.append((tuple(ONE for _ in columns), ONE))
    weights, residual = phase_one(equalities, len(columns))
    if weights is None:
        raise DecompositionInfeasibleError(residual)
    return AllocationDistribution(tuple(
        (a, w) for a, w in zip(allocs, weights) if w > 0))


def _coupling(instance: Instance):
    """Where P has one or two blocks, each one row {x >= 0, sum x <= 1}:
    the outcome orders [none, block 0 ascending] and [block 1 descending,
    none] (or [none]), and each pair's allocation with its sort key; else
    None.  Once per instance.  One block's lottery is unique, so it is
    phase one's by proof; with two, phase one's equals the coupling by
    measurement only (``tests/test_forced_lotteries.py``)."""
    if "coupling" in instance.derived:
        return instance.derived["coupling"]
    poly = build_polytope(instance)
    blocks, coupling = poly._blocks, None  # type: ignore[attr-defined]
    if set(poly._one_row or ()) == {ONE} and len(blocks) <= 2:  # type: ignore
        first = (None, *blocks[0])
        second = (*reversed(blocks[1]), None) if blocks[1:] else (None,)
        won = {frozenset(v for v, c in enumerate(indicator(instance, a))
                         if c): a for a in enumerate_feasible(instance)}
        coupling = first, second, [[(a.sort_key(), a) for a in (
            won[frozenset({u, w} - {None})] for w in second)] for u in first]
    return instance.derived.setdefault("coupling", coupling)


def _coupled(x: FractionalPoint, scale: Fraction, first, second,
             cells) -> AllocationDistribution:
    """The orders' north-west-corner coupling, s = ``scale``: s * x_v on
    each variable's outcome and the rest on none."""
    top = [scale * x.coords[v] for v in first[1:]]
    side = [scale * x.coords[v] for v in second[:-1]]
    top, side = [ONE - sum(top), *top], [*side, ONE - sum(side)]
    entries, i, j = [], 0, 0
    while i < len(top) and j < len(side):
        w = min(top[i], side[j])
        if w:
            entries.append((*cells[i][j], w))
        top[i], side[j] = top[i] - w, side[j] - w
        i, j = i + (not top[i]), j + (not side[j])  # past used-up outcomes
    entries.sort(key=lambda e: e[0])
    return AllocationDistribution(tuple((alloc, w) for _, alloc, w in entries))


def adjust(dist: AllocationDistribution,
           keep_prob: Sequence[Fraction]) -> AllocationDistribution:
    """Second rounding r': independent per-bidder Bernoulli thinning.

    Each bidder's bundle is replaced by the empty bundle with probability
    1 - keep_prob[i]; the output distribution is computed exactly by
    expanding every keep/drop pattern.  With every probability 1 (case c)
    it returns ``dist`` itself.  The keep probabilities must be a function
    of the fractional point only, never of valuations.
    """
    if any(not (ZERO <= q <= ONE) for q in keep_prob):
        raise ValueError("keep probabilities must lie in [0, 1]")
    if all(q == ONE for q in keep_prob):
        return dist
    pairs: list[tuple[Allocation, Fraction]] = []
    for alloc, p in dist.entries:
        active = [i for i, b in enumerate(alloc.bundles) if b]
        patterns: list[tuple[Fraction, tuple[bool, ...]]] = [(p, ())]
        for i in active:
            q = keep_prob[i]
            nxt = []
            for w, kept in patterns:
                if q > 0:
                    nxt.append((w * q, kept + (True,)))
                if q < 1:
                    nxt.append((w * (ONE - q), kept + (False,)))
            patterns = nxt
        for w, kept in patterns:
            bundles = list(alloc.bundles)
            for i, keep in zip(active, kept):
                if not keep:
                    bundles[i] = frozenset()
            pairs.append((Allocation(tuple(bundles)), w))
    return AllocationDistribution.from_pairs(pairs)


def expected_welfare(dist: AllocationDistribution,
                     profile: ValuationProfile) -> Fraction:
    """Exact E[f(X)] = sum of mass(a) * welfare(a)."""
    return sum((p * social_welfare(profile, a) for a, p in dist.entries), ZERO)


def expected_value_per_bidder(dist: AllocationDistribution,
                              profile: ValuationProfile
                              ) -> tuple[Fraction, ...]:
    """Exact E[v_i(X)] for every bidder."""
    return tuple(
        sum((p * value_of(profile, i, a) for a, p in dist.entries), ZERO)
        for i in range(profile.n))


def sample(dist: AllocationDistribution, seed: int) -> Allocation:
    """Deterministic inverse-CDF draw over the sorted support.

    The generator is Python's ``random.Random`` (Mersenne Twister); a draw
    of 64 bits is mapped to the exact rational u = bits / 2**64, and the
    first allocation whose cumulative mass exceeds u is returned.  Equal
    seeds always yield equal allocations.
    """
    u = Fraction(random.Random(seed).getrandbits(64), 2 ** 64)
    cumulative = ZERO
    for alloc, p in dist.entries:
        cumulative += p
        if u < cumulative:
            return alloc
    return dist.entries[-1][0]
