"""Search strategies: the DSE's answer to the exponential design space.

The paper's core motivation is that "incorporating tree-based
representations, different designs, and power failure scenarios will
exponentially expand the design space", demanding "an efficient,
precise, automated design tool" (Section I).  Enumerating every
full-factorial point — the seed engine's only mode — stops being that
tool the moment the space grows a few axes, so this module turns the
*search itself* into a subsystem:

* :class:`DesignSpace` — the space being searched: discrete choices
  (policy, technology, criteria, safe-zone) plus continuous
  :class:`Range` knobs (``budget_scale``, ``threshold_scale``,
  ``safe_margin_scale``) with sampling, grid, mutation and crossover
  operators;
* :class:`SearchStrategy` — an ask/tell protocol: a strategy proposes a
  batch of :class:`Proposal` s, the engine evaluates them through its
  existing synthesis-cache/process-pool/JSONL-store machinery
  (:meth:`repro.dse.engine.SweepEngine.submit`), and the outcomes
  flow back via :meth:`~SearchStrategy.tell`;
* four implementations — :class:`GridStrategy` (the classic
  full-factorial walk, demoted to one strategy among peers),
  :class:`RandomStrategy` (seed-deterministic uniform or
  latin-hypercube sampling), :class:`SuccessiveHalvingStrategy`
  (ETAP-style cheap screening before full evaluation) and
  :class:`ParetoEvolutionStrategy` (mutation/crossover around the
  current per-(scenario, circuit) Pareto front).

Every strategy is a pure function of its seed: two runs with the same
space, seed and outcomes propose identical points, which is what lets
a search resume from a partial store with unchanged keys.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Protocol

from repro.core.replacement import ReplacementCriteria
from repro.dse.explorer import DesignPoint
from repro.dse.pareto import pareto_front
from repro.dse.scoring import best_pdp_by_group, pdp_degradation
from repro.energy.scenarios import ScenarioSpec
from repro.tech.nvm import MRAM, NvmTechnology

if TYPE_CHECKING:
    from repro.dse.engine import SweepFailure, SweepSpec
    from repro.dse.explorer import ExplorationRecord


@dataclass(frozen=True)
class Range:
    """A continuous design knob: closed interval ``[lo, hi]``.

    Degenerate ranges (``lo == hi``) are allowed — they pin the knob,
    which is how :meth:`DesignSpace.from_spec` represents a
    single-valued axis.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo <= 0:
            raise ValueError("range bounds must be positive")
        if self.hi < self.lo:
            raise ValueError(f"range hi {self.hi} below lo {self.lo}")

    def sample(self, rng: random.Random) -> float:
        """One uniform draw from the interval."""
        return self.lo if self.hi == self.lo else rng.uniform(self.lo, self.hi)

    def clip(self, value: float) -> float:
        """``value`` clamped into the interval."""
        return min(max(value, self.lo), self.hi)

    def grid(self, resolution: int) -> tuple[float, ...]:
        """``resolution`` evenly spaced values spanning the interval."""
        if resolution < 1:
            raise ValueError("grid resolution must be >= 1")
        if self.hi == self.lo or resolution == 1:
            return (self.lo,)
        step = (self.hi - self.lo) / (resolution - 1)
        return tuple(self.lo + i * step for i in range(resolution))

    def stratum(self, index: int, n: int, rng: random.Random) -> float:
        """A latin-hypercube draw from stratum ``index`` of ``n``."""
        if self.hi == self.lo:
            return self.lo
        width = (self.hi - self.lo) / n
        return self.lo + (index + rng.random()) * width


@dataclass(frozen=True)
class DesignSpace:
    """The space a :class:`SearchStrategy` searches.

    Discrete axes are explicit choice tuples (the same vocabulary as
    :class:`~repro.dse.engine.SweepSpec`); the three scale knobs are
    continuous :class:`Range` s.  ``safe_margin_scale=None`` removes the
    margin knob entirely — every point keeps the derived default width.
    """

    policies: tuple[int, ...] = (1, 2, 3)
    technologies: tuple[NvmTechnology, ...] = (MRAM,)
    criteria_sets: tuple[ReplacementCriteria, ...] = (
        ReplacementCriteria(),
    )
    safe_zones: tuple[bool, ...] = (True, False)
    budget_scale: Range = Range(0.25, 2.5)
    threshold_scale: Range = Range(1.0, 1.0)
    safe_margin_scale: Range | None = None

    def __post_init__(self) -> None:
        for name in ("policies", "technologies", "criteria_sets",
                     "safe_zones"):
            if not getattr(self, name):
                raise ValueError(f"design-space axis {name!r} must be "
                                 "non-empty")
        for policy in self.policies:
            if policy not in (1, 2, 3):
                raise ValueError(f"policy must be 1, 2 or 3, got {policy!r}")

    @classmethod
    def from_spec(cls, spec: "SweepSpec") -> "DesignSpace":
        """The space spanned by a full-factorial :class:`SweepSpec`.

        Continuous knobs become the closed interval between the spec's
        smallest and largest value, so a random/evolutionary search
        explores the same region a grid over the spec would, plus
        everything between the grid lines.  A margin axis of only
        ``None`` stays pinned to the default width; an axis mixing
        ``None`` with explicit scales folds the default in as its
        equivalent explicit scale 1.0 (``with_safe_margin(1.0 x
        default)`` *is* the default width), so the search can still
        reach it.
        """
        margins = [
            1.0 if m is None else m for m in spec.safe_margin_scales
        ]
        if all(m is None for m in spec.safe_margin_scales):
            margins = []
        return cls(
            policies=spec.policies,
            technologies=spec.technologies,
            criteria_sets=spec.criteria_sets,
            safe_zones=spec.safe_zones,
            budget_scale=Range(min(spec.budget_scales),
                               max(spec.budget_scales)),
            threshold_scale=Range(min(spec.threshold_scales),
                                  max(spec.threshold_scales)),
            safe_margin_scale=(
                Range(min(margins), max(margins)) if margins else None
            ),
        )

    def sample(self, rng: random.Random) -> DesignPoint:
        """One uniform draw from the space."""
        return DesignPoint(
            policy=rng.choice(self.policies),
            budget_scale=self.budget_scale.sample(rng),
            technology=rng.choice(self.technologies),
            criteria=rng.choice(self.criteria_sets),
            use_safe_zone=rng.choice(self.safe_zones),
            threshold_scale=self.threshold_scale.sample(rng),
            safe_margin_scale=(
                self.safe_margin_scale.sample(rng)
                if self.safe_margin_scale is not None
                else None
            ),
        )

    def grid(self, resolution: int = 3) -> list[DesignPoint]:
        """The full-factorial point set at ``resolution`` per knob."""
        margin_values: tuple[float | None, ...] = (
            self.safe_margin_scale.grid(resolution)
            if self.safe_margin_scale is not None
            else (None,)
        )
        return [
            DesignPoint(
                policy=policy,
                budget_scale=budget,
                technology=tech,
                criteria=criteria,
                use_safe_zone=safe,
                threshold_scale=threshold,
                safe_margin_scale=margin,
            )
            for policy in self.policies
            for budget in self.budget_scale.grid(resolution)
            for tech in self.technologies
            for criteria in self.criteria_sets
            for safe in self.safe_zones
            for threshold in self.threshold_scale.grid(resolution)
            for margin in margin_values
        ]

    def mutate(
        self,
        point: DesignPoint,
        rng: random.Random,
        sigma: float = 0.2,
        flip_probability: float = 0.15,
    ) -> DesignPoint:
        """A neighbor of ``point``: log-normal jiggle + rare discrete flips.

        Continuous knobs are multiplied by ``exp(N(0, sigma))`` and
        clipped back into their range (scale knobs are ratios, so a
        multiplicative step explores them evenly in log space); each
        discrete knob re-samples with probability ``flip_probability``.
        """

        def jiggle(knob: Range, value: float) -> float:
            return knob.clip(value * math.exp(rng.gauss(0.0, sigma)))

        def maybe_flip(choices: tuple, current):
            return rng.choice(choices) if rng.random() < flip_probability \
                else current

        if self.safe_margin_scale is None:
            margin = None
        elif point.safe_margin_scale is None:
            margin = self.safe_margin_scale.sample(rng)
        else:
            margin = jiggle(self.safe_margin_scale, point.safe_margin_scale)
        return DesignPoint(
            policy=maybe_flip(self.policies, point.policy),
            budget_scale=jiggle(self.budget_scale, point.budget_scale),
            technology=maybe_flip(self.technologies, point.technology),
            criteria=maybe_flip(self.criteria_sets, point.criteria),
            use_safe_zone=maybe_flip(self.safe_zones, point.use_safe_zone),
            threshold_scale=jiggle(
                self.threshold_scale, point.threshold_scale
            ),
            safe_margin_scale=margin,
        )

    def crossover(
        self, a: DesignPoint, b: DesignPoint, rng: random.Random
    ) -> DesignPoint:
        """Uniform crossover: each knob picked from one parent."""

        def pick(x, y):
            return x if rng.random() < 0.5 else y

        return DesignPoint(
            policy=pick(a.policy, b.policy),
            budget_scale=pick(a.budget_scale, b.budget_scale),
            technology=pick(a.technology, b.technology),
            criteria=pick(a.criteria, b.criteria),
            use_safe_zone=pick(a.use_safe_zone, b.use_safe_zone),
            threshold_scale=pick(a.threshold_scale, b.threshold_scale),
            safe_margin_scale=pick(
                a.safe_margin_scale, b.safe_margin_scale
            ),
        )


@dataclass(frozen=True)
class Proposal:
    """One evaluation request a strategy hands the engine.

    Attributes:
        point: the configuration to evaluate.
        scenario_scale: fidelity knob — a multiplier applied on top of
            each sweep scenario's own power scale.  ``1.0`` is a full
            evaluation; a value above one evaluates under a more
            generous (and therefore cheaper-to-simulate) environment,
            which is how :class:`SuccessiveHalvingStrategy` screens its
            candidate pool before paying full price.  Screened records
            carry the scaled :class:`ScenarioSpec`, so their store keys
            never collide with full evaluations.
    """

    point: DesignPoint
    scenario_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scenario_scale <= 0:
            raise ValueError("scenario_scale must be positive")

    def scenario_for(self, spec: ScenarioSpec) -> ScenarioSpec:
        """The effective environment for one sweep scenario."""
        if self.scenario_scale == 1.0:
            return spec
        return replace(spec, scale=spec.scale * self.scenario_scale)


@dataclass
class EvalOutcome:
    """What the engine learned about one proposal.

    ``records`` holds one :class:`ExplorationRecord` per (circuit,
    scenario) pair that evaluated cleanly; ``failures`` the pairs that
    raised (infeasible margin, trace too weak, ...).  A proposal with no
    records at all failed everywhere and should rank last.
    """

    proposal: Proposal
    records: list["ExplorationRecord"] = field(default_factory=list)
    failures: list["SweepFailure"] = field(default_factory=list)


class SearchStrategy(Protocol):
    """Ask/tell search over a :class:`DesignSpace`.

    The engine loop is::

        while proposals := strategy.ask():
            outcomes = evaluate(proposals)   # cache/pool/store machinery
            strategy.tell(outcomes)

    ``ask`` returning an empty list ends the search.  ``tell`` receives
    one :class:`EvalOutcome` per proposal, in proposal order.
    """

    def ask(self) -> list[Proposal]:
        """The next batch of proposals (empty when the search is done)."""
        ...  # pragma: no cover

    def tell(self, outcomes: list[EvalOutcome]) -> None:
        """Feed back the evaluated batch."""
        ...  # pragma: no cover


class PoolScreener(Protocol):
    """A zero-simulation filter over a sampled candidate pool.

    Implemented by :class:`repro.analysis.StaticScreener`; defined
    structurally here so the strategy layer stays import-free of the
    analysis package.
    """

    def screen(self, points: list[DesignPoint]) -> list[DesignPoint]:
        """The kept candidates (possibly reordered, never grown)."""
        ...  # pragma: no cover


def _score_outcomes(outcomes: list[EvalOutcome]) -> list[float]:
    """Mean normalized PDP per outcome — lower is better, ``inf`` = failed.

    PDP is only comparable inside one (scenario, circuit) pair, so each
    record first normalizes to the best PDP any outcome achieved in the
    same pair (:func:`repro.dse.scoring.pdp_degradation` — the same rule
    :func:`repro.metrics.robustness_report` uses) and an outcome's score
    is the mean of its normalized values.  Outcomes with no successful
    record score ``inf``; partial failures add a penalty per failed pair
    so fragile points rank behind robust ones with equal means.
    """
    best = best_pdp_by_group(
        record for outcome in outcomes for record in outcome.records
    )
    scores = []
    for outcome in outcomes:
        if not outcome.records:
            scores.append(float("inf"))
            continue
        ratios = [
            pdp_degradation(r.pdp_js, best[(r.scenario.label(), r.circuit)])
            for r in outcome.records
        ]
        mean = sum(ratios) / len(ratios)
        scores.append(mean + 0.5 * len(outcome.failures))
    return scores


class GridStrategy:
    """The classic full-factorial walk, as one strategy among peers.

    Proposes the whole grid in a single generation — exactly what
    a ``grid`` :class:`~repro.dse.request.SweepRequest` does for a
    :class:`~repro.dse.engine.SweepSpec`, expressed through the ask/tell
    protocol so grids and adaptive searches run through one loop.
    """

    def __init__(self, space: DesignSpace, resolution: int = 3) -> None:
        self.space = space
        self.resolution = resolution
        self._asked = False

    def ask(self) -> list[Proposal]:
        if self._asked:
            return []
        self._asked = True
        return [Proposal(point) for point in self.space.grid(self.resolution)]

    def tell(self, outcomes: list[EvalOutcome]) -> None:
        """Grids adapt to nothing; outcomes are accepted and ignored."""


class RandomStrategy:
    """Seed-deterministic random sampling (uniform or latin hypercube).

    Args:
        space: the space to sample.
        samples: total points to propose.
        seed: RNG seed; same (space, samples, seed) → same points.
        method: ``"uniform"`` for independent draws, ``"lhs"`` to
            stratify every continuous knob into ``samples`` bins
            (latin hypercube) and balance the discrete choices.
        batch_size: proposals per generation (default: all at once).
    """

    def __init__(
        self,
        space: DesignSpace,
        samples: int = 24,
        seed: int = 0,
        method: str = "uniform",
        batch_size: int | None = None,
    ) -> None:
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if method not in ("uniform", "lhs"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.space = space
        self._pending = [
            Proposal(point)
            for point in self._draw(space, samples, random.Random(seed),
                                    method)
        ]
        self.batch_size = batch_size or samples

    @staticmethod
    def _draw(
        space: DesignSpace, n: int, rng: random.Random, method: str
    ) -> list[DesignPoint]:
        if method == "uniform":
            return [space.sample(rng) for _ in range(n)]

        def balanced(choices: tuple) -> list:
            column: list = []
            while len(column) < n:
                block = list(choices)
                rng.shuffle(block)
                column.extend(block)
            return column[:n]

        def strata(knob: Range | None) -> list[float | None]:
            if knob is None:
                return [None] * n
            order = list(range(n))
            rng.shuffle(order)
            return [knob.stratum(index, n, rng) for index in order]

        columns = {
            "policy": balanced(space.policies),
            "technology": balanced(space.technologies),
            "criteria": balanced(space.criteria_sets),
            "use_safe_zone": balanced(space.safe_zones),
            "budget_scale": strata(space.budget_scale),
            "threshold_scale": strata(space.threshold_scale),
            "safe_margin_scale": strata(space.safe_margin_scale),
        }
        return [
            DesignPoint(**{name: column[i] for name, column in
                           columns.items()})
            for i in range(n)
        ]

    def ask(self) -> list[Proposal]:
        batch = self._pending[: self.batch_size]
        self._pending = self._pending[self.batch_size:]
        return batch

    def tell(self, outcomes: list[EvalOutcome]) -> None:
        """Random search adapts to nothing; outcomes are ignored."""


class SuccessiveHalvingStrategy:
    """Screen cheap, promote the best, pay full price only at the top.

    ETAP's lesson — a cheap energy/timing estimate can rank
    configurations well enough to skip most expensive simulations —
    applied to the scenario axis: the opening pool is evaluated under a
    ``screen_scale``-times more generous environment (fewer power
    failures, much shorter simulation), each round promotes the top
    ``promote`` fraction, and the fidelity anneals geometrically until
    the final round runs at full fidelity (``scenario_scale == 1``).
    Only final-round records land in the search result; screening
    records still stream to the store under their scaled scenario keys,
    so a resumed search skips the screening it already paid for.

    With a ``screener`` (static round 0), the opening pool is first
    cut by interval analysis *before any simulation*: provably
    infeasible and bound-dominated samples never reach the screening
    round, so the search spends strictly fewer simulated evaluations
    for the same sampled pool.

    Args:
        space: the space to search.
        pool: size of the opening candidate pool.
        promote: fraction of candidates surviving each round.
        rounds: total rounds including the full-fidelity final.
        screen_scale: power multiplier of the cheapest (first) round.
        seed: RNG seed for the opening pool.
        screener: optional zero-cost static screen applied to the
            sampled pool (anything with a
            ``screen(list[DesignPoint]) -> list[DesignPoint]`` method,
            e.g. :class:`repro.analysis.StaticScreener`).
    """

    def __init__(
        self,
        space: DesignSpace,
        pool: int = 24,
        promote: float = 0.25,
        rounds: int = 2,
        screen_scale: float = 1.5,
        seed: int = 0,
        screener: "PoolScreener | None" = None,
    ) -> None:
        if pool < 2:
            raise ValueError("pool must be >= 2")
        if not 0.0 < promote < 1.0:
            raise ValueError("promote must be in (0, 1)")
        if rounds < 2:
            raise ValueError("rounds must be >= 2 (screen + full)")
        if screen_scale <= 1.0:
            raise ValueError("screen_scale must be > 1 (a cheaper, more "
                             "generous screening environment)")
        self.space = space
        self.pool = pool
        self.promote = promote
        self.rounds = rounds
        self.screen_scale = screen_scale
        self.screener = screener
        self._rng = random.Random(seed)
        self._round = 0
        self._candidates: list[DesignPoint] = []

    def _fidelity(self, round_index: int) -> float:
        """Geometric anneal from ``screen_scale`` down to 1.0."""
        exponent = 1.0 - round_index / (self.rounds - 1)
        return self.screen_scale ** exponent

    def ask(self) -> list[Proposal]:
        if self._round >= self.rounds:
            return []
        if self._round == 0:
            self._candidates = [
                self.space.sample(self._rng) for _ in range(self.pool)
            ]
            if self.screener is not None:
                self._candidates = self.screener.screen(self._candidates)
        scale = self._fidelity(self._round)
        return [
            Proposal(point, scenario_scale=scale)
            for point in self._candidates
        ]

    def tell(self, outcomes: list[EvalOutcome]) -> None:
        scores = _score_outcomes(outcomes)
        ranked = sorted(range(len(outcomes)), key=lambda i: scores[i])
        self._round += 1
        if self._round >= self.rounds:
            return
        survivors = max(2, round(len(outcomes) * self.promote))
        self._candidates = [
            outcomes[index].proposal.point for index in ranked[:survivors]
        ]


class ParetoEvolutionStrategy:
    """Evolve the population around the current Pareto front.

    Every generation keeps the non-dominated set — per (scenario,
    circuit) pair, on (PDP, re-execution exposure) — as the parent pool,
    and breeds the next population by crossover of two parents followed
    by mutation.  Points already proposed are never proposed again (the
    identity check mirrors the engine's resume keys), so the search
    spends its whole budget on new ground.

    Args:
        space: the space to search.
        population: points per generation.
        generations: generations to run (total budget ≈
            ``population × generations`` evaluations per
            (circuit, scenario) pair).
        seed: RNG seed.
        mutation_sigma: log-normal step of the continuous knobs.
    """

    def __init__(
        self,
        space: DesignSpace,
        population: int = 12,
        generations: int = 6,
        seed: int = 0,
        mutation_sigma: float = 0.25,
    ) -> None:
        if population < 2:
            raise ValueError("population must be >= 2")
        if generations < 1:
            raise ValueError("generations must be >= 1")
        self.space = space
        self.population = population
        self.generations = generations
        self.mutation_sigma = mutation_sigma
        self._rng = random.Random(seed)
        self._generation = 0
        self._archive: list["ExplorationRecord"] = []
        self._seen: set[tuple] = set()

    def _parents(self) -> list[DesignPoint]:
        """Non-dominated points, unioned across (scenario, circuit) pairs."""
        groups: dict[tuple[str, str], list["ExplorationRecord"]] = {}
        for record in self._archive:
            key = (record.scenario.label(), record.circuit)
            groups.setdefault(key, []).append(record)
        parents: dict[tuple, DesignPoint] = {}
        for records in groups.values():
            front = pareto_front(
                records,
                objectives=[
                    lambda r: r.pdp_js,
                    lambda r: r.reexec_energy_j,
                ],
            )
            for record in front:
                parents.setdefault(record.point.identity(), record.point)
        return list(parents.values())

    def _breed(self, parents: list[DesignPoint]) -> DesignPoint:
        if len(parents) >= 2:
            a, b = self._rng.sample(parents, 2)
            child = self.space.crossover(a, b, self._rng)
        else:
            child = parents[0]
        return self.space.mutate(child, self._rng,
                                 sigma=self.mutation_sigma)

    def ask(self) -> list[Proposal]:
        if self._generation >= self.generations:
            return []
        self._generation += 1
        parents = self._parents()
        proposals: list[Proposal] = []
        for _ in range(self.population):
            point: DesignPoint | None = None
            for _attempt in range(16):
                candidate = (
                    self._breed(parents) if parents
                    else self.space.sample(self._rng)
                )
                if candidate.identity() not in self._seen:
                    point = candidate
                    break
            if point is None:  # space exhausted near the front
                point = self.space.sample(self._rng)
            self._seen.add(point.identity())
            proposals.append(Proposal(point))
        return proposals

    def tell(self, outcomes: list[EvalOutcome]) -> None:
        for outcome in outcomes:
            self._archive.extend(outcome.records)


#: CLI/name → constructor table for :func:`make_strategy`.
STRATEGIES = ("grid", "random", "lhs", "halving", "evolution")


def make_strategy(
    name: str,
    space: DesignSpace,
    samples: int = 24,
    generations: int = 4,
    seed: int = 0,
    screener: PoolScreener | None = None,
) -> SearchStrategy:
    """Build a named strategy with sensible knob mapping.

    ``samples`` is the per-generation candidate budget (random sample
    count, halving pool, evolution population); ``generations`` the
    number of adaptive rounds (halving rounds, evolution generations —
    ignored by grid/random, which are single-generation).
    ``screener`` (the static round 0) is only meaningful for
    ``halving`` and is ignored by the other strategies.

    Raises:
        ValueError: for an unknown strategy name, or knob values the
            named strategy rejects (e.g. ``halving`` needs
            ``generations >= 2`` — one screen round plus the
            full-fidelity final).
    """
    if name == "grid":
        return GridStrategy(space)
    if name == "random":
        return RandomStrategy(space, samples=samples, seed=seed)
    if name == "lhs":
        return RandomStrategy(space, samples=samples, seed=seed,
                              method="lhs")
    if name == "halving":
        if generations < 2:
            # Don't silently rewrite the user's budget: 1 round cannot
            # screen AND evaluate at full fidelity.
            raise ValueError(
                "halving needs generations >= 2 (a screening round "
                f"plus the full-fidelity final), got {generations}"
            )
        return SuccessiveHalvingStrategy(
            space, pool=samples, rounds=generations, seed=seed,
            screener=screener,
        )
    if name == "evolution":
        return ParetoEvolutionStrategy(
            space, population=samples, generations=generations, seed=seed
        )
    raise ValueError(
        f"unknown strategy {name!r}; available: {', '.join(STRATEGIES)}"
    )
