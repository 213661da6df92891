"""Feasibility verdicts: what the interval bounds can already decide.

Three verdicts, in decreasing strength:

* :attr:`Verdict.INFEASIBLE` — the simulator **provably raises**
  :class:`~repro.sim.intermittent.TraceTooWeakError` on this point.
  Two proof rules, both conservative:

  - *energy budget*: the work target (plus the unavoidable initial
    restore) exceeds every joule a completed run could ever draw on —
    initial charge plus harvest over the executor's time limit.  Only
    claimed when the commit clamp cannot conjure energy
    (``commit_e <= Th_Bk``), which makes conservation a hard argument.
  - *unpayable restore*: even a full capacitor cannot pay the restore
    cost and re-enter the operating zone (the executor's own hard
    error), **and** charge mode is provably entered — the system
    starts below Th_Cp, or a scheme without the safe zone is forced to
    dip because peak harvest power cannot cover computation.

* :attr:`Verdict.DOMINATED` — every completed run of this point has
  ``PDP >= pdp_js.lo``, and a reference point already achieves a
  strictly better (smaller) PDP.  The point can still *run*; it just
  provably loses a best-PDP comparison.  Search strategies may drop
  such candidates; the sweep engine never does (pruning a runnable
  point would break record parity with a clean sweep).

* :attr:`Verdict.UNKNOWN` — simulate.  Includes every point whose
  preparation raises (those must flow through the simulation path so
  the canonical failure is recorded).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.intervals import RunBounds, bounds_for_point
from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.core.replacement import PlanMemo
from repro.dse.explorer import DesignPoint, SynthesisCache
from repro.energy.scenarios import ScenarioSpec

#: Relative slack a proof rule must clear before the analysis claims a
#: point infeasible — bounds are exact in the fluid model, but the
#: executor works in floats and the prune must never beat it by an ulp.
_PROOF_MARGIN = 1e-9


class Verdict(enum.Enum):
    """What the static analysis concluded about one design point."""

    INFEASIBLE = "infeasible"
    DOMINATED = "dominated"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FeasibilityReport:
    """One verdict, with its justification.

    Attributes:
        verdict: the conclusion.
        reason: human-readable proof sketch (empty for ``UNKNOWN``
            without a note).
        bounds: the interval bounds the verdict was derived from
            (``None`` when preparation failed before bounds existed).
    """

    verdict: Verdict
    reason: str = ""
    bounds: RunBounds | None = None


def assess_run(
    bounds: RunBounds, reference_pdp_js: float | None = None
) -> FeasibilityReport:
    """Judge one run from its bounds alone.

    Args:
        bounds: output of :func:`repro.analysis.intervals.bounds_for_run`.
        reference_pdp_js: exact PDP of a confirmed point in the same
            (scenario, circuit) group; enables the ``DOMINATED`` rule.
    """
    work = bounds.work_target_j
    floor = work + (
        bounds.restore_energy_j if bounds.initial_charge else 0.0
    )
    if bounds.conservative_commit and floor > bounds.budget_j * (
        1.0 + _PROOF_MARGIN
    ):
        return FeasibilityReport(
            verdict=Verdict.INFEASIBLE,
            reason=(
                f"work target {work:.3e} J exceeds the "
                f"{bounds.budget_j:.3e} J energy budget (initial charge "
                "+ harvest over the executor's time limit): the trace "
                "can never sustain the macro task"
            ),
            bounds=bounds,
        )
    if not bounds.restore_payable and bounds.must_enter_charge:
        return FeasibilityReport(
            verdict=Verdict.INFEASIBLE,
            reason=(
                f"restore cost {bounds.restore_energy_j:.3e} J cannot "
                "be paid without dropping below Th_SafeZone, and charge "
                "mode is provably entered"
            ),
            bounds=bounds,
        )
    if (
        reference_pdp_js is not None
        and bounds.pdp_js.lo > reference_pdp_js * (1.0 + _PROOF_MARGIN)
    ):
        return FeasibilityReport(
            verdict=Verdict.DOMINATED,
            reason=(
                f"best-case PDP {bounds.pdp_js.lo:.3e} Js already loses "
                f"to a confirmed {reference_pdp_js:.3e} Js"
            ),
            bounds=bounds,
        )
    return FeasibilityReport(verdict=Verdict.UNKNOWN, bounds=bounds)


def assess_point(
    netlist: Netlist,
    point: DesignPoint,
    base_config: DiacConfig | None = None,
    cache: SynthesisCache | None = None,
    scenario: ScenarioSpec | None = None,
    reference_pdp_js: float | None = None,
    plans: PlanMemo | None = None,
) -> FeasibilityReport:
    """Judge one (netlist, point, scenario) without simulating it.

    Never raises: a point whose preparation fails (infeasible margin,
    Th_Cp above the capacitor, a bad criteria set, ...) is reported as
    ``UNKNOWN`` so the simulation path produces the canonical failure
    record — the analysis only ever *adds* knowledge, it never changes
    what a sweep would have reported about an error.  ``plans`` is the
    caller's batch-local plan memo.
    """
    try:
        bounds = bounds_for_point(
            netlist,
            point,
            base_config=base_config,
            cache=cache,
            scenario=scenario,
            plans=plans,
        )
    except Exception as error:
        return FeasibilityReport(
            verdict=Verdict.UNKNOWN,
            reason=f"static preparation failed ({error}); simulating",
        )
    return assess_run(bounds, reference_pdp_js=reference_pdp_js)
