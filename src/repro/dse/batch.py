"""NumPy-lockstep batch execution of intermittent macro tasks.

Advances a vector of (design, scenario) executor runs together: every
lane's fluid event loop performs the *same* sequence of closed-form
updates (segment lookup, depletion/recovery/resume solving, threshold
bookkeeping), so N lanes become array expressions over length-N state
vectors instead of N Python event loops.  A whole strategy generation or
Monte-Carlo scenario ensemble then simulates in one kernel.

Bit-exactness contract: every arithmetic expression in the vector kernel
performs the identical IEEE-754 operation sequence per lane as
:meth:`repro.sim.intermittent.IntermittentExecutor.run` (``np.minimum``
== ``min``, ``np.fmod`` == ``math.fmod``, masked branch selection ==
``if``/``else``), so batched results equal the scalar oracle's field for
field — pinned by ``tests/test_batch_executor.py``.  Three fallbacks
keep the scalar path authoritative:

* lanes below :data:`MIN_VECTOR_LANES` (or NumPy missing, or the kernel
  toggled off via :func:`batch_kernel_disabled`) run the scalar oracle
  lane by lane;
* once most lanes of a vector run finish, the stragglers detach into a
  pure-Python replica of the scalar loop (:func:`_finish_lane`) — the
  per-iteration array overhead would otherwise dominate a nearly-empty
  batch;
* per-lane :class:`~repro.sim.intermittent.TraceTooWeakError` failures
  carry the scalar path's exact message and are either re-raised for
  the first failing lane (matching a sequential loop) or returned
  per-lane with ``return_exceptions=True``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.calibration import MACRO_TASK_ENERGY_RATIO, REEXECUTION_FRACTION
from repro.energy.harvester import HarvestTrace
from repro.energy.thresholds import ThresholdSet
from repro.sim.intermittent import (
    ExecutionResult,
    IntermittentExecutor,
    SchemeProfile,
    TraceTooWeakError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation import Environment

#: Below this many lanes the per-iteration array overhead exceeds the
#: per-lane win, so :func:`run_batch` uses the scalar oracle directly.
MIN_VECTOR_LANES = 16

#: A vector run detaches its remaining lanes into the pure-Python
#: replica once no more than this many are still live.  Straggler lanes
#: pay the kernel's fixed per-iteration dispatch cost (~150 us) for a
#: handful of rows; the replica's ~1.5 us iterations win well past a
#: dozen live lanes.  :func:`run_batch` widens the threshold to an
#: eighth of the batch for wide batches — heterogeneous ensembles have
#: long straggler tails, and detaching them early is what keeps the
#: kernel ahead of the scalar loop (measured on the ``executor-batch``
#: suite's 1024-lane ensemble).
TAIL_LANES = 24

_USE_BATCH_KERNEL = True

_np = None
_np_checked = False


def _numpy():
    """The numpy module, or ``None`` when it is not installed."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - depends on environment
            numpy = None
        _np = numpy
    return _np


def batch_kernel_available() -> bool:
    """Whether the vector kernel *can* run (NumPy importable)."""
    return _numpy() is not None


def batch_kernel_enabled() -> bool:
    """Whether the vector kernel is toggled on."""
    return _USE_BATCH_KERNEL


def batch_routing_enabled() -> bool:
    """Whether callers should route batched work through this module."""
    return _USE_BATCH_KERNEL and batch_kernel_available()


@contextmanager
def batch_kernel_disabled() -> Iterator[None]:
    """Route all batched execution through the scalar oracle for the block."""
    global _USE_BATCH_KERNEL
    previous = _USE_BATCH_KERNEL
    _USE_BATCH_KERNEL = False
    try:
        yield
    finally:
        _USE_BATCH_KERNEL = previous


@dataclass(frozen=True)
class LaneSpec:
    """One (design, scenario) run of a batch.

    Mirrors the :class:`~repro.sim.intermittent.IntermittentExecutor`
    constructor plus its :meth:`run` arguments.

    Attributes:
        profile: the scheme under test.
        e_max_j: storage capacity of the evaluation capacitor.
        trace: cyclic harvest trace.
        thresholds: threshold set; derived from ``e_max_j`` when omitted.
        sleep_drain_w: standby drain while parked in the safe zone.
        work_target_j: useful work required (paper default when omitted).
        max_cycles: trace periods before the lane fails as too weak.
    """

    profile: SchemeProfile
    e_max_j: float
    trace: HarvestTrace
    thresholds: ThresholdSet | None = None
    sleep_drain_w: float = 0.0
    work_target_j: float | None = None
    max_cycles: float = 400.0

    @classmethod
    def for_environment(
        cls, profile: SchemeProfile, env: Environment
    ) -> LaneSpec:
        """``profile`` run in one evaluation :class:`Environment`.

        The work target is ``env.n_passes`` passes of the profile, the
        same expression the scalar evaluation paths use, so a lane built
        here replays them bit for bit.
        """
        return cls(
            profile=profile,
            e_max_j=env.e_max_j,
            trace=env.trace,
            thresholds=env.thresholds,
            sleep_drain_w=env.sleep_drain_w,
            work_target_j=env.n_passes * profile.pass_energy_j,
        )


class _LaneState:
    """Scalar per-lane constants and mid-run state of one vector lane."""

    __slots__ = (
        "spec", "executor", "commit_e", "commit_t", "restore_e",
        "restore_t", "p_active", "safe_j", "compute_j", "backup_j",
        "work_target_j", "t_limit", "rw", "window_pos", "resume_e",
        "resume_after", "infeasible", "t", "e", "work", "committed",
        "mode", "total_energy", "active_time", "reexec_energy",
        "n_dips", "n_backups", "n_restores", "n_safe_recoveries",
    )

    def __init__(self, spec: LaneSpec) -> None:
        from repro.calibration import INITIAL_ENERGY_FRACTION

        self.spec = spec
        # The executor derives thresholds and validates e_max exactly
        # like the scalar path; its cost helpers price commit/restore.
        executor = IntermittentExecutor(
            spec.profile,
            e_max_j=spec.e_max_j,
            trace=spec.trace,
            thresholds=spec.thresholds,
            sleep_drain_w=spec.sleep_drain_w,
        )
        self.executor = executor
        self.commit_e, self.commit_t = executor._commit_cost()
        self.restore_e, self.restore_t = executor._restore_cost()
        profile = spec.profile
        th = executor.thresholds
        self.p_active = profile.active_power_w
        self.safe_j = th.safe_j
        self.compute_j = th.compute_j
        self.backup_j = th.backup_j
        self.work_target_j = (
            spec.work_target_j
            if spec.work_target_j is not None
            else MACRO_TASK_ENERGY_RATIO * spec.e_max_j
        )
        self.t_limit = spec.max_cycles * spec.trace.period_s
        # _commit_point's expression hoisted per lane: the scalar path
        # recomputes REEXECUTION_FRACTION * window at every commit, but
        # the product is the same floats every time.
        self.rw = REEXECUTION_FRACTION * profile.reexec_window_j
        self.window_pos = profile.reexec_window_j > 0.0
        # Charge-mode constants, identically hoisted.
        self.resume_e = min(self.compute_j + self.restore_e, spec.e_max_j)
        self.resume_after = self.resume_e - self.restore_e
        self.infeasible = self.resume_e - self.restore_e < self.safe_j

        self.t = 0.0
        self.e = INITIAL_ENERGY_FRACTION * spec.e_max_j
        self.work = 0.0
        self.committed = 0.0
        self.mode = 0 if self.e > self.compute_j else 2
        self.total_energy = 0.0
        self.active_time = 0.0
        self.reexec_energy = 0.0
        self.n_dips = 0
        self.n_backups = 0
        self.n_restores = 0
        self.n_safe_recoveries = 0

    def result(self) -> ExecutionResult:
        """Package the completed lane the way the scalar ``run`` does."""
        profile = self.spec.profile
        return ExecutionResult(
            scheme=profile.name,
            completed=True,
            work_target_j=self.work_target_j,
            useful_energy_j=self.work_target_j,
            total_energy_j=self.total_energy,
            active_time_s=self.active_time,
            wall_time_s=self.t,
            n_dips=self.n_dips,
            n_backups=self.n_backups,
            n_restores=self.n_restores,
            n_safe_recoveries=self.n_safe_recoveries,
            nvm_bits_written=self.n_backups * profile.commit_bits,
            nvm_bits_read=self.n_restores * profile.restore_bits,
            reexec_energy_j=self.reexec_energy,
        )

    def too_weak_error(self) -> TraceTooWeakError:
        """The scalar path's trace-too-weak message, verbatim."""
        return TraceTooWeakError(
            f"{self.spec.profile.name}: trace {self.spec.trace.name!r} "
            f"could not sustain the macro task within "
            f"{self.spec.max_cycles:g} cycles "
            f"(work {self.work:.3e}/{self.work_target_j:.3e} J)"
        )

    def restore_error(self) -> TraceTooWeakError:
        """The scalar path's restore-infeasible message, verbatim."""
        return TraceTooWeakError(
            f"{self.spec.profile.name}: restore cost "
            f"{self.restore_e:.3e} J cannot be paid from the "
            f"{self.spec.e_max_j:.3e} J capacitor without dropping "
            f"below Th_SafeZone ({self.safe_j:.3e} J)"
        )


def _finish_lane(lane: _LaneState) -> ExecutionResult:
    """Run one lane to completion in pure Python.

    A verbatim replica of the scalar
    :meth:`~repro.sim.intermittent.IntermittentExecutor.run` event loop
    that starts from the lane's current mid-run state instead of t=0 —
    the vector kernel hands its straggler lanes here, and the scalar
    fallback path enters with a fresh state.  Operation order matches
    the oracle exactly (same expressions on the same floats), which the
    differential tests pin.
    """
    segment_at = lane.spec.trace.segment_at
    p_active = lane.p_active
    safe_j = lane.safe_j
    compute_j = lane.compute_j
    backup_j = lane.backup_j
    e_max = lane.spec.e_max_j
    sleep_drain = lane.spec.sleep_drain_w
    uses_safe_zone = lane.spec.profile.uses_safe_zone
    commit_e, commit_t = lane.commit_e, lane.commit_t
    restore_e, restore_t = lane.restore_e, lane.restore_t
    work_target_j = lane.work_target_j
    t_limit = lane.t_limit
    eps = 1e-18

    t, e, work = lane.t, lane.e, lane.work
    committed_work = lane.committed
    mode = lane.mode

    while work < work_target_j - eps:
        if t > t_limit:
            lane.t, lane.work = t, work
            raise lane.too_weak_error()
        seg, seg_remaining = segment_at(t)
        p_in = seg.power_w

        if mode == 0:  # active
            p_net = p_in - p_active
            if p_net >= 0:
                dt = min(seg_remaining, (work_target_j - work) / p_active)
                e = min(e + p_net * dt, e_max)
            else:
                t_deplete = max(0.0, e - safe_j) / (-p_net)
                dt = min(
                    seg_remaining,
                    t_deplete,
                    (work_target_j - work) / p_active,
                )
                e += p_net * dt
            work += p_active * dt
            lane.total_energy += p_active * dt
            lane.active_time += dt
            t += dt
            if work >= work_target_j - eps:
                break
            if e <= safe_j + eps:
                lane.n_dips += 1
                if uses_safe_zone:
                    mode = 1
                else:
                    lane.n_backups += 1
                    lane.total_energy += commit_e
                    lane.active_time += commit_t
                    e = max(e - commit_e, 0.0)
                    committed_work = (
                        work if not lane.window_pos
                        else max(0.0, work - lane.rw)
                    )
                    mode = 2
            continue

        if mode == 1:  # dip (parked in the safe zone)
            p_net = p_in - sleep_drain
            if p_net > 0:
                t_recover = (compute_j - e) / p_net
                if t_recover <= seg_remaining:
                    e = compute_j
                    t += t_recover
                    lane.n_safe_recoveries += 1
                    mode = 0
                    continue
                e = min(e + p_net * seg_remaining, e_max)
                t += seg_remaining
                continue
            t_decay = (e - backup_j) / (-p_net) if p_net < 0 else math.inf
            if t_decay <= seg_remaining:
                t += t_decay
                e = backup_j
                lane.n_backups += 1
                lane.total_energy += commit_e
                lane.active_time += commit_t
                e = max(e - commit_e, 0.0)
                committed_work = (
                    work if not lane.window_pos
                    else max(0.0, work - lane.rw)
                )
                mode = 2
                continue
            e += p_net * seg_remaining
            t += seg_remaining
            continue

        # mode == 2: charge (recharging after a backup)
        if p_in > 0:
            if lane.infeasible:
                raise lane.restore_error()
            t_resume = (lane.resume_e - e) / p_in
            if t_resume <= seg_remaining:
                t += t_resume
                e = lane.resume_e
                lane.n_restores += 1
                lane.total_energy += restore_e
                lane.active_time += restore_t
                e = e - restore_e
                lane.reexec_energy += work - committed_work
                work = committed_work
                mode = 0
                continue
            e = min(e + p_in * seg_remaining, e_max)
        t += seg_remaining

    lane.t, lane.e, lane.work = t, e, work
    lane.committed = committed_work
    return lane.result()


def _run_vector(
    lanes: list[_LaneState],
    failures: dict[int, TraceTooWeakError],
    tail_lanes: int,
) -> None:
    """Advance ``lanes`` in NumPy lockstep until only stragglers remain.

    Mutates each lane's mid-run state in place; lanes that complete are
    finalized via :meth:`_LaneState.result` by the caller (state is
    written back on completion), failed lanes land in ``failures`` keyed
    by their index in ``lanes``.  Returns when every remaining live lane
    should finish through :func:`_finish_lane`.

    The kernel works full-width with boolean masks rather than
    per-branch gathers: finished or failed rows turn into sentinels
    (``mode`` 3, ``work`` -inf, ``t_limit`` +inf) that fall out of every
    mask for free, and the row set is physically compacted only once
    half of it is sentinels.  Each masked update either selects with
    ``np.where`` or adds a term that is exactly ``0.0`` outside the
    mask, so unselected lanes keep bit-identical state.
    """
    np = _numpy()
    n = len(lanes)
    seg_counts = [len(lane.spec.trace.segments) for lane in lanes]
    s_max = max(seg_counts)
    # Two +inf sentinel columns beyond the widest trace keep the
    # incremental index guesses (idx, idx+1, lookups at idx+2) in
    # bounds, and fall out of the <= counts for free.
    starts_m = np.full((n, s_max + 2), np.inf)
    powers_m = np.zeros((n, s_max))
    durs_m = np.zeros((n, s_max))
    for i, lane in enumerate(lanes):
        trace = lane.spec.trace
        k = seg_counts[i]
        starts_m[i, :k] = trace._starts
        powers_m[i, :k] = [seg.power_w for seg in trace.segments]
        durs_m[i, :k] = [seg.duration_s for seg in trace.segments]

    def const(attr):
        return np.array([getattr(lane, attr) for lane in lanes])

    p_active = const("p_active")
    commit_e = const("commit_e")
    commit_t = const("commit_t")
    restore_e = const("restore_e")
    restore_t = const("restore_t")
    safe = const("safe_j")
    compute = const("compute_j")
    backup_th = const("backup_j")
    wt = const("work_target_j")
    t_limit = const("t_limit")
    rw = const("rw")
    resume_e = const("resume_e")
    resume_after = const("resume_after")
    e_max = np.array([lane.spec.e_max_j for lane in lanes])
    sleep = np.array([lane.spec.sleep_drain_w for lane in lanes])
    period = np.array([lane.spec.trace.period_s for lane in lanes])
    uses_safe = np.array(
        [lane.spec.profile.uses_safe_zone for lane in lanes], dtype=bool
    )
    window_pos = const("window_pos").astype(bool)
    infeasible = const("infeasible").astype(bool)
    # The scalar loop evaluates `work_target_j - eps` and `safe_j + eps`
    # afresh each iteration; the operands never change, so the sums are
    # hoisted without changing a single comparison.
    wt_eps = wt - 1e-18
    safe_eps = safe + 1e-18

    t = const("t")
    e = const("e")
    work = const("work")
    committed = const("committed")
    total_e = const("total_energy")
    active_t = const("active_time")
    reexec = const("reexec_energy")
    mode = np.array([lane.mode for lane in lanes], dtype=np.int64)
    n_dips = const("n_dips").astype(np.int64)
    n_backups = const("n_backups").astype(np.int64)
    n_restores = const("n_restores").astype(np.int64)
    n_safe = const("n_safe_recoveries").astype(np.int64)

    live = np.arange(n)
    alive = n
    ar_full = np.arange(n)
    #: Previous iteration's segment index per row; each iteration
    #: verifies the cached guess (or its successor) with the exact
    #: comparisons HarvestTrace._index_at performs before falling back
    #: to the full count — the same fast path the scalar trace keeps in
    #: ``_last_idx``.
    prev_idx = np.zeros(n, dtype=np.int64)

    def write_back(r: int) -> None:
        """Flush one row's vector state into its lane's scalar state."""
        lane = lanes[int(live[r])]
        lane.t = float(t[r])
        lane.e = float(e[r])
        lane.work = float(work[r])
        lane.committed = float(committed[r])
        lane.mode = int(mode[r])
        lane.total_energy = float(total_e[r])
        lane.active_time = float(active_t[r])
        lane.reexec_energy = float(reexec[r])
        lane.n_dips = int(n_dips[r])
        lane.n_backups = int(n_backups[r])
        lane.n_restores = int(n_restores[r])
        lane.n_safe_recoveries = int(n_safe[r])

    def retire(r: int) -> None:
        """Turn a finished/failed row into an inert sentinel."""
        nonlocal alive
        write_back(r)
        mode[r] = 3
        work[r] = -np.inf
        t_limit[r] = np.inf
        alive -= 1

    # Lanes whose macro task is trivially already met (work target at or
    # below eps) never enter the scalar loop at all.
    for r in np.nonzero(work >= wt_eps)[0]:
        retire(int(r))

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            rows = live.shape[0]
            if alive <= tail_lanes:
                for r in np.nonzero(mode != 3)[0]:
                    write_back(int(r))
                return
            if alive * 2 <= rows:
                keep = mode != 3
                (live, t, e, work, committed, total_e, active_t, reexec,
                 p_active, commit_e, commit_t, restore_e, restore_t,
                 safe, compute, backup_th, wt, t_limit, rw, resume_e,
                 resume_after, e_max, sleep, period, wt_eps, safe_eps,
                 mode, uses_safe, window_pos, infeasible,
                 n_dips, n_backups, n_restores, n_safe,
                 starts_m, powers_m, durs_m, prev_idx,
                 ) = (
                    arr[keep]
                    for arr in (
                        live, t, e, work, committed, total_e, active_t,
                        reexec, p_active, commit_e, commit_t, restore_e,
                        restore_t, safe, compute, backup_th, wt, t_limit,
                        rw, resume_e, resume_after, e_max, sleep, period,
                        wt_eps, safe_eps, mode, uses_safe, window_pos,
                        infeasible, n_dips, n_backups, n_restores,
                        n_safe, starts_m, powers_m, durs_m, prev_idx,
                    )
                )
                rows = live.shape[0]

            # Loop head: the time-limit check, then the segment lookup —
            # identical tolerance semantics to HarvestTrace.segment_at.
            over = t > t_limit
            if over.any():
                for r in np.nonzero(over)[0]:
                    r = int(r)
                    write_back(r)
                    failures[int(live[r])] = lanes[int(live[r])].too_weak_error()
                    mode[r] = 3
                    work[r] = -np.inf
                    t_limit[r] = np.inf
                    alive -= 1
                continue
            local = np.fmod(t, period)
            q = local + 1e-15
            ar = ar_full[:rows]
            # Verified incremental lookup: a row's index either stays,
            # advances by one segment, or (rarely) wraps — try the first
            # two with the exact `starts <= local + tol` comparisons and
            # count from scratch only for the leftovers.  Every accepted
            # guess satisfies the same predicate the full count decides
            # by, so the result is identical.
            s1 = starts_m[ar, prev_idx + 1]
            ok_same = (starts_m[ar, prev_idx] <= q) & (s1 > q)
            ok_next = (s1 <= q) & (starts_m[ar, prev_idx + 2] > q)
            idx = np.where(ok_next, prev_idx + 1, prev_idx)
            ok = ok_same | ok_next
            if not ok.all():
                miss = np.nonzero(~ok)[0]
                idx[miss] = (
                    starts_m[miss] <= q[miss, None]
                ).sum(axis=1) - 1
            prev_idx = idx
            p_in = powers_m[ar, idx]
            seg_rem = np.maximum(
                starts_m[ar, idx] + durs_m[ar, idx] - local, 1e-15
            )

            counts = np.bincount(mode, minlength=4)
            m_act = mode == 0
            m_dip = mode == 1
            m_chg = mode == 2
            bkp = None
            done_any = False

            if counts[0]:
                p_net = p_in - p_active
                wr = (wt - work) / p_active
                neg = p_net < 0.0
                t_dep = np.maximum(0.0, e - safe) / (-p_net)
                dt = np.minimum(seg_rem, wr)
                dt = np.where(neg, np.minimum(dt, t_dep), dt)
                dt = np.where(m_act, dt, 0.0)
                pd = p_net * dt
                e_act = np.where(neg, e + pd, np.minimum(e + pd, e_max))
                e = np.where(m_act, e_act, e)
                padt = p_active * dt
                work = work + padt
                total_e = total_e + padt
                active_t = active_t + dt
                t = t + dt
                done = work >= wt_eps
                done_any = bool(done.any())
                dip_enter = m_act & ~done & (e <= safe_eps)
                if dip_enter.any():
                    n_dips = n_dips + dip_enter
                    to_safe = dip_enter & uses_safe
                    mode = np.where(to_safe, 1, mode)
                    bkp = dip_enter & ~uses_safe

            if counts[1]:
                p_net = p_in - sleep
                rec = m_dip & (p_net > 0.0)
                t_rec = (compute - e) / p_net
                rec_hit = rec & (t_rec <= seg_rem)
                wait_hit = rec & ~rec_hit
                t_dec = np.where(
                    p_net < 0.0, (e - backup_th) / (-p_net), np.inf
                )
                dec_hit = m_dip & ~rec & (t_dec <= seg_rem)
                drift_hit = m_dip & ~rec & ~dec_hit
                dt = np.where(rec_hit, t_rec, seg_rem)
                dt = np.where(dec_hit, t_dec, dt)
                dt = np.where(m_dip, dt, 0.0)
                t = t + dt
                e_dip = e + p_net * dt
                e_dip = np.where(
                    wait_hit, np.minimum(e_dip, e_max), e_dip
                )
                e_dip = np.where(rec_hit, compute, e_dip)
                e_dip = np.where(dec_hit, backup_th, e_dip)
                e = np.where(m_dip, e_dip, e)
                if rec_hit.any():
                    n_safe = n_safe + rec_hit
                    mode = np.where(rec_hit, 0, mode)
                bkp = dec_hit if bkp is None else (bkp | dec_hit)
                del drift_hit  # drift rows are covered by dt/e_dip above

            if bkp is not None and bkp.any():
                n_backups = n_backups + bkp
                total_e = total_e + np.where(bkp, commit_e, 0.0)
                active_t = active_t + np.where(bkp, commit_t, 0.0)
                e = np.where(bkp, np.maximum(e - commit_e, 0.0), e)
                committed = np.where(
                    bkp,
                    np.where(
                        window_pos,
                        np.maximum(0.0, work - rw),
                        work,
                    ),
                    committed,
                )
                mode = np.where(bkp, 2, mode)

            if counts[2]:
                powered = m_chg & (p_in > 0.0)
                bad = powered & infeasible
                if bad.any():
                    for r in np.nonzero(bad)[0]:
                        r = int(r)
                        write_back(r)
                        failures[int(live[r])] = (
                            lanes[int(live[r])].restore_error()
                        )
                        mode[r] = 3
                        work[r] = -np.inf
                        t_limit[r] = np.inf
                        alive -= 1
                    powered = powered & ~bad
                    m_chg = m_chg & ~bad
                t_res = (resume_e - e) / p_in
                res_hit = powered & (t_res <= seg_rem)
                trickle = powered & ~res_hit
                dt = np.where(res_hit, t_res, seg_rem)
                dt = np.where(m_chg, dt, 0.0)
                t = t + dt
                e_base = np.where(
                    trickle,
                    np.minimum(e + p_in * dt, e_max),
                    e,
                )
                e = np.where(res_hit, resume_after, e_base)
                if res_hit.any():
                    n_restores = n_restores + res_hit
                    total_e = total_e + np.where(res_hit, restore_e, 0.0)
                    active_t = active_t + np.where(res_hit, restore_t, 0.0)
                    reexec = reexec + np.where(
                        res_hit, work - committed, 0.0
                    )
                    work = np.where(res_hit, committed, work)
                    mode = np.where(res_hit, 0, mode)

            if done_any:
                for r in np.nonzero(work >= wt_eps)[0]:
                    retire(int(r))


def _run_lanes_vectorized(
    lanes: list[_LaneState], tail_lanes: int
) -> list[ExecutionResult | TraceTooWeakError]:
    """Vector kernel + straggler finish over prepared lane states."""
    failures: dict[int, TraceTooWeakError] = {}
    _run_vector(lanes, failures, tail_lanes)
    outcomes: list[ExecutionResult | TraceTooWeakError] = []
    for i, lane in enumerate(lanes):
        if i in failures:
            outcomes.append(failures[i])
            continue
        eps = 1e-18
        if lane.work >= lane.work_target_j - eps:
            outcomes.append(lane.result())
            continue
        try:
            outcomes.append(_finish_lane(lane))
        except TraceTooWeakError as error:
            outcomes.append(error)
    return outcomes


def run_batch(
    specs: Sequence[LaneSpec],
    return_exceptions: bool = False,
    min_vector_lanes: int | None = None,
    tail_lanes: int | None = None,
) -> list[ExecutionResult | TraceTooWeakError]:
    """Execute every lane of ``specs``; results in lane order.

    Uses the NumPy lockstep kernel when it is enabled, available and the
    batch is at least ``min_vector_lanes`` wide; otherwise runs the
    scalar oracle per lane.  Either way the per-lane outcomes are
    bit-identical.

    Args:
        specs: the lanes to execute.
        return_exceptions: return per-lane
            :class:`~repro.sim.intermittent.TraceTooWeakError` instances
            in place of results instead of raising.  When False the
            error of the *first* failing lane (in lane order) is raised,
            exactly like a sequential loop over scalar executors.
        min_vector_lanes: vector-kernel width floor override
            (:data:`MIN_VECTOR_LANES` when omitted).
        tail_lanes: straggler-detach threshold override; when omitted,
            the larger of :data:`TAIL_LANES` and an eighth of the batch.
    """
    floor = MIN_VECTOR_LANES if min_vector_lanes is None else min_vector_lanes
    tail = (
        max(TAIL_LANES, len(specs) // 8)
        if tail_lanes is None
        else tail_lanes
    )
    use_vector = (
        batch_routing_enabled() and len(specs) >= max(2, floor)
    )
    outcomes: list[ExecutionResult | TraceTooWeakError] = []
    if use_vector:
        lanes = [_LaneState(spec) for spec in specs]
        outcomes = _run_lanes_vectorized(lanes, tail)
    else:
        for spec in specs:
            lane = _LaneState(spec)
            try:
                outcomes.append(_finish_lane(lane))
            except TraceTooWeakError as error:
                if not return_exceptions:
                    raise
                outcomes.append(error)
    if not return_exceptions:
        for outcome in outcomes:
            if isinstance(outcome, TraceTooWeakError):
                raise outcome
    return outcomes


def evaluate_jobs_batched(
    netlist,
    jobs,
    base_config=None,
    cache=None,
    plans=None,
):
    """Batch-evaluate sweep jobs for one circuit.

    The engine-facing half of the batch path: runs the synthesis front
    half (:func:`repro.dse.explorer.prepare_point`) per job through the
    shared cache, executes every prepared lane in one :func:`run_batch`,
    and assembles :class:`~repro.dse.explorer.ExplorationRecord` s.

    Args:
        netlist: the circuit every job evaluates.
        jobs: ``(key, scenario, point)`` triples (the engine's batch
            shape).
        base_config: sweep-wide synthesis defaults.
        cache: shared :class:`~repro.dse.explorer.SynthesisCache`.
        plans: the caller's batch-local plan memo
            (:data:`~repro.core.replacement.PlanMemo`).

    Returns:
        ``(records, failures)`` — ``records`` as ``(key, record)`` in
        job order, ``failures`` as ``(key, exception)`` for jobs whose
        preparation or execution raised.
    """
    from repro.dse.explorer import finish_point, prepare_point

    prepared = []
    records = []
    failures = []
    for key, scenario, point in jobs:
        try:
            prep = prepare_point(
                netlist,
                point,
                base_config=base_config,
                cache=cache,
                scenario=scenario,
                plans=plans,
            )
        except Exception as error:
            failures.append((key, error))
            continue
        prepared.append((key, prep))
    if not prepared:
        return records, failures
    outcomes = run_batch(
        [
            LaneSpec.for_environment(prep.profile, prep.environment)
            for _key, prep in prepared
        ],
        return_exceptions=True,
    )
    for (key, prep), outcome in zip(prepared, outcomes):
        if isinstance(outcome, Exception):
            failures.append((key, outcome))
        else:
            records.append((key, finish_point(prep, outcome)))
    return records, failures
