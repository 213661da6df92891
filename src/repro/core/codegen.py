"""Code generator and timing validation — paper Fig. 1, steps 6–7.

"After traversing all the levels and inserting NVMs, the NV-enhanced tree
will be formed.  Finally, the generated code undergoes validation checks
for possible timing violations.  To do so, this optimized tree will first
be converted to an HDL code and submitted to the commercial tool."

Our surrogate emits gate-level structural Verilog for the NV-enhanced
design, annotates every NVM barrier with a ``DIAC`` pragma comment listing
the nets its array latches, and performs the timing validation: the
achievable clock period is the registered critical path (stretched by the
scheme's flip-flop penalty, if any) and a violation is reported whenever a
target period cannot be met.  The emitted HDL round-trips through the
structural Verilog parser, which the pipeline uses as its "commercial tool
accepted the netlist" check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.verilog import parse_verilog, write_verilog
from repro.core.replacement import NvmPlan


@dataclass
class TimingReport:
    """Timing validation outcome (paper step 7).

    Attributes:
        achievable_period_s: smallest clock period the design can run at.
        target_period_s: requested period, or None when unconstrained.
        commit_latency_s: worst-case NVM commit latency (must fit in the
            backup reserve window, not in a clock period).
        violations: human-readable violation messages (empty = clean).
    """

    achievable_period_s: float
    target_period_s: float | None
    commit_latency_s: float
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether the design met all timing constraints."""
        return not self.violations


@dataclass
class GeneratedCode:
    """The DIAC code generator's output bundle.

    Attributes:
        verilog: structural Verilog of the NV-enhanced design.
        barrier_pragmas: barrier node id -> nets committed by its array.
        timing: the step-7 timing validation report.
    """

    verilog: str
    barrier_pragmas: dict[str, tuple[str, ...]]
    timing: TimingReport
    _roundtrip_ok: bool = field(default=False, repr=False, compare=False)

    def roundtrip_check(self) -> None:
        """Re-parse the emitted Verilog and verify it is well formed.

        Parses once per instance: a passed check is remembered, so the
        points sharing one memoized plan pay for a single parse.

        Raises:
            VerilogError / NetlistError: if the emitted HDL is malformed.
        """
        if not self._roundtrip_ok:
            parse_verilog(self.verilog).validate()
            self._roundtrip_ok = True


def generate_code(
    plan: NvmPlan,
    target_period_s: float | None = None,
    ff_delay_overhead: float = 0.0,
) -> GeneratedCode:
    """Emit HDL for an NV-enhanced plan and validate timing.

    Args:
        plan: the replacement procedure's output.
        target_period_s: optional clock-period constraint to check.
        ff_delay_overhead: relative registered-path penalty of the state
            elements (0.0 for DIAC's plain CMOS flip-flops; the NV-FF and
            LE-FF baselines pass their penalties here).

    Returns:
        A :class:`GeneratedCode` with the Verilog text, barrier pragma
        table, and timing report — cached on ``plan`` per
        ``(target_period_s, ff_delay_overhead)``, so every point sharing
        a memoized plan shares one bundle (and so one round-trip parse).
    """
    key = (target_period_s, ff_delay_overhead)
    code = plan._codes.get(key)
    if code is None:
        code = _emit(plan, target_period_s, ff_delay_overhead)
        plan._codes[key] = code
    return code


def _emit(
    plan: NvmPlan, target_period_s: float | None, ff_delay_overhead: float
) -> GeneratedCode:
    """Build the :func:`generate_code` bundle (always anew)."""
    graph = plan.graph
    netlist = graph.netlist
    base_verilog = write_verilog(netlist)

    pragmas: dict[str, tuple[str, ...]] = {}
    lines = ["// Generated by the DIAC reproduction code generator."]
    lines.append(f"// design: {netlist.name}")
    lines.append(f"// nvm technology: {plan.technology.name}")
    lines.append(f"// barriers: {plan.n_barriers}")
    for barrier_id in plan.barriers:
        node = graph.nodes[barrier_id]
        nets = tuple(sorted(graph.output_nets(node)))
        pragmas[barrier_id] = nets
        lines.append(
            f"// DIAC pragma barrier {barrier_id} bits={node.barrier_bits} "
            f"nets={','.join(nets)}"
        )
    verilog = "\n".join(lines) + "\n" + base_verilog

    achievable = graph.report.critical_path_s * (1.0 + ff_delay_overhead)
    array = plan.backup_array()
    commit_latency = array.write_cost(plan.max_commit_bits).latency_s
    violations: list[str] = []
    if target_period_s is not None and achievable > target_period_s:
        violations.append(
            f"registered critical path {achievable * 1e9:.3f} ns exceeds "
            f"target period {target_period_s * 1e9:.3f} ns"
        )
    for node_id in plan.infeasible:
        violations.append(
            f"node {node_id!r} exceeds the energy budget on its own; "
            "re-run the policy stage with a smaller split threshold"
        )
    timing = TimingReport(
        achievable_period_s=achievable,
        target_period_s=target_period_s,
        commit_latency_s=commit_latency,
        violations=violations,
    )
    return GeneratedCode(verilog=verilog, barrier_pragmas=pragmas, timing=timing)
