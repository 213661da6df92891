"""Gate-level netlist container.

This is the substrate the paper's tree-based representation (Section
III-A) is built over: :func:`repro.core.tree_generator.build_task_graph`
partitions a netlist's gates into the task tree DIAC manipulates.

A :class:`Netlist` is a named collection of :class:`Gate` objects using the
ISCAS-89 convention that every gate drives a single net named after the
gate.  Primary inputs are gates of type ``INPUT``; primary outputs are a
list of net names.  Sequential circuits use ``DFF`` gates, whose outputs act
as sources and whose inputs act as sinks for combinational analysis.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from repro.circuits.gates import (
    COMBINATIONAL_TYPES,
    SEQUENTIAL_TYPES,
    SOURCE_TYPES,
    GateType,
    check_arity,
)

#: Topological-order caching switch (see
#: :meth:`Netlist.topological_order`).  The perf harness flips this off
#: to time the uncached baseline; the order is identical either way.
_CACHE_TOPO_ORDER = True


@contextmanager
def topo_order_cache_disabled() -> Iterator[None]:
    """Temporarily disable :meth:`Netlist.topological_order` caching."""
    global _CACHE_TOPO_ORDER
    previous = _CACHE_TOPO_ORDER
    _CACHE_TOPO_ORDER = False
    try:
        yield
    finally:
        _CACHE_TOPO_ORDER = previous


class NetlistError(ValueError):
    """Raised for structurally invalid netlists."""


@dataclass(frozen=True)
class Gate:
    """A single cell instance.

    Attributes:
        name: net driven by this gate (unique within the netlist).
        gtype: primitive type of the cell.
        inputs: names of the nets feeding this gate, in order.
    """

    name: str
    gtype: GateType
    inputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_arity(self.gtype, len(self.inputs))

    # cached_property, not property: these predicates run in every hot
    # walk of every netlist consumer, and each uncached call re-hashes
    # the enum member against a frozenset.  Gates are frozen, so the
    # first answer is the answer (cached_property writes the instance
    # __dict__ directly, which a frozen dataclass permits).

    @cached_property
    def is_sequential(self) -> bool:
        """Whether this cell holds state (a flip-flop)."""
        return self.gtype in SEQUENTIAL_TYPES

    @cached_property
    def is_source(self) -> bool:
        """Whether this cell has no fan-in (primary input or constant)."""
        return self.gtype in SOURCE_TYPES

    @cached_property
    def is_combinational(self) -> bool:
        """Whether this cell computes a boolean function within a cycle."""
        return self.gtype in COMBINATIONAL_TYPES


@dataclass
class Netlist:
    """A gate-level circuit.

    Attributes:
        name: circuit name (e.g. ``"s27"``).
        gates: mapping from net name to the gate driving it.
        outputs: primary-output net names, in declaration order.
    """

    name: str
    gates: dict[str, Gate] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    # -- construction -------------------------------------------------------

    def add_gate(self, name: str, gtype: GateType, inputs: Iterable[str] = ()) -> Gate:
        """Add a gate driving net ``name``; returns the created gate.

        Raises:
            NetlistError: if a gate already drives ``name``.
        """
        if name in self.gates:
            raise NetlistError(f"net {name!r} already driven in {self.name!r}")
        gate = Gate(name=name, gtype=gtype, inputs=tuple(inputs))
        self.gates[name] = gate
        return gate

    def add_input(self, name: str) -> Gate:
        """Declare a primary input net."""
        return self.add_gate(name, GateType.INPUT)

    def add_output(self, name: str) -> None:
        """Declare a primary output net (may be declared before its driver)."""
        if name in self.outputs:
            raise NetlistError(f"output {name!r} declared twice in {self.name!r}")
        self.outputs.append(name)

    # -- views --------------------------------------------------------------

    @property
    def inputs(self) -> list[str]:
        """Primary-input net names, in insertion order."""
        return [g.name for g in self.gates.values() if g.gtype is GateType.INPUT]

    @property
    def flip_flops(self) -> list[Gate]:
        """All sequential cells, in insertion order."""
        return [g for g in self.gates.values() if g.is_sequential]

    @property
    def logic_gates(self) -> list[Gate]:
        """All combinational cells, in insertion order."""
        return [g for g in self.gates.values() if g.is_combinational]

    def logic_gate_names(self) -> frozenset[str]:
        """Names of the combinational cells (cached, growth-aware as in
        :meth:`topological_order`); the task-graph partition check
        compares every graph's gate ownership against this set."""
        cached = self.__dict__.get("_logic_cache")
        if (
            cached is not None
            and cached[0] is self.gates
            and cached[1] == len(self.gates)
        ):
            return cached[2]
        names = frozenset(g.name for g in self.logic_gates)
        self.__dict__["_logic_cache"] = (self.gates, len(self.gates), names)
        return names

    @property
    def num_gates(self) -> int:
        """Number of combinational gates (the paper's '# Gates' metric)."""
        return len(self.logic_gates)

    @property
    def num_ffs(self) -> int:
        """Number of flip-flops."""
        return len(self.flip_flops)

    def __len__(self) -> int:
        return len(self.gates)

    def __getstate__(self) -> dict[str, object]:
        """Pickle without the derived caches.

        The fanout cache holds a (non-picklable) mapping proxy, and
        no cache is worth shipping to sweep worker processes —
        each side rebuilds on first use.
        """
        state = self.__dict__.copy()
        state.pop("_topo_cache", None)
        state.pop("_fanout_cache", None)
        state.pop("_logic_cache", None)
        return state

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates.values())

    def __contains__(self, net: str) -> bool:
        return net in self.gates

    def driver(self, net: str) -> Gate:
        """Return the gate driving ``net``.

        Raises:
            NetlistError: if no gate drives ``net``.
        """
        try:
            return self.gates[net]
        except KeyError as exc:
            raise NetlistError(f"net {net!r} has no driver in {self.name!r}") from exc

    def fanout_map(self) -> Mapping[str, tuple[str, ...]]:
        """Map each net to the names of the gates it feeds.

        Primary outputs do not appear as consumers; use :attr:`outputs`.
        The map is cached and shared between callers, so it is returned
        read-only (a mapping proxy over tuples) — an accidental
        ``append`` or key assignment fails loudly instead of silently
        poisoning every later reader.  Invalidation is growth-aware, as
        in :meth:`topological_order`.
        """
        cached = self.__dict__.get("_fanout_cache")
        if (
            _CACHE_TOPO_ORDER
            and cached is not None
            and cached[0] is self.gates
            and cached[1] == len(self.gates)
        ):
            return cached[2]
        building: dict[str, list[str]] = {net: [] for net in self.gates}
        for gate in self.gates.values():
            for src in gate.inputs:
                if src in building:
                    building[src].append(gate.name)
        fanout = MappingProxyType(
            {net: tuple(names) for net, names in building.items()}
        )
        if _CACHE_TOPO_ORDER:
            self.__dict__["_fanout_cache"] = (
                self.gates, len(self.gates), fanout
            )
        return fanout

    def fanout_count(self, net: str) -> int:
        """Number of gate inputs plus primary outputs fed by ``net``."""
        count = sum(1 for g in self.gates.values() for src in g.inputs if src == net)
        count += self.outputs.count(net)
        return count

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity.

        Ensures every referenced net has a driver, every output is driven,
        and the combinational core is acyclic (cycles must pass through a
        DFF).

        Raises:
            NetlistError: on the first violation found.
        """
        for gate in self.gates.values():
            for src in gate.inputs:
                if src not in self.gates:
                    raise NetlistError(
                        f"gate {gate.name!r} reads undriven net {src!r}"
                    )
        for out in self.outputs:
            if out not in self.gates:
                raise NetlistError(f"primary output {out!r} is undriven")
        self.topological_order()  # raises on combinational cycles

    def topological_order(self) -> list[Gate]:
        """Topologically sort the combinational core.

        Sources (primary inputs, constants, and DFF outputs) come first;
        DFF *inputs* are treated as sinks so sequential loops are legal.
        The order is cached; growing the netlist (``add_gate``) or
        replacing the ``gates`` mapping invalidates the cache
        automatically (nothing in the repo mutates an existing entry in
        place — transforms build fresh netlists).

        Returns:
            Gates in evaluation order (sources included, DFFs last).

        Raises:
            NetlistError: if a purely combinational cycle exists.
        """
        cached = self.__dict__.get("_topo_cache")
        if (
            _CACHE_TOPO_ORDER
            and cached is not None
            and cached[0] is self.gates
            and cached[1] == len(self.gates)
        ):
            return list(cached[2])
        order: list[Gate] = []
        # Combinational in-degree: a DFF contributes no combinational edge
        # from its input; its *output* is a source.
        indegree: dict[str, int] = {}
        consumers: dict[str, list[str]] = {net: [] for net in self.gates}
        for gate in self.gates.values():
            if gate.is_source or gate.is_sequential:
                indegree[gate.name] = 0
                continue
            indegree[gate.name] = len(gate.inputs)
            for src in gate.inputs:
                consumers.setdefault(src, []).append(gate.name)
        ready = [net for net, deg in indegree.items() if deg == 0]
        seen = 0
        while ready:
            net = ready.pop()
            order.append(self.gates[net])
            seen += 1
            for consumer in consumers.get(net, ()):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if seen != len(self.gates):
            stuck = sorted(net for net, deg in indegree.items() if deg > 0)
            raise NetlistError(
                f"combinational cycle in {self.name!r} involving {stuck[:8]}"
            )
        # Stable presentation: sources, then logic in dependency order, then
        # re-emit DFFs at the end (they were emitted as sources already).
        if _CACHE_TOPO_ORDER:
            self.__dict__["_topo_cache"] = (
                self.gates, len(self.gates), order
            )
        return list(order)

    # -- transforms ---------------------------------------------------------

    def copy(self, name: str | None = None) -> "Netlist":
        """Deep-enough copy (gates are immutable) under an optional new name."""
        clone = Netlist(name=name or self.name)
        clone.gates = dict(self.gates)
        clone.outputs = list(self.outputs)
        return clone

    def renamed(self, mapping: Mapping[str, str], name: str | None = None) -> "Netlist":
        """Return a copy with nets renamed through ``mapping``.

        Nets absent from ``mapping`` keep their names.
        """
        def ren(net: str) -> str:
            return mapping.get(net, net)

        clone = Netlist(name=name or self.name)
        for gate in self.gates.values():
            clone.add_gate(ren(gate.name), gate.gtype, [ren(i) for i in gate.inputs])
        clone.outputs = [ren(o) for o in self.outputs]
        return clone

    def stats(self) -> dict[str, int]:
        """Summary counts used throughout the reproduction."""
        per_type: dict[str, int] = {}
        for gate in self.gates.values():
            per_type[gate.gtype.value] = per_type.get(gate.gtype.value, 0) + 1
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.num_gates,
            "ffs": self.num_ffs,
            **{f"n_{k.lower()}": v for k, v in sorted(per_type.items())},
        }
