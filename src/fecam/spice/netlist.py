"""Circuit container and element base class for the MNA engine.

A :class:`Circuit` is a flat netlist: a set of named nodes and a list of
:class:`Element` instances.  Ground is the node named ``"0"`` (the alias
``"gnd"`` is accepted and normalized).  Hierarchy is expressed with plain
Python builder functions that prefix element and node names; the engine
itself stays flat, which keeps the matrix assembly simple and debuggable.

Sign conventions (shared with :mod:`fecam.spice.analysis`):

* The residual ``F[k]`` of node ``k`` is the sum of currents *leaving* the
  node through all connected elements.  KCL demands ``F[k] == 0``.
* A voltage source's branch current flows from its ``pos`` terminal through
  the source to its ``neg`` terminal (SPICE convention), so a positive
  branch current *leaves* ``pos``.
* Energy delivered by a source is ``∫ v(t)·i(t) dt`` with that current sign,
  i.e. positive when the source injects energy into the circuit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import NetlistError

GROUND_NAMES = ("0", "gnd", "GND", "vss!", "ground")

#: Row kinds of the compiled stamp table; must match the ``MNA_*`` enum in
#: ``fecam/kernels/_kernel.c``.
REC_RES, REC_CAP, REC_VSRC, REC_MOS, REC_FET, REC_POL = range(1, 7)

#: One compiled-table row: (kind, unknown indices, parameters, state slot).
StampRow = Tuple[int, Sequence[int], Sequence[float], int]


def canonical_node(name: str) -> str:
    """Normalize a node name; all ground aliases collapse to ``"0"``."""
    if not isinstance(name, str) or not name:
        raise NetlistError(f"invalid node name: {name!r}")
    if name in GROUND_NAMES:
        return "0"
    return name


class Element:
    """Base class for all circuit elements.

    Subclasses declare their terminal node names in ``terminals`` and
    implement :meth:`stamp`.  Elements with internal state (capacitor charge,
    ferroelectric polarization) additionally override :meth:`init_state` and
    :meth:`commit`.
    """

    #: Number of extra MNA branch-current unknowns this element needs
    #: (1 for voltage sources, 0 for everything else).
    num_branches = 0

    def __init__(self, name: str, terminals: Sequence[str]):
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = name
        self.terminals: Tuple[str, ...] = tuple(canonical_node(t) for t in terminals)
        # Global indices are resolved by the analysis; -1 marks ground.
        self._node_index: Tuple[int, ...] = ()
        self._branch_index: Tuple[int, ...] = ()

    # -- lifecycle hooks -----------------------------------------------------

    def bind(self, node_index: Sequence[int], branch_index: Sequence[int]) -> None:
        """Record the global unknown indices assigned by the analysis."""
        self._node_index = tuple(node_index)
        self._branch_index = tuple(branch_index)

    def init_state(self, v: "TerminalVoltages") -> None:
        """Initialize internal state from a converged DC solution."""

    def stamp(self, ctx, v: "TerminalVoltages") -> None:
        """Add this element's contribution to the Jacobian and residual.

        ``ctx`` is a :class:`fecam.spice.analysis.StampContext`; ``v`` gives
        the current Newton iterate's terminal voltages (and branch currents).
        """
        raise NotImplementedError

    def commit(self, v: "TerminalVoltages") -> None:
        """Accept internal state at the end of a converged timestep."""

    def record(self) -> Optional[Tuple[List[StampRow], Sequence[float]]]:
        """This element as rows of the compiled stamp table, or None.

        Returns ``(rows, state)``.  Each row is ``(kind, indices, params,
        slot)``: a ``REC_*`` kind, up to four bound unknown indices (-1 is
        ground), the parameters in the order the C kernel reads them, and
        the index into ``state`` of the row's integration state (-1 for
        none).  ``state`` is the element's current state; the analysis
        hands the evolved values back through :meth:`load_state`.  The
        rows must make the kernel add exactly what :meth:`stamp` adds, in
        the same order.  None (the default) keeps the circuit on the
        per-element :meth:`stamp` path.
        """
        return None

    def load_state(self, state: Sequence[float]) -> None:
        """Adopt the state a compiled transient evolved (see :meth:`record`)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} {self.terminals}>"


class TerminalVoltages:
    """View of an element's terminal voltages within the global solution.

    Provides ``v[i]`` for terminal ``i`` (0.0 for ground) and
    ``branch(i)`` for the element's i-th branch current.
    """

    __slots__ = ("_x", "_nodes", "_branches")

    def __init__(self, x, node_index: Sequence[int], branch_index: Sequence[int]):
        self._x = x
        self._nodes = node_index
        self._branches = branch_index

    def __getitem__(self, i: int) -> float:
        k = self._nodes[i]
        return 0.0 if k < 0 else float(self._x[k])

    def branch(self, i: int = 0) -> float:
        return float(self._x[self._branches[i]])


class Circuit:
    """A flat netlist of named nodes and elements.

    Nodes are created implicitly the first time an element references them;
    :meth:`node` may also be called explicitly for documentation value.
    Element names must be unique — builder functions should prefix them.
    """

    def __init__(self, title: str = ""):
        self.title = title
        self._elements: List[Element] = []
        self._element_names: Dict[str, Element] = {}
        self._nodes: Dict[str, int] = {}

    # -- construction ----------------------------------------------------------

    def node(self, name: str) -> str:
        """Declare (or re-reference) a node and return its canonical name."""
        cname = canonical_node(name)
        if cname != "0" and cname not in self._nodes:
            self._nodes[cname] = len(self._nodes)
        return cname

    def add(self, element: Element) -> Element:
        """Add an element, registering its terminals as nodes."""
        if element.name in self._element_names:
            raise NetlistError(f"duplicate element name: {element.name}")
        for terminal in element.terminals:
            self.node(terminal)
        self._elements.append(element)
        self._element_names[element.name] = element
        return element

    def extend(self, elements: Iterable[Element]) -> None:
        for element in elements:
            self.add(element)

    # -- queries ---------------------------------------------------------------

    @property
    def elements(self) -> Tuple[Element, ...]:
        return tuple(self._elements)

    @property
    def node_names(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._nodes)

    def element(self, name: str) -> Element:
        try:
            return self._element_names[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def has_element(self, name: str) -> bool:
        return name in self._element_names

    def node_index(self, name: str) -> int:
        """Global unknown index of a node (-1 for ground)."""
        cname = canonical_node(name)
        if cname == "0":
            return -1
        try:
            return self._nodes[cname]
        except KeyError:
            raise NetlistError(f"no node named {name!r}") from None

    def elements_of_type(self, cls) -> List[Element]:
        return [e for e in self._elements if isinstance(e, cls)]

    def __contains__(self, node_name: str) -> bool:
        return canonical_node(node_name) == "0" or canonical_node(node_name) in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Circuit {self.title!r}: {self.num_nodes} nodes, "
                f"{len(self._elements)} elements>")

    def summary(self) -> str:
        """Human-readable netlist listing, useful in error reports."""
        lines = [f"* {self.title}" if self.title else "* (untitled circuit)"]
        for e in self._elements:
            lines.append(f"{type(e).__name__:<16} {e.name:<20} {' '.join(e.terminals)}")
        return "\n".join(lines)
