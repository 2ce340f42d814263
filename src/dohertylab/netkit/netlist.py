"""Netlist container: placed elements, named ports, JSON round-trip."""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

from ..errors import InputError
from .elements import Component, Resistor

__all__ = ["Placed", "Netlist", "NetworkTopologyError"]


class NetworkTopologyError(InputError):
    """Raised when a netlist is structurally unsound (floating nodes,
    missing port nodes, duplicate element names) or its JSON is malformed;
    ``key``, ``element`` and ``node`` name what is at fault."""


@dataclass(frozen=True)
class Placed:
    """A component placed in a netlist under ``name`` on ``nodes``."""

    name: str
    component: Component
    nodes: tuple[str, ...]

    def __post_init__(self):
        want = self.component.terminals
        if len(self.nodes) != want:
            raise NetworkTopologyError(
                f"{type(self.component).__name__} '{self.name}' needs {want} nodes, "
                f"got {len(self.nodes)}",
                element=self.name,
            )


@dataclass
class Netlist:
    """Multiport linear AC circuit.

    Ports are (plus, minus) node pairs; the minus node defaults to ground.
    ``load_port`` marks the port whose resistive termination counts as the
    delivered-power destination in solver results.
    """

    f0: float
    ground: str = "0"
    elements: list[Placed] = field(default_factory=list)
    ports: dict[str, tuple[str, str]] = field(default_factory=dict)
    load_port: str | None = None

    def add(self, name: str, component: Component, *nodes: str) -> Placed:
        for e in self.elements:
            if e.name == name:
                raise NetworkTopologyError(f"duplicate element name '{name}'", element=name)
        placed = Placed(name, component, tuple(nodes))
        self.elements.append(placed)
        return placed

    def add_port(self, name: str, plus: str, minus: str | None = None) -> None:
        self.ports[name] = (plus, minus if minus is not None else self.ground)

    def copy(self) -> "Netlist":
        return replace(self, elements=list(self.elements), ports=dict(self.ports))

    def terminated(self, ports, ohms: float) -> "Netlist":
        """Copy with a resistor of ``ohms`` across each of ``ports``, appended in their order."""
        work = self.copy()
        for p in ports:
            work.add(f"__term_{p}", Resistor(ohms), *self.ports[p])
        return work

    def load_terminations(self) -> list[Placed]:
        """Resistors sitting directly across the designated load port."""
        if self.load_port is None:
            return []
        plus, minus = self.ports[self.load_port]
        return [
            e for e in self.elements if e.component.resistive and set(e.nodes) == {plus, minus}
        ]

    def validate(self) -> list[str]:
        """Check structural invariants and return every node name of the
        elements and ports, ground excluded, in sorted order: the
        numbering of the MNA node voltages.  Raises NetworkTopologyError."""
        if not 0 < self.f0 < math.inf:
            raise NetworkTopologyError(
                f"reference frequency must be positive and finite, got {self.f0}", key="f0_hz"
            )
        if self.load_port is not None and self.load_port not in self.ports:
            raise NetworkTopologyError(f"load port '{self.load_port}' is not a port",
                                       key="load_port")

        # Every node must reach ground through the element graph, otherwise
        # its potential is undetermined and the MNA matrix is singular; a
        # port node that no element touches has no path at all.
        ground = self.ground
        adjacency: dict[str, list[str]] = {ground: []}
        for e in self.elements:
            for a, b in e.component.links(e.nodes, ground):
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
        for pair in self.ports.values():
            for n in pair:
                adjacency.setdefault(n, [])

        reached = {ground}
        stack = [ground]
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    stack.append(neighbor)
        if len(reached) < len(adjacency):
            floating = min(adjacency.keys() - reached)
            raise NetworkTopologyError(
                f"node '{floating}' has no path to ground (floating subcircuit)", node=floating
            )
        del adjacency[ground]
        return sorted(adjacency)

    # ------------------------------------------------------------------
    # JSON round-trip (schema documented in dohertylab.cli)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "f0_hz": self.f0,
            "ground": self.ground,
            "ports": {k: list(v) for k, v in self.ports.items()},
            "elements": [_element_to_json(e) for e in self.elements],
        }
        if self.load_port is not None:
            out["load_port"] = self.load_port
        return out

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Netlist":
        """Decode and check a netlist document; raises NetworkTopologyError."""
        f0 = _number(doc.get("f0_hz"))
        _check(f0 is not None, "key 'f0_hz' must be a number", key="f0_hz")
        net = cls(f0=f0, ground=str(doc.get("ground", "0")))
        ports = doc.get("ports", {})
        _check(isinstance(ports, dict), "key 'ports' must be an object", key="ports")
        for name, pair in ports.items():
            _check(_is_nodes(pair) and len(pair) == 2, "port '{}' must be a node pair", name,
                   key=name)
            net.add_port(name, *pair)
        net.load_port = load_port = doc.get("load_port")
        _check(load_port is None or isinstance(load_port, str), "key 'load_port' must be a name",
               key="load_port")
        elements = doc.get("elements", [])
        _check(isinstance(elements, list), "key 'elements' must be a list", key="elements")
        for entry in elements:
            _check(isinstance(entry, dict), "each element must be an object", key="elements")
            name = entry.get("name")
            _check(isinstance(name, str), "each element needs a string 'name'", key="name")
            nodes = entry.get("nodes")
            _check(_is_nodes(nodes), "nodes of element '{}' must be a list of names", name,
                   element=name)
            net.add(name, _component_from_json(name, entry), *nodes)
        net.validate()
        return net


def _check(cond: bool, msg: str, *values, key: str | None = None, element: str | None = None):
    """Raise NetworkTopologyError(``msg`` formatted with ``values``, naming
    the ``key`` or ``element`` at fault) unless ``cond``; formatted only when raised."""
    if not cond:
        raise NetworkTopologyError(msg.format(*values), key=key, element=element)


def _number(val) -> float | None:
    """A JSON number as a float (an integer beyond float range as inf), else None."""
    if type(val) is float:
        return val
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        return float(val)
    except OverflowError:
        return math.inf


def _is_nodes(val) -> bool:
    return isinstance(val, list) and all([isinstance(n, str) for n in val])


def _json_schema(cls) -> tuple[type, list[tuple[str, str, object, bool]]]:
    """(class, [(JSON key, field, default or MISSING, complex-valued)]), read
    from the annotation strings of the fields (elements postpones them)."""
    by_name = {f.name: f for f in fields(cls)}
    return cls, [
        (key, name, by_name[name].default, by_name[name].type == "complex")
        for key, name in cls.json_keys.items()
    ]


#: element kind -> JSON schema, from the element descriptions
_SCHEMAS = {cls.kind: _json_schema(cls) for cls in typing.get_args(Component)}


def _element_to_json(e: Placed) -> dict:
    comp = e.component
    out = {"name": e.name, "nodes": list(e.nodes), "kind": comp.kind}
    for key, name, default, is_complex in _SCHEMAS[comp.kind][1]:
        val = getattr(comp, name)
        if val != default:
            out[key] = [val.real, val.imag] if is_complex else val
    return out


def _component_from_json(name: str, entry: dict) -> Component:
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _SCHEMAS:
        raise NetworkTopologyError(f"unknown element kind '{kind}'", element=name)
    cls, keys = _SCHEMAS[kind]
    values = {}
    for key, attr, default, is_complex in keys:
        val = entry.get(key, MISSING)
        if val is MISSING:
            _check(default is not MISSING, "element '{}' needs key '{}'", name, key, element=name)
            continue
        if is_complex:
            parts = [_number(v) for v in val] if isinstance(val, list) else []
            _check(len(parts) == 2 and None not in parts,
                   "key '{}' of element '{}' must be a [re, im] pair of numbers", key, name,
                   element=name)
            values[attr] = complex(*parts)
        else:
            values[attr] = _number(val)
            _check(values[attr] is not None, "key '{}' of element '{}' must be a number", key,
                   name, element=name)
    try:
        return cls(**values)
    except ValueError as exc:
        raise NetworkTopologyError(f"element '{name}': {exc}", element=name) from None
