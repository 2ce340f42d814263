"""Netlist container: placed elements, named ports, JSON round-trip."""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

from ..errors import InputError, json_fields
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
        top = json_fields(doc, "netlist", {"f0_hz": "f0"}, _NETLIST_TYPES, ["f0_hz"],
                          NetworkTopologyError)
        net = cls(**top, ground=doc.get("ground", "0"), load_port=doc.get("load_port"))
        for name, pair in doc.get("ports", {}).items():
            _check(_is_nodes(pair) and len(pair) == 2, "port '{}' must be a node pair", name,
                   key=name)
            net.add_port(name, *pair)
        for entry in doc.get("elements", []):
            _check(isinstance(entry, dict), "each element must be an object", key="elements")
            name = entry.get("name")
            _check(isinstance(name, str), "each element needs a string 'name'", key="name")
            kind = entry.get("kind")
            _check(isinstance(kind, str) and kind in _SCHEMAS, "unknown element kind '{}'", kind,
                   element=name)
            comp, types, required, _ = _SCHEMAS[kind]
            values = json_fields(entry, f"element '{name}'", comp.json_keys, types, required,
                                 NetworkTopologyError, name)
            _check(_is_nodes(entry["nodes"]), "nodes of element '{}' must be a list of names",
                   name, element=name)
            try:
                component = comp(**values)
            except ValueError as exc:
                raise NetworkTopologyError(f"element '{name}': {exc}", element=name) from None
            net.add(name, component, *entry["nodes"])
        net.validate()
        return net


#: the type of each top-level netlist key but the number ``f0_hz``
_NETLIST_TYPES = {"ground": str, "ports": dict, "load_port": str, "elements": list}


def _check(cond: bool, msg: str, *values, key: str | None = None, element: str | None = None):
    """Raise NetworkTopologyError(``msg`` formatted with ``values``, naming
    the ``key`` or ``element`` at fault) unless ``cond``; formatted only when raised."""
    if not cond:
        raise NetworkTopologyError(msg.format(*values), key=key, element=element)


def _is_nodes(val) -> bool:
    return isinstance(val, list) and all([isinstance(n, str) for n in val])


def _json_schema(cls) -> tuple:
    """(class, types, required keys, [(JSON key, field, default or MISSING,
    complex-valued)]) of an element kind, from its ``json_keys`` and the
    annotation strings of its fields (elements postpones them): the types
    and required keys :func:`~dohertylab.errors.json_fields` reads it by,
    a complex field from an [re, im] pair, the ``nodes`` the netlist reads
    itself and every field without a default required."""
    by_name = {f.name: f for f in fields(cls)}
    keys = [(key, name, by_name[name].default, by_name[name].type == "complex")
            for key, name in cls.json_keys.items()]
    types = {"name": str, "kind": str, "nodes": list}
    types.update((key, complex) for key, _, _, is_complex in keys if is_complex)
    return cls, types, ["nodes", *(key for key, _, default, _ in keys if default is MISSING)], keys


#: element kind -> JSON schema, from the element descriptions
_SCHEMAS = {cls.kind: _json_schema(cls) for cls in typing.get_args(Component)}


def _element_to_json(e: Placed) -> dict:
    comp = e.component
    out = {"name": e.name, "nodes": list(e.nodes), "kind": comp.kind}
    for key, name, default, is_complex in _SCHEMAS[comp.kind][3]:
        val = getattr(comp, name)
        if val != default:
            out[key] = [val.real, val.imag] if is_complex else val
    return out
