"""Layer tracing from outside the package.

The tracer replaces names in the modules that look them up (for example
``dohertylab.analysis.solve`` or ``numpy.linalg.solve``) with timing
wrappers, and puts the originals back on ``uninstall``.  Nothing in the
library changes.  Spans are kept in memory as aggregates: per span name
its call count, inclusive time and self time (inclusive time minus the
time of wrapped callees), and per (parent, child) edge the inclusive
time, so the layer breakdown and the call tree can be printed at the end.

Time a wrapper spends in its own bookkeeping hooks is charged to no span;
it shows up as lower ``trace.coverage``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

#: layer of each span-name prefix, named after the package modules
LAYERS = {
    "cli": "cli",
    "report": "report",
    "analysis": "analysis",
    "evm": "evm",
    "synth": "synth",
    "netlist": "netkit.netlist",
    "mna": "netkit.mna",
    "touchstone": "netkit.touchstone",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, time covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._systems: set = set()  # distinct (netlist, frequency) of the current request
        self._contents: dict = {}  # netlist object -> (netlist kept alive, content number)
        self._content_ids: dict = {}  # netlist content -> content number

    # -- span bookkeeping ------------------------------------------------

    def wrap(self, span: str, fn, hook=None):
        stack = self._stack
        calls, incl, self_s, edges = self.calls, self.incl, self.self_s, self.edges

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                calls[span] += 1
                incl[span] += dt
                self_s[span] += dt - frame[1]
                edges[(stack[-1][0] if stack else "", span)] += dt
            if hook is not None:
                hook(args, kwargs, result)
            if stack:
                stack[-1][1] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, span: str, hook=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced
        wrapper; a class method stays a class method."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(span, raw.__func__, hook))
        else:
            new = self.wrap(span, raw, hook)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def new_request(self) -> None:
        """Start a new user-level call; reuse is counted within one call."""
        self._systems = set()
        self._contents = {}
        self._content_ids = {}

    # -- hooks that count work -------------------------------------------

    def _on_assemble(self, args, kwargs, system) -> None:
        n = system.size
        self.counts["matrix_bytes"] += n * n * 16
        self.counts["unknowns_max"] = max(self.counts["unknowns_max"], n)
        net = system.netlist
        # number the content of each netlist object once per object and size
        ident = (id(net), len(net.elements))
        if ident not in self._contents:
            content = (tuple(net.elements), tuple(net.ports.items()), net.ground)
            number = self._content_ids.setdefault(content, len(self._content_ids))
            self._contents[ident] = (net, number)
        key = (self._contents[ident][1], system.freq)
        if key not in self._systems:
            self._systems.add(key)
            self.counts["distinct_systems"] += 1

    def _on_lapack(self, args, kwargs, x) -> None:
        b = args[1] if len(args) > 1 else kwargs["b"]
        self.counts["rhs_columns"] += 1 if np.ndim(b) == 1 else np.shape(b)[1]

    def _on_text(self, key: str):
        def hook(args, kwargs, text) -> None:
            self.counts[key] += len(text)

        return hook

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        mod = importlib.import_module
        analysis = mod("dohertylab.analysis")
        cli = mod("dohertylab.cli")
        evm = mod("dohertylab.evm")
        mna = mod("dohertylab.netkit.mna")
        netlist = mod("dohertylab.netkit.netlist")
        report = mod("dohertylab.report")
        synth = mod("dohertylab.synth")
        touchstone = mod("dohertylab.netkit.touchstone")

        self.patch(cli, "main", "cli.main")
        for name in ("csv_text", "json_text"):
            self.patch(report, name, f"report.{name}", self._on_text("report_bytes"))
        for name in ("load_mod_rows", "pa_sim_rows", "itr_curve_rows"):
            self.patch(report, name, f"report.{name}")
        for name in (
            "required_phase_offset",
            "drive_profile",
            "load_modulation",
            "passive_eff_vs_pbo",
            "compare_passive_eff",
            "bandwidth_report",
            "simulate_pa",
            "itr_inverter_oracle",
        ):
            self.patch(analysis, name, f"analysis.{name}")
        self.patch(evm, "evm_64qam", "evm.evm_64qam")
        for owner in (synth, cli):
            for name in ("synth_two_line", "synth_three_line", "synth_transformer_combiner"):
                self.patch(owner, name, "synth.synth")
            self.patch(owner, "to_netlist", "synth.to_netlist")
        self.patch(netlist.Netlist, "validate", "netlist.validate")
        self.patch(netlist.Netlist, "to_json_dict", "netlist.to_json_dict")
        self.patch(netlist.Netlist, "from_json_dict", "netlist.from_json_dict")
        self.patch(analysis, "solve", "mna.solve")
        for owner in (mna, touchstone):
            self.patch(owner, "assemble", "mna.assemble", self._on_assemble)
        self.patch(np.linalg, "solve", "mna.lapack", self._on_lapack)
        for owner in (touchstone, cli):
            self.patch(owner, "s_parameters", "touchstone.s_parameters")
            self.patch(owner, "write_touchstone", "touchstone.write_touchstone",
                       self._on_text("touchstone_bytes"))
        self.patch(touchstone, "read_touchstone", "touchstone.read_touchstone")
        return self

    # -- results ---------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, t in self.self_s.items():
            out[LAYERS[span.split(".")[0]]] += t
        return dict(out)

    def metrics(self, wall_s: float, untraced_s: float) -> dict[str, float]:
        """The per-layer metrics of the traced phase (seconds and counts)."""
        c, incl, slf = self.calls, self.incl, self.self_s
        assemble_calls = c["mna.assemble"]
        return {
            "synth.calls": c["synth.synth"],
            "synth.synth_s": incl["synth.synth"],
            "synth.to_netlist_s": incl["synth.to_netlist"],
            "netlist.validate_calls": c["netlist.validate"],
            "netlist.validate_s": incl["netlist.validate"],
            "netlist.json_s": incl["netlist.to_json_dict"] + incl["netlist.from_json_dict"],
            "mna.solve_calls": c["mna.solve"],
            "mna.solve_s": incl["mna.solve"],
            "mna.solve_self_s": slf["mna.solve"],
            "mna.assemble_calls": assemble_calls,
            "mna.assemble_s": incl["mna.assemble"],
            "mna.lapack_calls": c["mna.lapack"],
            "mna.lapack_s": incl["mna.lapack"],
            "mna.rhs_columns": int(self.counts["rhs_columns"]),
            "mna.assemble_reuse_ratio": (
                self.counts["distinct_systems"] / assemble_calls if assemble_calls else 1.0
            ),
            "mna.matrix_bytes": int(self.counts["matrix_bytes"]),
            "mna.unknowns_max": int(self.counts["unknowns_max"]),
            "touchstone.s_params_s": incl["touchstone.s_parameters"],
            "touchstone.write_s": incl["touchstone.write_touchstone"],
            "touchstone.read_s": incl["touchstone.read_touchstone"],
            "touchstone.bytes": int(self.counts["touchstone_bytes"]),
            "analysis.load_modulation_self_s": slf["analysis.load_modulation"],
            "analysis.simulate_pa_self_s": slf["analysis.simulate_pa"],
            "analysis.bandwidth_self_s": slf["analysis.bandwidth_report"],
            "analysis.itr_oracle_self_s": slf["analysis.itr_inverter_oracle"],
            "analysis.phase_offset_calls": c["analysis.required_phase_offset"],
            "evm.s": incl["evm.evm_64qam"],
            "report.render_s": sum((t for s, t in incl.items() if s.startswith("report.")), 0.0),
            "report.bytes": int(self.counts["report_bytes"]),
            "trace.coverage": sum(self.self_s.values()) / wall_s,
            "trace.overhead_ratio": wall_s / untraced_s,
        }

    def tree(self) -> list[dict]:
        """Aggregated call tree: one entry per (parent, span) edge."""
        return [
            {"parent": p or None, "span": s, "incl_s": t}
            for (p, s), t in sorted(self.edges.items(), key=lambda kv: -kv[1])
        ]
