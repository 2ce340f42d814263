"""Linear AC element models.

Each element class is the one description of its type: its netlist JSON
``kind`` and ``json_keys`` (JSON key -> field; a field at its default is
left out), its node count ``terminals`` (2, or 4 for two terminal pairs),
its number ``aux`` of auxiliary MNA unknowns (branch currents), its
``stamp`` into the MNA system at a frequency and its ``readback`` of
branch currents and absorbed power from a solution.  Stamp and readback
get the matrix slots of the terminals ``t`` and of the auxiliary unknowns
``a``; ground has a slot of its own that the solver drops.  The netlist
and the solver know no element type: a new type is a new class here,
added to ``Component``.

Stamps, readbacks and value helpers take the frequency as a float or
as an array over the points of a frequency sweep.  Floats keep the
arithmetic in scalars; arrays give arrays, and a value that does not
depend on frequency may stay a scalar.  ``stamp`` writes ``A[i, j]`` and
``b[i]``, each a scalar or an array over the points, and puts into ``b``
nothing that depends on frequency, so one right-hand side serves a whole
sweep.

All values are SI (ohms, henries, farads, hertz, amperes) and phasors are
peak amplitudes, so the average power in a resistor is |V|^2 / (2R).
Loss model: a finite-Q inductor is a series resistance R = wL/Q and a
finite-Q capacitor a shunt conductance G = wC/Q, both evaluated at the
analysis frequency (Q is held constant over frequency); Q = inf gives
exactly zero loss.  Transmission
lines take a uniform attenuation in dB per quarter wavelength, with no
cap of its own: a line past float range is refused by name like any
element whose stamp leaves it (:mod:`~dohertylab.netkit.mna`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import InputError, require_positive

__all__ = [
    "Element",
    "Resistor",
    "Inductor",
    "Capacitor",
    "CoupledInductors",
    "IdealTransformer",
    "TransmissionLine",
    "CurrentSource",
    "Component",
]

_DB_TO_NEPER = math.log(10.0) / 20.0

#: a frequency in hertz, or an array of them
Freq = float | np.ndarray
#: a complex value at a frequency, or an array of them
Value = complex | np.ndarray


def _require(cond: bool, msg: str, *values) -> None:
    """Raise InputError(``msg`` formatted with ``values``) unless ``cond``;
    the message is formatted only when it is raised."""
    if not cond:
        raise InputError(msg.format(*values))


class Element:
    """What every element type describes; see the module docstring."""

    kind: ClassVar[str]
    json_keys: ClassVar[dict[str, str]]  # JSON key -> field name
    terminals: ClassVar[int]
    aux: ClassVar[int]
    #: a current source: it is an excitation and delivers 0.5*Re(V I*)
    source: ClassVar[bool] = False
    #: a resistor: it counts as the load when it sits across the load port
    resistive: ClassVar[bool] = False

    def links(self, nodes: tuple[str, ...], ground: str) -> tuple[tuple[str, ...], ...]:
        """Node pairs the element ties together, for the ground-reach check."""
        return (nodes[:2], nodes[2:]) if self.terminals == 4 else (nodes,)

    def stamp(self, A, b, t: list[int], a: range, freq: Freq) -> None:
        """Add the element's entries to matrix ``A`` and right-hand side ``b``."""
        raise NotImplementedError

    def readback(self, x, t: list[int], a: range, freq: Freq) -> tuple[tuple, np.ndarray]:
        """(branch currents, absorbed average power) from the solutions
        ``x``, indexed by unknown on the first axis, each of the shape of
        ``x[i]``; currents flow into the first node of each terminal pair."""
        raise NotImplementedError


class _Lumped(Element):
    """Two-terminal element stamped as an admittance; a subclass defines
    ``impedance`` or ``admittance`` and gets the other as its inverse."""

    terminals = 2
    aux = 0

    def impedance(self, freq: Freq) -> Value:
        return 1.0 / self.admittance(freq)

    def admittance(self, freq: Freq) -> Value:
        return 1.0 / self.impedance(freq)

    def stamp(self, A, b, t, a, freq):
        n1, n2 = t
        y = self.admittance(freq)
        A[n1, n1] += y
        A[n2, n2] += y
        A[n1, n2] -= y
        A[n2, n1] -= y

    def readback(self, x, t, a, freq):
        dv = x[t[0]] - x[t[1]]
        i_in = self.admittance(freq) * dv
        return (i_in,), 0.5 * (dv * i_in.conjugate()).real


@dataclass(frozen=True)
class Resistor(_Lumped):
    """Ideal resistor of ``ohms``."""

    ohms: float

    kind = "resistor"
    json_keys = {"ohms": "ohms"}
    resistive = True

    def __post_init__(self):
        require_positive(ohms=self.ohms)

    def impedance(self, freq: Freq) -> Value:
        return self.ohms + 0j


@dataclass(frozen=True)
class Inductor(_Lumped):
    """Inductor of ``henries``, its loss a series resistance set by ``q``."""

    henries: float
    q: float = math.inf

    kind = "inductor"
    json_keys = {"henries": "henries", "q": "q"}

    def __post_init__(self):
        require_positive(henries=self.henries)
        _require(self.q > 0, "Q must be positive or inf, got {}", self.q)

    def impedance(self, freq: Freq) -> Value:
        w = 2.0 * math.pi * freq
        return w * self.henries / self.q + 1j * (w * self.henries)


@dataclass(frozen=True)
class Capacitor(_Lumped):
    """Capacitor of ``farads``, its loss a shunt conductance set by ``q``."""

    farads: float
    q: float = math.inf

    kind = "capacitor"
    json_keys = {"farads": "farads", "q": "q"}

    def __post_init__(self):
        require_positive(farads=self.farads)
        _require(self.q > 0, "Q must be positive or inf, got {}", self.q)

    def admittance(self, freq: Freq) -> Value:
        # shunt-G loss model; impedance() is its inverse
        w = 2.0 * math.pi * freq
        return w * self.farads / self.q + 1j * (w * self.farads)


@dataclass(frozen=True)
class CoupledInductors(Element):
    """Magnetically coupled winding pair.

    ``l_p`` is the primary inductance, ``n`` the turn ratio (secondary
    inductance is n^2 * l_p) and ``k`` the coupling coefficient, so the
    mutual inductance is k * n * l_p.  A finite ``q`` applies the standard
    inductor rule (series R = wL/Q) to the two inductors of the pair's
    exact decomposition - series leakage (1-k^2)*l_p and shunt magnetizing
    k^2*l_p ahead of an ideal n/k transformer - so the pair and its
    decomposition stay interchangeable at any Q.

    Nodes are (p1, p2, s1, s2).  The two winding currents are auxiliary
    unknowns and the pair is stamped through its 2x2 impedance relation,
    which stays regular as k -> 1.
    """

    l_p: float
    n: float
    k: float
    q: float = math.inf

    kind = "coupled_inductors"
    json_keys = {"l_p_henries": "l_p", "n": "n", "k": "k", "q": "q"}
    terminals = 4
    aux = 2

    def __post_init__(self):
        require_positive(l_p_henries=self.l_p, n=self.n)
        _require(0.0 < self.k < 1.0, "coupling must lie in (0, 1), got {}", self.k)
        _require(self.q > 0, "Q must be positive or inf, got {}", self.q)

    @property
    def l_leak(self) -> float:
        """Series leakage inductance of the equivalent-circuit decomposition."""
        return (1.0 - self.k * self.k) * self.l_p

    @property
    def l_mag(self) -> float:
        """Shunt magnetizing inductance of the equivalent-circuit decomposition."""
        return self.k * self.k * self.l_p

    @property
    def ideal_ratio(self) -> float:
        """Turns ratio of the ideal transformer closing the decomposition."""
        return self.n / self.k

    def z_matrix(self, freq: Freq) -> tuple[Value, Value, Value]:
        """(z11, z12, z22) of the pair at ``freq``, loss included.

        Built from the decomposition so that the lossless entries are the
        textbook jw(L_p, M, L_s) and finite Q enters through the leakage
        and magnetizing inductors.
        """
        w = 2.0 * math.pi * freq
        r_per_l = w / self.q
        z_leak = r_per_l * self.l_leak + 1j * (w * self.l_leak)
        z_mag = r_per_l * self.l_mag + 1j * (w * self.l_mag)
        ratio = self.ideal_ratio
        return z_leak + z_mag, ratio * z_mag, ratio * ratio * z_mag

    def stamp(self, A, b, t, a, freq):
        p1, p2, s1, s2 = t
        ap, as_ = a
        zp, zm, zs = self.z_matrix(freq)
        for node, aux, sign in ((p1, ap, 1.0), (p2, ap, -1.0), (s1, as_, 1.0), (s2, as_, -1.0)):
            A[node, aux] += sign
        # (Vp1 - Vp2) = zp*ip + zm*is ; (Vs1 - Vs2) = zm*ip + zs*is
        A[ap, p1] += 1.0
        A[ap, p2] -= 1.0
        A[ap, ap] -= zp
        A[ap, as_] -= zm
        A[as_, s1] += 1.0
        A[as_, s2] -= 1.0
        A[as_, ap] -= zm
        A[as_, as_] -= zs

    def readback(self, x, t, a, freq):
        ip, is_ = x[a[0]], x[a[1]]
        dvp = x[t[0]] - x[t[1]]
        dvs = x[t[2]] - x[t[3]]
        return (ip, is_), 0.5 * (dvp * ip.conjugate() + dvs * is_.conjugate()).real


@dataclass(frozen=True)
class IdealTransformer(Element):
    """Lossless ideal transformer, ``n`` = secondary/primary voltage ratio.

    Nodes are (p1, p2, s1, s2).  One auxiliary unknown, the current
    delivered out of the secondary, and a voltage-relation row keep it
    solvable where no impedance stamp exists.
    """

    n: float

    kind = "ideal_transformer"
    json_keys = {"n": "n"}
    terminals = 4
    aux = 1

    def __post_init__(self):
        require_positive(n=self.n)

    def stamp(self, A, b, t, a, freq):
        p1, p2, s1, s2 = t
        (j,) = a
        # the primary draws n*j; row j enforces Vs = n*Vp
        for node, sign in ((p1, self.n), (p2, -self.n), (s1, -1.0), (s2, 1.0)):
            A[node, j] += sign
        A[j, s1] += 1.0
        A[j, s2] -= 1.0
        A[j, p1] -= self.n
        A[j, p2] += self.n

    def readback(self, x, t, a, freq):
        j = x[a[0]]
        return (self.n * j, -j), np.zeros(j.shape)  # lossless by construction


@dataclass(frozen=True)
class TransmissionLine(Element):
    """Uniform line: ``theta_deg`` electrical length at ``f_ref`` hertz.

    Electrical length scales linearly with frequency.  Loss, when present,
    is ``loss_db_per_quarter`` dB per 90 degrees of electrical length.

    The two port currents are auxiliary unknowns and the line is stamped
    through its chain (ABCD) relation, which stays regular at any
    electrical length (a Y stamp blows up at multiples of 180 degrees).
    Both terminals are referred to ground.
    """

    z0: float
    theta_deg: float
    f_ref: float
    loss_db_per_quarter: float = 0.0

    kind = "tline"
    json_keys = {
        "z0_ohm": "z0",
        "theta_deg": "theta_deg",
        "f_ref_hz": "f_ref",
        "loss_db_per_quarter": "loss_db_per_quarter",
    }
    terminals = 2
    aux = 2

    def __post_init__(self):
        require_positive(z0_ohm=self.z0, theta_deg=self.theta_deg, f_ref_hz=self.f_ref)
        _require(0 <= self.loss_db_per_quarter < math.inf, "line loss must be finite and >= 0")

    def gamma_length(self, freq: Freq) -> Value:
        """Propagation constant times length, alpha*l + j*beta*l, at ``freq``."""
        theta = self.theta_deg * (math.pi / 180.0) * freq / self.f_ref
        alpha_l = self.loss_db_per_quarter * _DB_TO_NEPER * (theta / (math.pi / 2.0))
        return alpha_l + 1j * theta

    def links(self, nodes, ground):
        return (nodes, (nodes[0], ground), (nodes[1], ground))

    def stamp(self, A, b, t, a, freq):
        n1, n2 = t
        a1, a2 = a
        gl = self.gamma_length(freq)
        # past float range (about 710 Np) both are inf, at a point as in a sweep
        ch, sh = np.cosh(gl), np.sinh(gl)
        # chain relation with i1 into port 1, i2 into port 2:
        #   V1 = ch*V2 + z0*sh*(-i2)
        #   i1 = (sh/z0)*V2 + ch*(-i2)
        A[n1, a1] += 1.0
        A[a1, n1] += 1.0
        A[n2, a2] += 1.0
        A[a1, n2] -= ch
        A[a2, n2] -= sh / self.z0
        A[a1, a2] += self.z0 * sh
        A[a2, a1] += 1.0
        A[a2, a2] += ch

    def readback(self, x, t, a, freq):
        i1, i2 = x[a[0]], x[a[1]]
        return (i1, i2), 0.5 * (x[t[0]] * i1.conjugate() + x[t[1]] * i2.conjugate()).real


@dataclass(frozen=True)
class CurrentSource(Element):
    """AC current source; ``amps`` is the complex peak current pushed into
    the first attachment node (and pulled out of the second)."""

    amps: complex

    kind = "current_source"
    json_keys = {"amps": "amps"}
    terminals = 2
    aux = 0
    source = True

    def __post_init__(self):
        _require(cmath.isfinite(self.amps), "source current must be finite, got {}", self.amps)

    def stamp(self, A, b, t, a, freq):
        b[t[0]] += self.amps
        b[t[1]] -= self.amps

    def readback(self, x, t, a, freq):
        # a source delivers power; the solver books it with the ports
        return (np.full(x.shape[1:], self.amps),), np.zeros(x.shape[1:])


Component = (
    Resistor
    | Inductor
    | Capacitor
    | CoupledInductors
    | IdealTransformer
    | TransmissionLine
    | CurrentSource
)

