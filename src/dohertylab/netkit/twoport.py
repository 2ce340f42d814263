"""Two-port matrices: chain cascades and ABCD/S/Z conversions."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .elements import (
    Capacitor,
    CoupledInductors,
    IdealTransformer,
    Inductor,
    Resistor,
    TransmissionLine,
)

__all__ = ["Series", "Shunt", "TwoPortMatrix", "two_port_matrix", "input_impedance"]


@dataclass(frozen=True)
class Series:
    """Two-terminal component placed in the series arm of a ladder."""

    component: Resistor | Inductor | Capacitor


@dataclass(frozen=True)
class Shunt:
    """Two-terminal component shunted to ground."""

    component: Resistor | Inductor | Capacitor


ChainItem = Series | Shunt | TransmissionLine | CoupledInductors | IdealTransformer


@dataclass(frozen=True)
class TwoPortMatrix:
    representation: str  # "abcd" | "s" | "z"
    m: np.ndarray  # 2x2 complex
    z_ref: float | None = None  # reference impedance, S only
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=complex).reshape(2, 2))
        if self.representation not in ("abcd", "s", "z"):
            raise InputError(f"unknown representation '{self.representation}'")
        if self.representation == "s" and (self.z_ref is None or self.z_ref <= 0):
            raise InputError("S representation needs a positive reference impedance")

    def to_abcd(self) -> "TwoPortMatrix":
        if self.representation == "abcd":
            return self
        if self.representation == "z":
            z11, z12, z21, z22 = self.m.ravel()
            if z21 == 0:
                raise InputError("Z matrix with z21 = 0 has no chain representation")
            det = z11 * z22 - z12 * z21
            m = [[z11 / z21, det / z21], [1.0 / z21, z22 / z21]]
            return TwoPortMatrix("abcd", np.array(m), warnings=self.warnings)
        return self.to_z().to_abcd()

    def to_z(self) -> "TwoPortMatrix":
        if self.representation == "z":
            return self
        if self.representation == "abcd":
            a, b, c, d = self.m.ravel()
            if c == 0:
                raise InputError("chain matrix with C = 0 has no Z representation")
            m = [[a / c, (a * d - b * c) / c], [1.0 / c, d / c]]
            return TwoPortMatrix("z", np.array(m), warnings=self.warnings)
        eye, s = np.eye(2), self.m  # S -> Z
        m = self.z_ref * (eye + s) @ np.linalg.inv(eye - s)
        return TwoPortMatrix("z", m, warnings=self.warnings)

    def to_s(self, z_ref: float | None = None) -> "TwoPortMatrix":
        if self.representation == "s" and (z_ref is None or z_ref == self.z_ref):
            return self
        z0 = z_ref if z_ref is not None else (self.z_ref or 50.0)
        if z0 <= 0:
            raise InputError(f"reference impedance must be positive, got {z0}")
        z = self.to_z().m
        eye = np.eye(2)
        m = np.linalg.inv(z + z0 * eye) @ (z - z0 * eye)
        return TwoPortMatrix("s", m, z_ref=z0, warnings=self.warnings)

    def abcd_determinant(self) -> complex:
        a, b, c, d = self.to_abcd().m.ravel()
        return a * d - b * c


def _abcd_of(item: ChainItem, freq: float) -> np.ndarray:
    if isinstance(item, Series):
        return np.array([[1.0, item.component.impedance(freq)], [0.0, 1.0]], dtype=complex)
    if isinstance(item, Shunt):
        return np.array([[1.0, 0.0], [item.component.admittance(freq), 1.0]], dtype=complex)
    if isinstance(item, TransmissionLine):
        gl = item.gamma_length(freq)
        ch, sh = cmath.cosh(gl), cmath.sinh(gl)
        return np.array([[ch, item.z0 * sh], [sh / item.z0, ch]], dtype=complex)
    if isinstance(item, IdealTransformer):
        return np.array([[1.0 / item.n, 0.0], [0.0, item.n]], dtype=complex)
    if isinstance(item, CoupledInductors):
        z11, z12, z22 = item.z_matrix(freq)
        det = z11 * z22 - z12 * z12
        return np.array([[z11 / z12, det / z12], [1.0 / z12, z22 / z12]], dtype=complex)
    raise TypeError(f"cannot cascade {type(item).__name__}")


def two_port_matrix(
    chain: list[ChainItem] | tuple[ChainItem, ...],
    freq: float,
    representation: str = "abcd",
    z_ref: float = 50.0,
) -> TwoPortMatrix:
    """Cascade ``chain`` left to right and return the requested matrix.

    An empty chain yields the identity, flagged in ``warnings``.
    """
    if freq <= 0:
        raise InputError(f"frequency must be positive, got {freq}")
    warnings = () if chain else ("empty chain: identity two-port",)
    m = np.eye(2, dtype=complex)
    for item in chain:
        m = m @ _abcd_of(item, freq)
    out = TwoPortMatrix("abcd", m, warnings=warnings)
    if representation == "abcd":
        return out
    if representation == "z":
        return out.to_z()
    if representation == "s":
        return out.to_s(z_ref)
    raise InputError(f"unknown representation '{representation}'")


def input_impedance(abcd: TwoPortMatrix, z_load: complex) -> complex:
    """Impedance looking into port 1 with ``z_load`` across port 2."""
    a, b, c, d = abcd.to_abcd().m.ravel()
    return (a * z_load + b) / (c * z_load + d)
