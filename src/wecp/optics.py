"""Linear-optical elements as pure state transformers.

Three elements are enough for the concentration circuits in this package:

* variable beam splitter (VBS): transmits a photon with amplitude sqrt(t)
  and reflects it with amplitude sqrt(1-t),
* polarizing beam splitter (PBS): transmits H photons and reflects V photons,
* single-photon detector used for vacuum post-selection: keeps the branch in
  which a chosen mode holds no photon.

Every element returns a new state; inputs are never mutated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .state import (
    ModeCollision,
    ModeLabel,
    Polarization,
    PureState,
    _dark,
    _split,
    _steer,
    norm_squared,
)


class BadTransmittance(ValueError):
    """Transmittance outside [0, 1]."""


class WrongConvention(ValueError):
    """Element needs H/V-tagged photons but the state has none."""


class UnknownMode(ValueError):
    """Mode label was never created in this state's registry."""


@dataclass(frozen=True)
class VbsSetting:
    """One variable beam splitter: input mode, two output modes, transmittance.

    The output amplitudes are the real pair (sqrt(t), sqrt(1-t)). A general
    2x2 beam-splitter unitary carries a relative phase on its second input
    port, but that port is vacuum in every circuit here, so this single-column
    convention is unitary on the occupied subspace. All three labels must be
    distinct, and the outputs must be new modes (``_ports``).
    """

    input: ModeLabel
    out_transmit: ModeLabel
    out_reflect: ModeLabel
    transmittance: float

    def __post_init__(self) -> None:
        t = self.transmittance
        if not (0.0 <= t <= 1.0):
            raise BadTransmittance(f"transmittance {t} outside [0, 1]")
        labels = [self.input, self.out_transmit, self.out_reflect]
        if len(set(labels)) != len(labels):
            raise ModeCollision(f"VBS labels must be distinct: {labels}")


@dataclass(frozen=True)
class PbsWiring:
    """One polarizing beam splitter, wired as a full 2-in/2-out router.

    Routing per photon: (in_a, H) -> out_c, (in_a, V) -> out_d,
    (in_b, H) -> out_d, (in_b, V) -> out_c. ``in_b`` may be None for the
    common case of a vacuum second port. All labels must be distinct; the
    inputs must be registered and the outputs new modes (``_ports``).
    """

    in_a: ModeLabel
    in_b: ModeLabel | None
    out_c: ModeLabel
    out_d: ModeLabel

    def __post_init__(self) -> None:
        labels = [l for l in (self.in_a, self.in_b, self.out_c, self.out_d) if l is not None]
        if len(set(labels)) != len(labels):
            raise ModeCollision(f"PBS wiring labels must be distinct: {labels}")


@dataclass(frozen=True)
class BranchOutcome:
    """Post-selected branch: the kept (unnormalized) state and its probability."""

    kept_state: PureState
    probability: float


def _ports(state: PureState, element: str, consumed: Iterable[ModeLabel],
           minted: Iterable[ModeLabel]) -> frozenset[ModeLabel]:
    """The port rule of both splitters: an element consumes only registered
    modes and mints only unregistered ones, so no term holds a photon on an
    output before the element moves one there. Returns the output registry.

    Raises:
        UnknownMode: a consumed mode is not registered.
        ModeCollision: a minted mode is already registered.
    """
    for mode in consumed:
        if mode not in state.modes:
            raise UnknownMode(f"{element} input mode {mode!r} does not exist")
    for mode in minted:
        if mode in state.modes:
            raise ModeCollision(f"{element} output mode {mode!r} is already registered")
    return state.modes.difference(consumed).union(minted)


def apply_vbs(state: PureState, s: VbsSetting) -> PureState:
    """Split the photon in ``s.input`` over the two output modes.

    The input must be registered and both outputs new (``_ports``). Kets
    holding a photon in the input mode become two kets, with amplitudes
    scaled by sqrt(t) (photon in ``out_transmit``) and sqrt(1-t) (photon in
    ``out_reflect``); the polarization tag travels with the photon. Kets
    without a photon there pass through untouched. Total squared norm is
    preserved.
    """
    outs = (s.out_transmit, s.out_reflect)
    registry = _ports(state, "VBS", (s.input,), outs)
    amps = (math.sqrt(s.transmittance), math.sqrt(1.0 - s.transmittance))
    return _split(state, s.input, outs, amps, registry)


def apply_pbs(state: PureState, w: PbsWiring) -> PureState:
    """Route photons by polarization through one PBS.

    The inputs must be registered and both outputs new (``_ports``), so each
    ket maps to its own ket and the norm is preserved exactly. Only a ket
    with photons in both inputs can collide, when their tags differ: both
    would leave through one output (``ModeCollision``).
    """
    if not state.uses_polarization:
        raise WrongConvention("PBS needs H/V-tagged photons")
    # input mode -> output per tag; only these photons move
    H, V = Polarization.H, Polarization.V
    ports = {w.in_a: {H: w.out_c, V: w.out_d}}
    if w.in_b is not None:
        ports[w.in_b] = {H: w.out_d, V: w.out_c}
    registry = _ports(state, "PBS", ports, (w.out_c, w.out_d))
    return _steer(state, ports, registry)


def detect_vacuum(state: PureState, mode: ModeLabel) -> BranchOutcome:
    """Post-select on a detector at ``mode`` firing on nothing.

    The kept state collects exactly the terms with zero photons in ``mode``
    and is NOT renormalized; the branch probability is the kept squared norm
    over the input squared norm. The discarded branch has probability
    1 - probability.

    Raises:
        UnknownMode: ``mode`` was never created.
        ZeroState: every term holds a photon there (kept branch is empty).
    """
    if mode not in state.modes:
        raise UnknownMode(f"detector mode {mode!r} does not exist")
    kept_state = _dark(state, mode)
    probability = norm_squared(kept_state) / norm_squared(state)
    return BranchOutcome(kept_state=kept_state, probability=probability)
