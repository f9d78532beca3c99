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

from .state import (
    Ket,
    ModeCollision,
    ModeLabel,
    Polarization,
    PureState,
    ZeroState,
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
    convention is unitary on the occupied subspace.
    """

    input: ModeLabel
    out_transmit: ModeLabel
    out_reflect: ModeLabel
    transmittance: float

    def __post_init__(self) -> None:
        t = self.transmittance
        if not (0.0 <= t <= 1.0):
            raise BadTransmittance(f"transmittance {t} outside [0, 1]")
        if self.out_transmit == self.out_reflect:
            raise ModeCollision("VBS output modes must differ")


@dataclass(frozen=True)
class PbsWiring:
    """One polarizing beam splitter, wired as a full 2-in/2-out router.

    Routing per photon: (in_a, H) -> out_c, (in_a, V) -> out_d,
    (in_b, H) -> out_d, (in_b, V) -> out_c. ``in_b`` may be None for the
    common case of a vacuum second port. All labels must be distinct; output
    modes are always freshly named rather than reusing input names.
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


def apply_vbs(state: PureState, s: VbsSetting) -> PureState:
    """Split the photon in ``s.input`` over the two output modes.

    Kets holding a photon in the input mode become two kets, with amplitudes
    scaled by sqrt(t) (photon in ``out_transmit``) and sqrt(1-t) (photon in
    ``out_reflect``); the polarization tag travels with the photon. Kets
    without a photon there pass through untouched. Total squared norm is
    preserved.
    """
    if s.input not in state.modes:
        raise UnknownMode(f"VBS input mode {s.input!r} does not exist")

    amp_t = math.sqrt(s.transmittance)
    amp_r = math.sqrt(1.0 - s.transmittance)
    new_terms: dict[Ket, complex] = {}
    for ket, amp in state.terms.items():
        if ket.has(s.input):
            # move raises ModeCollision when an output other than the input is taken
            kt = ket.move(s.input, s.out_transmit)
            kr = ket.move(s.input, s.out_reflect)
            new_terms[kt] = new_terms.get(kt, 0j) + amp * amp_t
            new_terms[kr] = new_terms.get(kr, 0j) + amp * amp_r
        else:
            for out in (s.out_transmit, s.out_reflect):
                if ket.has(out):
                    raise ModeCollision(f"VBS output mode {out!r} already occupied in {ket}")
            new_terms[ket] = new_terms.get(ket, 0j) + amp

    modes = set(state.modes) | {s.out_transmit, s.out_reflect}
    if s.input not in (s.out_transmit, s.out_reflect):
        modes.discard(s.input)  # input port is consumed by the element
    return PureState(new_terms, modes=modes, prune_eps=state.prune_eps)


def apply_pbs(state: PureState, w: PbsWiring) -> PureState:
    """Route photons by polarization through one PBS. Norm is preserved exactly."""
    if not state.uses_polarization:
        raise WrongConvention("PBS needs H/V-tagged photons")
    if w.in_a not in state.modes:
        raise UnknownMode(f"PBS input mode {w.in_a!r} does not exist")
    if w.in_b is not None and w.in_b not in state.modes:
        raise UnknownMode(f"PBS input mode {w.in_b!r} does not exist")

    # (input mode, output for H, output for V); only these photons move.
    ports = [(w.in_a, w.out_c, w.out_d)]
    if w.in_b is not None:
        ports.append((w.in_b, w.out_d, w.out_c))

    # Outputs are never input labels, so a move that finds its output taken
    # has met a bystander or the photon routed from the other input port.
    new_terms: dict[Ket, complex] = {}
    for ket, amp in state.terms.items():
        for src, out_h, out_v in ports:
            pol = ket.polarization_at(src)
            if pol is not None:
                ket = ket.move(src, out_h if pol is Polarization.H else out_v)
        new_terms[ket] = new_terms.get(ket, 0j) + amp

    modes = set(state.modes) | {w.out_c, w.out_d}
    modes.discard(w.in_a)
    if w.in_b is not None:
        modes.discard(w.in_b)
    return PureState(new_terms, modes=modes, prune_eps=state.prune_eps)


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
    kept = {ket: amp for ket, amp in state.terms.items() if not ket.has(mode)}
    if not kept:
        raise ZeroState(f"vacuum branch at {mode!r} is empty")
    kept_state = PureState(kept, modes=state.modes, prune_eps=state.prune_eps)
    probability = norm_squared(kept_state) / norm_squared(state)
    return BranchOutcome(kept_state=kept_state, probability=probability)
