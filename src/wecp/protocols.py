"""Concentration circuits that turn partially entangled W states into maximal ones.

Both circuits share one idea: each party whose coefficient modulus exceeds the
smallest one sends its photon through a variable beam splitter with
transmittance t_i = |a_min|^2 / |a_i|^2 and keeps only the branch where a
detector on the reflected mode sees nothing. After at most N-1 such local
steps the surviving branch is the maximally entangled W state, and the kept
probability multiplies out to N * |a_min|^2.

The single-photon circuit acts on one photon spread over N spatial modes; the
polarization circuit acts on N photons, splitting each party's mode by
polarization first so the beam splitter only touches the H component, then
merging the two paths back through a second polarizing beam splitter.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .optics import PbsWiring, VbsSetting, apply_pbs, apply_vbs, detect_vacuum
from .state import (
    DEFAULT_PRUNE_EPS,
    Ket,
    ModeLabel,
    Polarization,
    PureState,
    _fsum,
    fidelity,
    fresh_label,
)

_TIE_EPS = 1e-12
# Each stepped party's kept amplitude is rebuilt as |a_i| sqrt(t_i), a few ulps
# off |a_min|, so a weight just above the pruning threshold could be pruned mid-run.
_MIN_WEIGHT = DEFAULT_PRUNE_EPS * (1.0 + 1e-12)


class BadCoefficients(ValueError):
    """Coefficient vector is unnormalized, too short, non-finite, or has an entry
    small enough for the state to prune."""


@dataclass(frozen=True)
class WCoefficients:
    """Ordered coefficients a_1..a_N of a W-state superposition.

    Complex entries are accepted; the circuits only ever consume the moduli,
    and phases ride along unchanged into the concentrated state. Squared
    moduli must sum to 1 within 1e-9; the amplitudes are then rescaled to unit
    norm, so the closed forms describe the same state the circuits simulate.
    """

    amps: tuple[complex, ...]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amps)
        if len(amps) < 2:
            raise BadCoefficients("need at least two coefficients")
        if not all(map(cmath.isfinite, amps)):
            raise BadCoefficients(f"coefficients must be finite: {amps}")
        total = _fsum(abs(a) ** 2 for a in amps)
        if abs(total - 1.0) > 1e-9:
            raise BadCoefficients(f"squared moduli sum to {total}, not 1")
        norm = math.sqrt(total)
        amps = tuple(a / norm for a in amps)
        # PureState would prune such a party's term, so the run would lose it
        if any(a.real * a.real + a.imag * a.imag <= _MIN_WEIGHT for a in amps):
            raise BadCoefficients(
                f"squared moduli must exceed {_MIN_WEIGHT:.13g}; drop the party instead")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_squared(
        cls,
        moduli_squared: Sequence[float],
        phases: Sequence[float] | None = None,
    ) -> "WCoefficients":
        """Build from squared moduli (probabilities) plus optional phases in radians."""
        if phases is None:
            phases = [0.0] * len(moduli_squared)
        if not all(map(math.isfinite, (*moduli_squared, *phases))):
            raise BadCoefficients("squared moduli and phases must be finite")
        if any(m2 < 0 for m2 in moduli_squared):
            raise BadCoefficients("squared moduli must be nonnegative")
        if len(phases) != len(moduli_squared):
            raise BadCoefficients("phase list length must match coefficient count")
        return cls(tuple(
            math.sqrt(m2) * cmath.exp(1j * ph)
            for m2, ph in zip(moduli_squared, phases)
        ))

    @property
    def n(self) -> int:
        return len(self.amps)

    @property
    def moduli_squared(self) -> tuple[float, ...]:
        return tuple(abs(a) ** 2 for a in self.amps)


@dataclass(frozen=True)
class PlanStep:
    """One party's concentration step: the VBS to insert and where to detect."""

    party: int
    transmittance: float
    vbs: VbsSetting
    detector: ModeLabel


@dataclass(frozen=True)
class RunReport:
    """Outcome of one protocol run.

    ``final_state`` is left sub-normalized so that its squared norm equals
    ``total_prob``; ``total_prob`` is the product of the per-step kept
    probabilities. ``fidelity_to_target`` compares against the equal-modulus
    W state carrying the input phases. ``steps`` lists the executed steps in
    order; in the polarization circuit each holds the H-path VBS.
    """

    step_probs: tuple[float, ...]
    total_prob: float
    final_state: PureState
    fidelity_to_target: float
    steps: tuple[PlanStep, ...] = ()


# default_party_labels names this many parties with letters: a1 to z1, aa1 to zz1.
MAX_PARTIES = 26 + 26 * 26


def default_party_labels(n: int) -> tuple[ModeLabel, ...]:
    """Deterministic starting mode per party: a1, b1, c1, ... then aa1, ab1, ..."""
    labels = []
    for i in range(n):
        if i < 26:
            stem = chr(ord("a") + i)
        else:
            stem = chr(ord("a") + i // 26 - 1) + chr(ord("a") + i % 26)
        labels.append(stem + "1")
    return tuple(labels)


def _checked_labels(c: WCoefficients, labels: Sequence[ModeLabel] | None) -> tuple[ModeLabel, ...]:
    if labels is None:
        return default_party_labels(c.n)
    labels = tuple(labels)
    if len(labels) != c.n:
        raise ValueError(f"need {c.n} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError("party labels must be distinct")
    return labels


def w_state_single_photon(
    c: WCoefficients, labels: Sequence[ModeLabel] | None = None
) -> PureState:
    """One photon delocalized over N party modes with amplitudes a_1..a_N."""
    labels = _checked_labels(c, labels)
    terms = {
        Ket(((labels[i], Polarization.NONE),)): a
        for i, a in enumerate(c.amps)
    }
    return PureState(terms, modes=labels)


def w_state_polarization(
    c: WCoefficients, labels: Sequence[ModeLabel] | None = None
) -> PureState:
    """N photons, one per party mode; ket i carries H on party i and V elsewhere."""
    labels = _checked_labels(c, labels)
    all_v = [(label, Polarization.V) for label in labels]
    terms = {}
    for i, a in enumerate(c.amps):
        photons = all_v.copy()
        photons[i] = (labels[i], Polarization.H)
        terms[Ket(photons)] = a
    return PureState(terms, modes=labels)


def target_w_state(
    c: WCoefficients,
    labels: Sequence[ModeLabel] | None = None,
    polarization: bool = False,
) -> PureState:
    """The maximally entangled W state this input can concentrate into.

    Moduli are equalized at 1/sqrt(N); each term keeps the phase of the
    corresponding input coefficient, since none of the circuit elements here
    ever alters a phase.
    """
    scale = 1.0 / math.sqrt(c.n)
    equal = WCoefficients(tuple(scale * a / abs(a) for a in c.amps))
    builder = w_state_polarization if polarization else w_state_single_photon
    return builder(equal, labels)


def analytic_total_probability(c: WCoefficients) -> float:
    """Closed-form total success probability: N times the smallest squared modulus."""
    return c.n * min(c.moduli_squared)


def _schedule(
    c: WCoefficients, transmittances: Mapping[int, float] | None
) -> list[tuple[int, float]]:
    """(party, transmittance) pairs in descending-modulus order.

    With no override, plan the optimal step t_i = min|a|^2 / |a_i|^2 and skip
    parties already at the minimum. With an override mapping, schedule exactly
    the given parties at the given transmittances.

    Raises:
        ValueError: an override key is not a party index in range(N).
    """
    m2 = c.moduli_squared
    order = sorted(range(c.n), key=lambda i: (-m2[i], i))
    if transmittances is None:
        mn = min(m2)
        return [(i, mn / m2[i]) for i in order if mn / m2[i] < 1.0 - _TIE_EPS]
    unknown = [k for k in transmittances if k not in range(c.n)]
    if unknown:
        raise ValueError(f"transmittance overrides name no party in range({c.n}): {unknown}")
    return [(i, float(transmittances[i])) for i in order if i in transmittances]


def _run(
    c: WCoefficients,
    labels: Sequence[ModeLabel] | None,
    transmittances: Mapping[int, float] | None,
    polarization: bool,
) -> RunReport:
    """Run the schedule; a polarization step is the single-photon step between two PBSs."""
    labels = _checked_labels(c, labels)
    state = (w_state_polarization if polarization else w_state_single_photon)(c, labels)
    current = list(labels)
    taken = set(labels)  # each minted label joins it, so no label is ever reused

    def mint(base: ModeLabel) -> ModeLabel:
        label = fresh_label(taken, base)
        taken.add(label)
        return label

    steps = []
    step_probs = []
    for party, t in _schedule(c, transmittances):
        base = vbs_in = current[party]
        if polarization:
            vbs_in, v_out = mint(base), mint(base)
            state = apply_pbs(state, PbsWiring(base, None, vbs_in, v_out))
        vbs = VbsSetting(vbs_in, mint(base), mint(base), t)
        state = apply_vbs(state, vbs)
        outcome = detect_vacuum(state, vbs.out_reflect)
        step_probs.append(outcome.probability)
        state = outcome.kept_state
        steps.append(PlanStep(party, t, vbs, vbs.out_reflect))
        out = vbs.out_transmit
        if polarization:  # merge the kept H path with the V path
            out = mint(base)
            state = apply_pbs(state, PbsWiring(vbs.out_transmit, v_out, out, mint(base)))
        current[party] = out
    target = target_w_state(c, current, polarization=polarization)
    return RunReport(
        step_probs=tuple(step_probs),
        total_prob=math.prod(step_probs),
        final_state=state,
        fidelity_to_target=fidelity(state, target),
        steps=tuple(steps),
    )


def run_single_photon_ecp(
    c: WCoefficients,
    labels: Sequence[ModeLabel] | None = None,
    transmittances: Mapping[int, float] | None = None,
) -> RunReport:
    """Run the single-photon multi-mode concentration circuit.

    Each scheduled step inserts a VBS on the party's mode and post-selects on
    the reflected-mode detector staying dark. ``transmittances`` overrides the
    optimal plan with explicit per-party values (used for scanning
    suboptimal settings); leave it None for the optimal run.
    """
    return _run(c, labels, transmittances, polarization=False)


def run_polarization_ecp(
    c: WCoefficients,
    labels: Sequence[ModeLabel] | None = None,
    transmittances: Mapping[int, float] | None = None,
) -> RunReport:
    """Run the N-photon polarization concentration circuit.

    Each scheduled step routes the party's photon through a PBS (H and V part
    company), sends the H path through the VBS, post-selects on the dark
    reflected mode, then merges the surviving H path with the V path on a
    second PBS so the party ends up on a single mode again.
    """
    return _run(c, labels, transmittances, polarization=True)
