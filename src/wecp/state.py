"""Sparse pure states over labeled optical modes.

A state is a sparse map from photon-occupation patterns (kets) to complex
amplitudes. Every mode holds at most one photon, and a photon either carries
no polarization tag (occupation-only convention) or an H/V tag (polarization
convention); one state never mixes the two conventions.

States may be sub-normalized: the squared norm of a state is read as the
probability of the measurement branch it represents. Nothing in this module
renormalizes implicitly, so branch probabilities stay auditable step by step.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Mapping
from enum import Enum
from itertools import chain
from math import fsum
from operator import itemgetter

ModeLabel = str

DEFAULT_PRUNE_EPS = 1e-15
_NORM_SQ_CAP = 1.0 + 1e-9


class ZeroState(ValueError):
    """Every amplitude fell below the pruning threshold."""


class IncompatibleStates(ValueError):
    """Kets mix the occupation-only and polarization conventions."""


class ModeCollision(ValueError):
    """Two photons would occupy the same mode."""


class Polarization(Enum):
    H = "H"
    V = "V"
    NONE = "-"

    # Members are singletons compared by identity, so the identity hash agrees
    # with equality and skips Enum's Python-level __hash__ on every Ket hash.
    __hash__ = object.__hash__


# An enum member read costs over ten global reads; the convention is read per PBS and fidelity.
_NONE = Polarization.NONE


class Ket:
    """Photon pattern: which modes hold a photon, and each photon's tag.

    A ket is its mode→polarization map, so kets built from permuted photon
    lists compare equal. The hash is the hash of the frozenset of its (mode,
    tag) pairs, computed once when the ket is built. ``photons`` and ``modes``
    are sorted by mode label and derived on demand. Kets are immutable.
    """

    __slots__ = ("_pol", "_hash")

    def __init__(self, photons: Iterable[tuple[ModeLabel, Polarization]]) -> None:
        self.__post_init__(tuple(photons))

    def __post_init__(self, photons: tuple[tuple[ModeLabel, Polarization], ...]) -> None:
        pol = dict(photons)
        if len(pol) != len(photons):
            raise ModeCollision(f"duplicate occupancy in ket: {sorted(m for m, _ in photons)}")
        _put_pol(self, pol)
        _put_hash(self, hash(frozenset(photons)))

    def __setattr__(self, name, value):
        raise AttributeError("Ket is immutable")

    def __delattr__(self, name):
        raise AttributeError("Ket is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ket):
            return NotImplemented
        return self._hash == other._hash and self._pol == other._pol

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return Ket, (self.photons,)

    @property
    def photons(self) -> tuple[tuple[ModeLabel, Polarization], ...]:
        return tuple(sorted(self._pol.items(), key=itemgetter(0)))

    @property
    def modes(self) -> tuple[ModeLabel, ...]:
        return tuple(sorted(self._pol))

    def has(self, mode: ModeLabel) -> bool:
        return mode in self._pol

    def polarization_at(self, mode: ModeLabel) -> Polarization | None:
        return self._pol.get(mode)

    def move(self, src: ModeLabel, dst: ModeLabel) -> "Ket":
        """Relocate the photon in ``src`` to ``dst``, keeping its tag.

        Raises:
            KeyError: ``src`` holds no photon.
            ModeCollision: ``dst`` already holds a photon.
        """
        pol = self._pol
        if src not in pol:
            raise KeyError(f"no photon in mode {src!r}")
        if dst in pol:
            raise ModeCollision(f"mode {dst!r} already holds a photon in {self}")
        moved = pol.copy()
        moved[dst] = moved.pop(src)
        return _ket_of(moved)

    def __repr__(self) -> str:
        inner = " ".join(
            m if pol is Polarization.NONE else f"{pol.value}@{m}"
            for m, pol in self.photons
        )
        return f"|{inner}>"


def _ket_of(pol: dict[ModeLabel, Polarization]) -> Ket:
    """The ket whose mode->tag map is ``pol``, which it then owns."""
    ket = object.__new__(Ket)
    _put_pol(ket, pol)
    _put_hash(ket, hash(frozenset(pol.items())))
    return ket


def _fsum(values: Iterable[float]) -> float:
    """Every sum that feeds an output: the correctly rounded sum of ``values``
    (``math.fsum``), whose bits depend on neither their order nor the Python
    version. A sum past the largest float is ``inf``, as float addition gives,
    where ``math.fsum`` raises OverflowError."""
    try:
        return fsum(values)
    except OverflowError:
        return float("inf")


def _prune(pairs: Iterable[tuple[Ket, complex]]) -> tuple[list, list, list]:
    """The amplitude pass: the kets, amplitudes and squared moduli (``re*re +
    im*im``) of the pairs at or above ``DEFAULT_PRUNE_EPS``; a NaN raises."""
    kets, amps, squares = [], [], []
    for ket, a in pairs:
        m2 = a.real * a.real + a.imag * a.imag
        if m2 >= DEFAULT_PRUNE_EPS:
            kets.append(ket)
            amps.append(a)
            squares.append(m2)
        elif not m2 < DEFAULT_PRUNE_EPS:
            raise ValueError(f"amplitude {a} at {ket} is NaN")
    return kets, amps, squares


def _norm(squares: list[float]) -> float:
    """The correctly rounded sum of the squared moduli; ZeroState if there are none."""
    if not squares:
        raise ZeroState("state has no terms above the pruning threshold")
    return _fsum(squares)


class PureState:
    """Immutable sparse superposition of single-occupancy kets.

    A state holds one reference configuration, a mode->tag map, and three
    term columns in order, never written once built: each term's difference
    from the reference, its amplitude, and the amplitude's squared modulus,
    whose correctly rounded sum is the squared norm. A difference is a ket of
    the modes where its term departs from the reference: the term's photon,
    or None where it lacks the reference's. It never repeats the reference,
    so equal terms have equal differences. The constructor's reference holds
    each mode's tag held by more than half of the kets: all V for the
    polarization W state, and the vacuum for the single-photon one, whose
    differences are its kets. The reference sets the cost, never an output.

    Only new amplitudes go through ``_prune``; the constructor's are all new,
    and it checks each term's photon count, convention and modes, which
    elements keep. A VBS or a detector copies its input's columns in C and
    splices in or deletes only the terms whose difference names its mode; a
    PBS moves the reference's photons on its ports and rewrites only the
    differences that name a port. Physical kets are built where read
    (``terms``, ``==``, ``repr``, copy and pickle through the constructor,
    ``fidelity`` across references), each state's map once; ``len`` builds
    nothing.

    Args:
        terms: mapping from Ket to complex amplitude. Terms with squared
            modulus below ``DEFAULT_PRUNE_EPS`` are dropped; a NaN is never
            dropped.
        modes: every mode label known to this state, occupied or vacuum.
            Defaults to the modes occupied by the terms. Acts as the mode
            registry for the optics elements: detectors may sit on vacuum
            modes, but only on modes that exist here.

    Raises:
        ZeroState: no term survives pruning.
        IncompatibleStates: kets differ in photon count or mix conventions.
        ValueError: an amplitude is NaN, the squared norm exceeds 1 (an
            infinite amplitude does), or a term occupies a mode missing from
            ``modes``.
    """

    __slots__ = ("_ref", "_diffs", "_amps", "_squares", "_norm2", "_keyed", "_terms", "modes")

    def __init__(self, terms: Mapping[Ket, complex],
                 modes: Iterable[ModeLabel] | None = None) -> None:
        kets, amps, squares = _prune(zip(terms, map(complex, terms.values())))
        n2 = _norm(squares)
        pols = [ket._pol for ket in kets]
        counts = set(map(len, pols))
        tags = set().union(*[pol.values() for pol in pols])
        occupied = frozenset().union(*pols)
        registry = occupied if modes is None else frozenset(modes)
        if len(counts) > 1:
            raise IncompatibleStates(f"photon count differs across kets: {sorted(counts)}")
        if _NONE in tags and len(tags) > 1:
            raise IncompatibleStates("kets mix tagged and untagged photons")
        if not occupied <= registry:
            raise ValueError(f"terms occupy unregistered modes: {set(occupied - registry)}")
        ref = {}  # unless one ket or two share a mode, no tag holds a majority
        if len(pols) == 1 or len(occupied) < len(pols) * len(pols[0]):
            held = Counter(chain.from_iterable(map(dict.items, pols)))
            ref = {mode: tag for (mode, tag), n in held.items() if 2 * n > len(pols)}
        diffs = [_difference(ref, pol) for pol in pols] if ref else kets
        self._store(ref, diffs, amps, squares, n2, registry)

    @property
    def photon_count(self) -> int:
        """Photons in each term, read from the first; the constructor checks they agree."""
        diff = self._diffs[0]._pol
        return len(self._ref.keys() | diff.keys()) - list(diff.values()).count(None)

    @property
    def uses_polarization(self) -> bool:
        """Whether the photons carry H/V tags, read from the first difference's
        or else the reference's first photon; no state mixes conventions. A
        ket of no photons holds no untagged one, so it reads as tagged."""
        for tag in self._diffs[0]._pol.values():
            if tag is not None:
                return tag is not _NONE
        return next(iter(self._ref.values()), None) is not _NONE

    def _physical_kets(self) -> list[Ket]:
        """Each term's ket: its difference itself under a vacuum reference."""
        ref = self._ref
        if not ref:
            return self._diffs
        kets = []
        for diff in self._diffs:
            pol = {**ref, **diff._pol}
            for mode, tag in diff._pol.items():
                if tag is None:
                    del pol[mode]
            kets.append(_ket_of(pol))
        return kets

    def _by_difference(self) -> dict[Ket, complex]:
        """The difference->amplitude map, in term order, built on first read."""
        keyed = self._keyed
        if keyed is None:
            keyed = dict(zip(self._diffs, self._amps))
            _put_keyed(self, keyed)
        return keyed

    def _physical(self) -> dict[Ket, complex]:
        """The physical ket->amplitude map, in term order, built on first read."""
        if not self._ref:
            return self._by_difference()
        terms = self._terms
        if terms is None:
            terms = dict(zip(self._physical_kets(), self._amps))
            _put_terms(self, terms)
        return terms

    def _store(self, ref: dict[ModeLabel, Polarization], diffs: list[Ket], amps: list[complex],
               squares: list[float], n2: float, registry: frozenset[ModeLabel]) -> None:
        """Cap the squared norm at 1 and set the slots; the maps are built on first read."""
        if n2 > _NORM_SQ_CAP:
            raise ValueError(f"squared norm {n2} exceeds 1")
        _put_ref(self, ref)
        _put_diffs(self, diffs)
        _put_amps(self, amps)
        _put_squares(self, squares)
        _put_norm2(self, n2)
        _put_keyed(self, None)
        _put_terms(self, None)
        _put_modes(self, registry)

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return PureState, (self._physical(), self.modes)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    def __delattr__(self, name):
        raise AttributeError("PureState is immutable")

    @property
    def terms(self) -> Mapping[Ket, complex]:
        return _Terms(self)

    def __eq__(self, other: object) -> bool:
        # registry metadata (modes) intentionally ignored
        if not isinstance(other, PureState):
            return NotImplemented
        return self._physical() == other._physical()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        ordered = sorted(zip(self._physical_kets(), self._amps),
                         key=lambda kv: [(m, pol.value) for m, pol in kv[0].photons])
        parts = " + ".join(f"({amp:.6g}){ket}" for ket, amp in ordered)
        return f"PureState({parts})"


# Slots are written past the guards by their descriptors: half object.__setattr__'s cost.
_put_pol, _put_hash = Ket._pol.__set__, Ket._hash.__set__
(_put_ref, _put_diffs, _put_amps, _put_squares, _put_norm2, _put_keyed, _put_terms,
 _put_modes) = [getattr(PureState, slot).__set__ for slot in PureState.__slots__]


def _difference(ref: Mapping[ModeLabel, Polarization], pol: dict) -> Ket:
    """The canonical difference of the photons ``pol`` from ``ref``: each
    photon that ``ref`` lacks or tags otherwise, and None at each mode where
    ``ref`` holds a photon and ``pol`` none."""
    diff = {mode: tag for mode, tag in pol.items() if ref.get(mode) is not tag}
    diff.update(dict.fromkeys(ref.keys() - pol.keys()))
    return _ket_of(diff)


def _columns(ref: dict[ModeLabel, Polarization], diffs: list[Ket], amps: list[complex],
             squares: list[float], registry: frozenset[ModeLabel], n2: float | None = None
             ) -> PureState:
    """An element's or a builder's output over the reference ``ref``, its squared
    norm summed unless given. Precondition (the port rule and ``_unref`` keep
    it): each difference is canonical, no two are equal, and ``registry``
    holds their terms' modes."""
    state = object.__new__(PureState)
    state._store(ref, diffs, amps, squares, _norm(squares) if n2 is None else n2, registry)
    return state


def _unref(state: PureState, modes: Iterable[ModeLabel]) -> PureState:
    """``state`` with the reference's photons in ``modes`` moved into every
    difference: an element's path where it cannot move them itself."""
    ref = state._ref.copy()
    dropped = {mode: ref.pop(mode) for mode in modes if mode in ref}
    diffs = [_ket_of({mode: tag for mode, tag in {**dropped, **diff._pol}.items()
                      if tag is not None or mode not in dropped}) for diff in state._diffs]
    return _columns(ref, diffs, state._amps, state._squares, state.modes, state._norm2)


def _holding(state: PureState, mode: ModeLabel) -> tuple[PureState, list[int]]:
    """``state``, its reference holding no photon in ``mode``, and the positions
    of the terms that do, in term order: the scan of a VBS and of a detector."""
    if mode in state._ref:
        state = _unref(state, (mode,))
    return state, [i for i, diff in enumerate(state._diffs) if mode in diff._pol]


def _split(state: PureState, mode: ModeLabel, outs: tuple[ModeLabel, ModeLabel],
           factors: tuple[float, float], registry: frozenset[ModeLabel]) -> PureState:
    """A VBS's output: each term with a photon in ``mode`` becomes two in its
    slot, the photon under each label of ``outs``, scaled by each factor."""
    state, hits = _holding(state, mode)
    (out_t, out_r), (amp_t, amp_r) = outs, factors
    diffs, amps, squares = list(state._diffs), list(state._amps), list(state._squares)
    for i in reversed(hits):
        diff, amp = diffs[i], amps[i]
        diffs[i:i + 1], amps[i:i + 1], squares[i:i + 1] = _prune(
            ((diff.move(mode, out_t), amp * amp_t), (diff.move(mode, out_r), amp * amp_r)))
    return _columns(state._ref, diffs, amps, squares, registry)


def _steer(state: PureState, ports: Mapping[ModeLabel, Mapping[Polarization, ModeLabel]],
           registry: frozenset[ModeLabel]) -> PureState:
    """A PBS's output: the reference's photons in the inputs of ``ports`` move
    to the output named for their tag, and the differences that name an input
    are rewritten. Two photons of one term sharing an output: ModeCollision."""
    ref = state._ref
    moved = ref.copy()
    for src, out in ports.items():
        tag = moved.pop(src, None)
        if tag is not None:
            if out[tag] in moved:
                # the reference's two photons would share an output, but no
                # term need hold both: check each term's own photons
                return _steer(_unref(state, ports), ports, registry)
            moved[out[tag]] = tag
    outputs = next(iter(ports.values())).values()
    diffs = list(state._diffs)
    for i in {i for src in ports for i, diff in enumerate(state._diffs) if src in diff._pol}:
        pol = diffs[i]._pol.copy()
        placed = {}
        for src, out in ports.items():
            tag = pol.pop(src) if src in pol else ref.get(src)
            if tag is not None:
                if out[tag] in placed:
                    raise ModeCollision(f"photons in {' and '.join(map(repr, ports))} "
                                        "would share an output")
                placed[out[tag]] = tag
        for dst in outputs:
            if placed.get(dst) is not moved.get(dst):
                pol[dst] = placed.get(dst)
        diffs[i] = _ket_of(pol)
    return _columns(moved, diffs, state._amps, state._squares, registry, state._norm2)


def _dark(state: PureState, mode: ModeLabel) -> PureState:
    """A vacuum detector's kept state: the terms with no photon in ``mode``."""
    state, hits = _holding(state, mode)
    if len(hits) == len(state._diffs):
        raise ZeroState(f"vacuum branch at {mode!r} is empty")
    diffs, amps, squares = list(state._diffs), list(state._amps), list(state._squares)
    for i in reversed(hits):
        del diffs[i], amps[i], squares[i]
    return _columns(state._ref, diffs, amps, squares, state.modes)


class _Terms(Mapping):
    """Read-only view of the physical terms (``PureState._physical``); ``len``
    counts the differences, building no ket."""

    __slots__ = ("_state",)

    def __init__(self, state: PureState) -> None:
        self._state = state

    def __len__(self) -> int:
        return len(self._state._diffs)

    def __getitem__(self, ket: Ket) -> complex:
        return self._state._physical()[ket]

    def __iter__(self):
        return iter(self._state._physical())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._state._physical()!r})"


def norm_squared(state: PureState) -> float:
    """Total squared amplitude, read as the probability of this branch.

    Summed once, while the state was validated.
    """
    return state._norm2


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 of the normalized versions of both states.

    Exactly symmetric in its arguments: swapping them conjugates each
    product ``x.conjugate() * y`` exactly, the overlap's real and imaginary
    parts are each one correctly rounded sum, which term order cannot change,
    and the norms enter as one commutative product.
    States on disjoint kets give 0.0; that is a valid answer, not an error.

    Raises:
        IncompatibleStates: the states use different polarization conventions.
    """
    if a.uses_polarization != b.uses_polarization:
        raise IncompatibleStates("cannot overlap tagged and untagged states")
    if a._ref == b._ref:
        # one reference: equal terms have equal canonical differences
        pairs, tb = zip(a._diffs, a._amps), b._by_difference()
    else:
        pairs, tb = zip(a._physical_kets(), a._amps), b._physical()
    products = [x.conjugate() * y for k, x in pairs if (y := tb.get(k)) is not None]
    overlap = complex(_fsum([p.real for p in products]), _fsum([p.imag for p in products]))
    f = abs(overlap) ** 2 / (norm_squared(a) * norm_squared(b))
    return min(max(f, 0.0), 1.0)


def fresh_label(taken: Collection[ModeLabel], base: ModeLabel) -> ModeLabel:
    """Mint a mode label derived from ``base`` that avoids ``taken``.

    The trailing digits of ``base`` are treated as a counter, so minting from
    "a1" yields "a2", "a3", ... Callers pass the full set of labels in play;
    that keeps generated labels from ever colliding with user-supplied ones.
    """
    stem = base.rstrip("0123456789") or base
    suffix = base[len(stem):]
    k = int(suffix) + 1 if suffix else 1
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"
