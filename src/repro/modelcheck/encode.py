"""Packed-state encoding: state tuples as single machine integers.

Explicit-state search spends most of its time hashing states in and out of
the ``seen``/``parent`` dictionaries.  A state tuple of mixed strings,
booleans and small integers hashes element by element; an ``int`` hashes in
one operation and occupies a fraction of the memory.  The
:class:`StateCodec` maps state tuples to integers by *domain-indexed radix
packing*: each declared variable contributes one digit in a mixed-radix
number, the radix being the size of the variable's domain and the first
declared variable occupying the least-significant digit.

Because the packing is positional, a group of adjacent variables (e.g. the
six variables of one node in the TTA model) occupies a contiguous digit
range, so a model can compose successor states by *summing* precomputed
per-group contributions without ever materialising the tuple -- the trick
behind :meth:`repro.model.system_model.TTAStartupModel.packed_successors`.

Decoding is only needed when a counterexample is rebuilt, never on the hot
search path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.modelcheck.state import StateSpace, StateView

class StateCodec:
    """Bijection between state tuples of a :class:`StateSpace` and ints.

    Requires every variable to declare a finite domain; raises
    :class:`ValueError` otherwise (the packing radix is the domain size).
    """

    def __init__(self, space: StateSpace) -> None:
        self.space = space
        radices: List[int] = []
        multipliers: List[int] = []
        value_index: List[Dict[Any, int]] = []
        domains: List[Tuple[Any, ...]] = []
        multiplier = 1
        for variable in space.variables:
            if variable.domain is None:
                raise ValueError(
                    f"variable {variable.name!r} declares no domain; "
                    f"packed encoding needs finite domains for every variable")
            domain = tuple(variable.domain)
            if len(set(domain)) != len(domain):
                raise ValueError(
                    f"variable {variable.name!r} has duplicate domain values")
            domains.append(domain)
            radices.append(len(domain))
            multipliers.append(multiplier)
            value_index.append({value: index for index, value in enumerate(domain)})
            multiplier *= len(domain)
        self._radices = tuple(radices)
        self._multipliers = tuple(multipliers)
        self._value_index = tuple(value_index)
        self._domains = tuple(domains)
        #: Number of distinct codes (= theoretical state-space size).
        self.size = multiplier

    # -- core bijection ----------------------------------------------------------

    def pack(self, state: Sequence[Any]) -> int:
        """Encode one state tuple as an integer code."""
        if len(state) != len(self._radices):
            raise ValueError(
                f"state has {len(state)} entries, expected {len(self._radices)}")
        code = 0
        try:
            for value, table, multiplier in zip(state, self._value_index,
                                                self._multipliers):
                code += table[value] * multiplier
        except KeyError:
            self._raise_domain_error(state)
        return code

    def unpack(self, code: int) -> tuple:
        """Decode an integer code back into the state tuple."""
        if not 0 <= code < self.size:
            raise ValueError(f"code {code} outside [0, {self.size})")
        values: List[Any] = []
        for radix, domain in zip(self._radices, self._domains):
            code, digit = divmod(code, radix)
            values.append(domain[digit])
        return tuple(values)

    # -- single-variable access (no full decode) ---------------------------------

    def extract(self, code: int, name: str) -> Any:
        """Value of one variable inside a packed code."""
        position = self.space.index[name]
        digit = (code // self._multipliers[position]) % self._radices[position]
        return self._domains[position][digit]

    def digit_geometry(self, name: str) -> Tuple[int, int]:
        """``(multiplier, radix)`` of a variable's digit -- the two constants
        needed to read it with ``(code // multiplier) % radix``."""
        position = self.space.index[name]
        return self._multipliers[position], self._radices[position]

    def value_digit(self, name: str, value: Any) -> int:
        """Domain index of ``value`` in the named variable's digit."""
        position = self.space.index[name]
        try:
            return self._value_index[position][value]
        except KeyError:
            raise ValueError(
                f"value {value!r} not in domain of variable {name!r}") from None

    def view(self, code: int) -> StateView:
        """Named read access to a packed state (decodes once)."""
        return self.space.view(self.unpack(code))

    # -- diagnostics -------------------------------------------------------------

    def _raise_domain_error(self, state: Sequence[Any]) -> None:
        for variable, value, table in zip(self.space.variables, state,
                                          self._value_index):
            if value not in table:
                raise ValueError(
                    f"value {value!r} not in domain of variable "
                    f"{variable.name!r}")
        raise AssertionError("unreachable")  # pragma: no cover


def compile_packed_invariant(invariant: Callable[[StateView], bool],
                             codec: StateCodec) -> Callable[[int], bool]:
    """Turn a :class:`StateView` predicate into a predicate over codes.

    Fast path: invariants that advertise ``forbidden_assignments`` -- a list
    of ``(variable, value)`` pairs meaning "the invariant holds iff no
    listed variable carries its listed value" (how
    :func:`repro.model.properties.no_clique_freeze` is declared) -- compile
    to a handful of integer divisions per state, with no decoding.

    Fallback: decode the state and call the original predicate.
    """
    forbidden = getattr(invariant, "forbidden_assignments", None)
    if forbidden:
        checks: List[Tuple[int, int, int]] = []
        for name, value in forbidden:
            multiplier, radix = codec.digit_geometry(name)
            checks.append((multiplier, radix, codec.value_digit(name, value)))
        checks_tuple = tuple(checks)

        def packed_invariant(code: int) -> bool:
            for multiplier, radix, digit in checks_tuple:
                if (code // multiplier) % radix == digit:
                    return False
            return True

        return packed_invariant

    space = codec.space
    unpack = codec.unpack
    view = space.view

    def decoded_invariant(code: int) -> bool:
        return invariant(view(unpack(code)))

    return decoded_invariant


def invariant_flags(invariant: Callable[[StateView], bool],
                    system: Any) -> int:
    """Successor flags under which ``invariant`` must be evaluated.

    A system with flagged successors (see
    :meth:`repro.model.system_model.TTAStartupModel.packed_flagged_successors`)
    reports, per expansion, flags for the assignments its successors may
    carry, and maps one assignment to its flag with ``assignment_flag``.
    When every one of the invariant's ``forbidden_assignments`` has a flag,
    the result is their OR: an expansion whose flags miss all of them
    cannot violate the invariant.  Otherwise the result is ``-1``, which
    every expansion matches, so the invariant is evaluated on every new
    state.
    """
    forbidden = getattr(invariant, "forbidden_assignments", None)
    flag_of = getattr(system, "assignment_flag", None)
    if not forbidden or flag_of is None:
        return -1
    watched = 0
    for name, value in forbidden:
        flag = flag_of(name, value)
        if flag is None:
            return -1
        watched |= flag
    return watched


class PackedSystemAdapter:
    """Generic packed interface over any tuple-based transition system.

    Pack/unpack on every call -- no faster than the tuple path, but it lets
    the packed checker engine (and its differential tests) run against any
    :class:`~repro.modelcheck.model.TransitionSystem` whose variables all
    declare domains.  Models with a native packed path (the TTA startup
    model) bypass this adapter entirely.
    """

    def __init__(self, system: Any, codec: Optional[StateCodec] = None) -> None:
        self.system = system
        self.space = system.space
        self.codec = codec if codec is not None else StateCodec(system.space)

    def packed_initial_states(self) -> List[int]:
        pack = self.codec.pack
        return [pack(state) for state in self.system.initial_states()]

    def packed_successors(self, code: int) -> List[int]:
        pack = self.codec.pack
        seen: Dict[int, None] = {}
        for transition in self.system.successors(self.codec.unpack(code)):
            target = pack(transition.target)
            if target not in seen:
                seen[target] = None
        return list(seen)
