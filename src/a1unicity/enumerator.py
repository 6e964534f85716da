"""Brute-force enumeration of completely reducible module structures.

Given a target Jordan type on the natural module, this counts the
multisets of summands built from twisted tensor-product irreducibles
(the atoms, with twists in 0..max_twist), hyperbolic doublings and
trivial summands whose Jordan types add up to the target and which
respect the ambient form, up to the equivalence "shift every Frobenius
twist by a constant, up to module isomorphism".  The number of classes
is an independent re-derivation of the classical unicity verdicts: a
partition meets a unique class of A1-overgroups exactly when one
canonical structure survives and raising the twist bound adds nothing.

The count is one memoized recursion over the groups of the atom pool:
the atoms of one Jordan type and form, which differ only in their
twists.  At a group it chooses a total multiplicity K and the union F
of the twist flags of the atoms that get a copy, and weights that branch
by the number of ways to spread K copies over the group's atoms with
flag union F.  For a class of c atoms with equal flags, k copies spread
in

  * C(k + c - 1, c - 1) ways when a lone copy carries the ambient form;
  * C(k/2 + c - 1, c - 1) ways for even k, and none for odd k, when it
    does not (a lone copy must carry the form itself; pairs always pair
    up hyperbolically);
  * C(c, k) ways with distinct_irr, where a group whose lone copy
    cannot carry the form is unusable;

and the weight of (K, F) combines the at most four flag classes.  At
the leaf the leftover 1-blocks are the trivial summand: an even number
of them under a symplectic form, and at most one with distinct_irr.

The state is the group index, the remaining block counts and two flags:
"some chosen factor has twist 0" and "some chosen factor has twist
max_twist".  A multiset whose least twist is s > 0 is the shift of one
whose least twist is 0, so the classes are exactly the completions with
the twist-0 flag, and no shifts need deduplicating; the all-trivial
structure adds one more when it is admissible.  The family grows with
the twist bound iff some completion sets both flags.  Skipping a group
(K = 0) is followed forward in a loop, so the recursion nests once per
group chosen with K >= 1, which uses up at least one nontrivial block:
it is never deeper than the number of nontrivial blocks.  The memo
belongs to one query and is freed with its result.

The listing is lazy: EnumerationResult.classes walks the same memo on
first read and enters only branches whose count is nonzero: at a group
it expands the concrete atom assignments of K copies once per K and
follows those whose flag union F leads to a nonzero count.  One Irr and
one Doubled per atom are shared by every class of the listing, so each
summand's order key and text are computed once.  It builds and formats
each class's descriptor once, in canonical form:

  * the minimum twist over all factors of all nontrivial summands is 0;
  * m isomorphic copies of an irreducible M are stored as floor(m/2)
    hyperbolic pairs Doubled(M) plus (m mod 2) plain summands, which is
    both the canonical shape and exactly what form-admissibility needs
    (a lone M must carry the ambient form itself; pairs always pair up
    hyperbolically);
  * all trivial summands merge into one Trivial(r).

Queries are bounded before any search: the atom pool size follows from
(p, max_twist, dim) and the number of remaining-block states from the
partition, and their product must stay within MAX_SEARCH.  A listing
builds at most MAX_LISTED classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, groupby
from math import comb, prod
from typing import Callable, NamedTuple

from .errors import InvalidQueryError, NotCompletelyReducibleError
from .ffmatrix import is_prime
from .jordan import JordanType, tensor_multi
from .sl2modules import (
    Doubled,
    FormType,
    Irr,
    IrreducibleDescriptor,
    IrreducibleFactor,
    ModuleDescriptor,
    Trivial,
    format_descriptor,
)

# Bound on (atom pool size) x (sub-multisets of the target partition),
# which bounds the memo of one query.  It also keeps the recursion
# shallow: the recursion nests once per chosen group, at most
# min(atoms, blocks) <= sqrt(MAX_SEARCH) deep.
MAX_SEARCH = 100_000

# Bound on the classes one listing builds (about 1 kB each).
MAX_LISTED = 50_000


@dataclass(frozen=True)
class EmbeddingClass:
    """One conjugacy class of completely reducible embeddings, named by
    its canonical module descriptor."""

    descriptor: ModuleDescriptor

    def __post_init__(self):
        object.__setattr__(self, "text", format_descriptor(self.descriptor))

    @property
    def max_twist(self) -> int:
        keys = [s.sort_key(self.descriptor.p) for s in self.descriptor.summands]
        return max((t for k in keys for t in k[3][2]), default=0)

    def sort_key(self):
        """Negated summand dimensions, then all weights, then all twists
        (read from the summand keys), then the text."""
        dims, weights, twists = [], [], []
        for s in self.descriptor.summands:
            _, dim, _, (_, w, t) = s.sort_key(self.descriptor.p)
            dims.append(dim)
            weights += w
            twists += t
        return tuple(dims), tuple(weights), tuple(twists), self.text

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class EnumerationResult:
    count: int
    max_twist: int
    growth_flag: bool
    _listing: Callable[[], tuple[EmbeddingClass, ...]] = field(
        repr=False, compare=False
    )

    @cached_property
    def classes(self) -> tuple[EmbeddingClass, ...]:
        """The classes in EmbeddingClass.sort_key order, built on first
        read; more than MAX_LISTED of them raise InvalidQueryError."""
        if self.count > MAX_LISTED:
            raise InvalidQueryError(
                f"{self.count} classes exceed the listing budget {MAX_LISTED}"
            )
        return self._listing()


def _embedding_class(multiplicities, trivial: int, p: int) -> EmbeddingClass:
    """The class with these ((Irr, Doubled) of one irreducible,
    multiplicity) pairs, already shifted to least twist 0, plus `trivial`
    trivial summands."""
    summands: list = []
    for (irr, doubled), mult in multiplicities:
        summands.extend([doubled] * (mult // 2))
        if mult % 2:
            summands.append(irr)
    if trivial:
        summands.append(Trivial(trivial))
    return EmbeddingClass(ModuleDescriptor(tuple(summands), p))


def canonicalize(d: ModuleDescriptor) -> EmbeddingClass:
    """Canonical representative of d under global twist shift and module
    isomorphism."""
    if not d.is_completely_reducible:
        raise NotCompletelyReducibleError(
            "Weyl/tilting summands have no completely reducible canonical form"
        )
    multiplicities: Counter[IrreducibleDescriptor] = Counter()
    trivial = 0
    for s in d.summands:
        if isinstance(s, Trivial):
            trivial += s.multiplicity
        else:
            multiplicities[s.module] += s.copies
    if multiplicities:
        shift = min(m.min_twist for m in multiplicities)
        if shift:
            multiplicities = Counter(
                {m.shifted(-shift): k for m, k in multiplicities.items()}
            )
    pairs = (((Irr(m), Doubled(m)), k) for m, k in multiplicities.items())
    return _embedding_class(pairs, trivial, d.p)


def _weight_tuples(p: int, max_twist: int, max_dim: int):
    """The weight tuples of the atoms, depth first: at most max_twist + 1
    weights in 1..p-1 whose dimensions w + 1 multiply to at most
    max_dim.  Each tuple of k weights is an atom for every choice of k
    increasing twists in 0..max_twist."""

    def grow(weights, room):
        for weight in range(1, min(p, room)):
            extended = weights + (weight,)
            yield extended
            if len(extended) <= max_twist:
                yield from grow(extended, room // (weight + 1))

    return grow((), max_dim)


@lru_cache(maxsize=None)
def _pool_size(p: int, max_twist: int, max_dim: int) -> int:
    """The number of atoms in _atom_pool(p, max_twist, max_dim), counted
    without building them; the count stops once it passes MAX_SEARCH.

    Every weight tuple adds at least one atom, so this takes at most
    MAX_SEARCH steps for any input.
    """
    total = 0
    for weights in _weight_tuples(p, max_twist, max_dim):
        total += comb(max_twist + 1, len(weights))
        if total > MAX_SEARCH:
            break
    return total


@lru_cache(maxsize=None)
def _atom_pool(p: int, max_twist: int, max_dim: int):
    """All twisted tensor-product irreducibles of dimension <= max_dim
    with twists drawn from 0..max_twist, grouped by Jordan type and form:
    triples ((block size, count) pairs, form type, atoms).

    Twists change neither the Jordan type nor the form, so both are
    computed once per weight tuple.  Weight tuples of one Jordan type can
    differ in form (J_p tensor J_a is a copies of J_p), so the form is
    part of the group key.
    """
    groups: dict = {}
    for weights in _weight_tuples(p, max_twist, max_dim):
        blocks = tensor_multi([w + 1 for w in weights], p).blocks
        atoms = [
            IrreducibleDescriptor(tuple(map(IrreducibleFactor, weights, twists)))
            for twists in combinations(range(max_twist + 1), len(weights))
        ]
        key = (tuple(Counter(blocks).items()), atoms[0].form_type())
        groups.setdefault(key, []).extend(atoms)
    return tuple(
        (blocks, form, tuple(atoms)) for (blocks, form), atoms in groups.items()
    )


@lru_cache(maxsize=None)
def _pool_flags(p: int, max_twist: int, max_dim: int):
    """For each group of _atom_pool(p, max_twist, max_dim): the twist
    flags of its atoms (bit 0: a factor of twist 0, bit 1: a factor of
    twist max_twist) and the number of its atoms with each flag value."""
    out = []
    for _, _, atoms in _atom_pool(p, max_twist, max_dim):
        atom_flags = tuple(
            (a.min_twist == 0) | (a.max_twist == max_twist) << 1 for a in atoms
        )
        out.append((atom_flags, tuple(atom_flags.count(f) for f in range(4))))
    return tuple(out)


def jordan_menu(
    form: FormType, p: int, max_dim: int
) -> list[tuple[IrreducibleDescriptor, JordanType]]:
    """Irreducibles of the given form type with dimension <= max_dim.

    One entry per weight multiset: reassigning which factor carries which
    twist changes the isomorphism class but neither the dimension, the
    Jordan type, nor the form, so such families are collapsed to the
    representative with weights ascending at twists 0, 1, 2, ...  The
    trivial module is excluded (it is the Trivial summand kind, not an
    Irr).
    """
    if max_dim < 1:
        raise InvalidQueryError("max_dim must be >= 1")
    out = []
    # at most log2(max_dim) < max_dim.bit_length() factors fit
    for weights in _weight_tuples(p, max_dim.bit_length(), max_dim):
        if list(weights) != sorted(weights):
            continue
        desc = IrreducibleDescriptor(
            tuple(map(IrreducibleFactor, weights, range(len(weights))))
        )
        if form is FormType.NONE or desc.form_type() is form:
            out.append((desc, desc.jordan_type(p)))
    out.sort(key=lambda item: item[0].sort_key())
    return out


def _spread(k: int, atoms: int, lone_ok: bool, distinct_irr: bool) -> int:
    """The ways to spread k copies over this many atoms: any
    multiplicities, even ones only when a lone copy cannot carry the
    ambient form, or distinct atoms under distinct_irr (whose groups all
    carry the form)."""
    if distinct_irr:
        return comb(atoms, k)
    if lone_ok:
        return comb(k + atoms - 1, atoms - 1)
    return comb(k // 2 + atoms - 1, atoms - 1) if k % 2 == 0 else 0


@lru_cache(maxsize=None)
def _branch_weights(flag_counts, lone_ok: bool, distinct_irr: bool, k: int):
    """(flag union, ways) for each union of twist flags reachable by k
    copies of a group whose atoms fall into flag classes of these sizes;
    a class adds its flags to the union iff it gets a copy."""
    ways = {(0, 0): 1}  # (copies spread so far, flag union) -> ways
    for flags, atoms in enumerate(flag_counts):
        if not atoms:
            continue
        grown: Counter = Counter()
        for (spent, union), w in ways.items():
            grown[spent, union] += w
            for j in range(1, k - spent + 1):
                spread = _spread(j, atoms, lone_ok, distinct_irr)
                if spread:
                    grown[spent + j, union | flags] += w * spread
        ways = grown
    return tuple(sorted((union, w) for (spent, union), w in ways.items() if spent == k))


def _assignments(atoms: int, lone_ok: bool, distinct_irr: bool, k: int):
    """The (atom index, multiplicity) lists, indices ascending, that
    _spread counts for k copies over this many atoms; without a lone
    copy the atoms are picked in pairs, so each multiplicity doubles."""
    if distinct_irr:
        picks, copies = combinations(range(atoms), k), 1
    elif lone_ok:
        picks, copies = combinations_with_replacement(range(atoms), k), 1
    else:
        picks, copies = combinations_with_replacement(range(atoms), k // 2), 2
    for pick in picks:
        yield [(a, copies * len(list(run))) for a, run in groupby(pick)]


class _Group(NamedTuple):
    atoms: tuple[IrreducibleDescriptor, ...]
    atom_flags: tuple[int, ...]  # per atom, as in _pool_flags
    need: tuple[int, ...]  # blocks used by one copy, counted per target block size
    used: tuple[tuple[int, int], ...]  # (size index, count) where need > 0
    lone_ok: bool  # one copy may carry the ambient form itself
    weights: tuple  # weights[k]: _branch_weights of k copies


class _Search:
    """The counting recursion of one query and its memo.

    count(i, rem, flags) is the pair (completions with the twist-0 flag,
    those with both flags) over multiplicities of groups i, i+1, ...
    that use up the nontrivial blocks in rem, with flags set so far.
    """

    def __init__(self, groups, sizes, target, form, distinct_irr, p):
        self.groups = groups
        self.target = target
        self.form = form
        self.distinct_irr = distinct_irr
        self.p = p
        self.one = sizes.index(1) if 1 in sizes else None
        # the last group using each block size: past it, that size is stuck
        self.last = [
            max((i for i, g in enumerate(groups) if g.need[j]), default=-1)
            for j in range(len(sizes))
        ]
        self.memo: dict = {}

    def ones(self, rem) -> int:
        return rem[self.one] if self.one is not None else 0

    def trivial_ok(self, ones: int) -> bool:
        if self.distinct_irr and ones > 1:
            return False
        return self.form is not FormType.SYMPLECTIC or ones % 2 == 0

    def stop(self, rem) -> int | None:
        """First group index from which rem can no longer be used up, or
        None when only 1-blocks remain."""
        stuck = [
            self.last[j] + 1 for j, r in enumerate(rem) if r and j != self.one
        ]
        return min(stuck) if stuck else None

    def branches(self, i, rem):
        """(k, remaining, weights) for each total multiplicity k >= 1 of
        group i that some spread over its atoms admits."""
        group = self.groups[i]
        k_max = min(rem[j] // n for j, n in group.used)
        for k in range(1, k_max + 1):
            weights = group.weights[k]
            if weights:
                yield k, tuple(r - k * n for r, n in zip(rem, group.need)), weights

    def count(self, i, rem, flags) -> tuple[int, int]:
        memo = self.memo
        hit = memo.get((i, rem, flags))
        if hit is not None:
            return hit
        stop = self.stop(rem)
        if stop is None:
            ok = flags & 1 and self.trivial_ok(self.ones(rem))
            memo[(i, rem, flags)] = value = (1, int(flags == 3)) if ok else (0, 0)
            return value
        # follow k = 0 forward to a known or stuck state, then fill the
        # chain in backwards: the recursion nests only for k >= 1
        j = i
        while j < stop and (j, rem, flags) not in memo:
            j += 1
        value = memo.get((j, rem, flags), (0, 0))
        for j in range(j - 1, i - 1, -1):
            n0, both = value
            for _, r, weights in self.branches(j, rem):
                for union, ways in weights:
                    a, b = self.count(j + 1, r, flags | union)
                    n0 += ways * a
                    both += ways * b
            value = memo[(j, rem, flags)] = (n0, both)
        return value

    def all_trivial_ok(self) -> bool:
        """The structure made of trivial summands only is admissible."""
        ones = self.ones(self.target)
        return self.stop(self.target) is None and ones > 0 and self.trivial_ok(ones)

    def classes(self) -> tuple[EmbeddingClass, ...]:
        memo = self.memo
        out = []
        chosen: list = []
        shared: dict = {}  # (group, atom index) -> (Irr, Doubled), one per listing

        def summands(j, a):
            if (j, a) not in shared:
                atom = self.groups[j].atoms[a]
                shared[j, a] = Irr(atom), Doubled(atom)
            return shared[j, a]

        def walk(i, rem, flags):
            # some completion of (i, rem, flags) has the twist-0 flag
            stop = self.stop(rem)
            if stop is None:
                out.append(_embedding_class(chosen, self.ones(rem), self.p))
                return
            here = self.count(i, rem, flags)[0]
            for j in range(i, stop):
                # the memo holds every (j, rem, flags) below stop; group j
                # is used iff skipping it loses completions
                rest = memo.get((j + 1, rem, flags), (0, 0))[0]
                if rest != here:
                    group = self.groups[j]
                    for k, r, weights in self.branches(j, rem):
                        live = {
                            union for union, _ in weights
                            if self.count(j + 1, r, flags | union)[0]
                        }
                        if not live:
                            continue
                        for assignment in _assignments(
                            len(group.atoms), group.lone_ok, self.distinct_irr, k
                        ):
                            union = 0
                            for a, _ in assignment:
                                union |= group.atom_flags[a]
                            if union in live:
                                chosen.extend(
                                    (summands(j, a), m) for a, m in assignment
                                )
                                walk(j + 1, r, flags | union)
                                del chosen[-len(assignment):]
                if not rest:
                    return
                here = rest

        if self.count(0, self.target, 0)[0]:
            walk(0, self.target, 0)
        if self.all_trivial_ok():
            out.append(_embedding_class((), self.ones(self.target), self.p))
        return tuple(sorted(out, key=EmbeddingClass.sort_key))


def enumerate_embeddings(
    form: FormType,
    dim: int,
    partition,
    p: int,
    max_twist: int = 3,
    distinct_irr: bool = False,
) -> EnumerationResult:
    """All completely reducible module structures with the given Jordan
    type and form, up to twist-shift equivalence.

    growth_flag reports whether the count at max_twist strictly exceeds
    the count at max_twist - 1; a growing family means infinitely many
    classes in the limit (one per twist), hence non-uniqueness.

    With distinct_irr=True the search is restricted to pairwise
    inequivalent irreducible summands carrying the ambient form, no
    hyperbolic doubling and at most one trivial line (the decomposition
    hypothesis for irreducible orthogonal sums).

    The count is exact on return; the classes are built when
    result.classes is first read.  Queries whose search could exceed
    MAX_SEARCH raise InvalidQueryError before anything is built.
    """
    blocks = tuple(partition.parts) if hasattr(partition, "parts") else tuple(partition)
    if not is_prime(p):
        raise InvalidQueryError(f"{p} is not prime")
    if form is not FormType.NONE and p == 2:
        raise InvalidQueryError("forms need odd characteristic")
    if form is FormType.EITHER:
        raise InvalidQueryError("enumerate by a concrete form, or FormType.NONE")
    if sum(blocks) != dim:
        raise InvalidQueryError(f"partition sums to {sum(blocks)}, dim is {dim}")
    if any(b > p for b in blocks):
        raise InvalidQueryError("blocks above p never have order p")
    if max_twist < 1:
        raise InvalidQueryError("max_twist must be >= 1")

    target = Counter(blocks)
    states = prod(m + 1 for m in target.values())
    pool = _pool_size(p, max_twist, dim)
    if pool * states > MAX_SEARCH:
        raise InvalidQueryError(
            f"search too large: {pool} or more atoms times {states} block "
            f"states exceeds the budget {MAX_SEARCH}"
        )

    sizes = sorted(target, reverse=True)
    where = {size: j for j, size in enumerate(sizes)}
    groups = []
    for (jordan, atom_form, descs), (atom_flags, flag_counts) in zip(
        _atom_pool(p, max_twist, dim), _pool_flags(p, max_twist, dim)
    ):
        if any(target[size] < n for size, n in jordan):
            continue
        lone_ok = form is FormType.NONE or atom_form is form
        if distinct_irr and not lone_ok:
            continue  # every summand would have to be a lone copy
        need = [0] * len(sizes)
        for size, n in jordan:
            need[where[size]] = n
        need = tuple(need)
        used = tuple((j, n) for j, n in enumerate(need) if n)
        weights = tuple(
            _branch_weights(flag_counts, lone_ok, distinct_irr, k)
            for k in range(min(target[sizes[j]] // n for j, n in used) + 1)
        )
        groups.append(_Group(descs, atom_flags, need, used, lone_ok, weights))
    search = _Search(
        groups, sizes, tuple(target[size] for size in sizes), form, distinct_irr, p
    )
    count, both = search.count(0, search.target, 0)
    if search.all_trivial_ok():
        count += 1
    return EnumerationResult(count, max_twist, both > 0, search.classes)


def dn_partition_list(n: int, p: int, max_twist: int = 3) -> set[tuple[int, ...]]:
    """Partitions of 2n realizable as a sum of pairwise inequivalent
    orthogonal irreducibles (plus at most one trivial line): the Jordan
    types available to suitably decomposed A1-subgroups of SO(2n)."""
    out = set()
    for blocks in partitions_bounded(2 * n, p):
        result = enumerate_embeddings(
            FormType.ORTHOGONAL, 2 * n, blocks, p, max_twist, distinct_irr=True
        )
        # at most one trivial line is allowed, so for 2n >= 2 every
        # counted class has a nontrivial summand
        if result.count:
            out.add(blocks)
    return out


def partitions_bounded(total: int, max_part: int):
    """All partitions of total with parts <= max_part, descending."""
    results = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            results.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(total, max_part, [])
    return results
