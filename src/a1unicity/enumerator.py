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

The count is one memoized recursion over groups of atoms: the atoms of
one Jordan type and form, which differ only in their weight tuples'
twists.  A group is stored as its weight tuples and the number of its
atoms with each value of two twist flags (bit 0: a factor of twist 0,
bit 1: a factor of twist max_twist).  With T = max_twist, the k-subsets
of twists 0..T split into C(T-1, k-2) holding both 0 and T, C(T-1, k-1)
holding only 0, as many holding only T, and C(T-1, k) holding neither,
so the count builds no atom.  At a group it chooses a total multiplicity
K and the union F of the twist flags of the atoms that get a copy, and
weights that branch by the number of ways to spread K copies over the
group's atoms with flag union F.  Over N atoms, k copies spread in

  * C(k + N - 1, N - 1) ways when a lone copy carries the ambient form;
  * C(k/2 + N - 1, N - 1) ways for even k, and none for odd k, when it
    does not (a lone copy must carry the form itself; pairs always pair
    up hyperbolically);
  * C(N, k) ways with distinct_irr, where a group whose lone copy
    cannot carry the form is unusable;

and inclusion-exclusion over the flag classes a spread may use gives the
ways for each union F exactly.  At the leaf the leftover 1-blocks are
the trivial summand: an even number of them under a symplectic form,
and at most one with distinct_irr.

The state is the group index and the remaining block counts, and its
memo entry tallies the completions by the union of their twist flags.
A multiset whose least twist is s > 0 is the shift of one whose least
twist is 0, so the classes are exactly the completions with the twist-0
flag, and no shifts need deduplicating; the all-trivial structure adds
one more when it is admissible.  The family grows with the twist bound
iff some completion sets both flags.  Skipping a group (K = 0) is
followed forward in a loop, so the recursion nests once per group chosen
with K >= 1, which uses up at least one nontrivial block.  The memo
belongs to one query and is freed with its result.

The listing is lazy: EnumerationResult.classes walks the same memo on
first read and enters only branches whose count is nonzero.  At a group
it splits K over the flag classes whose union is a live F and expands
the concrete spreads of each part over that class's atoms, which it
builds on first use.  Every spread it expands completes to at least one
class, so the listing's work follows its classes, and a flag class whose
atoms it builds has no more atoms than the listing has classes (or, with
distinct_irr, than the partition has blocks).  The classes are sorted at
the end, so the walk's order is free.  One Irr and one Doubled per atom
are shared by every class of the listing, so each summand's order key
and text are computed once.  Each class's descriptor is built from these
already validated summands and formatted once, in canonical form:

  * the minimum twist over all factors of all nontrivial summands is 0;
  * m isomorphic copies of an irreducible M are stored as floor(m/2)
    hyperbolic pairs Doubled(M) plus (m mod 2) plain summands, which is
    both the canonical shape and exactly what form-admissibility needs
    (a lone M must carry the ambient form itself; pairs always pair up
    hyperbolically);
  * all trivial summands merge into one Trivial(r).

Queries are bounded before any search by MAX_SEARCH.  The weight tuples
walked, times the remaining-block states, must stay within it, and so
must the memo's flag tallies for the groups that fit the partition
times the copies each can take.  An atom's largest Jordan block is
min(p, 1 + its weight sum), so when every block is below p only the
weight tuples adding up to less than the largest block are walked.  A
listing builds at most MAX_LISTED classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, groupby, islice
from math import comb, prod
from operator import attrgetter
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
    weights_form,
)

# Bound on the work of one query's count, checked before it starts.
# Two products must stay within it:
#   * (weight tuples walked) x (block states), where the group table
#     computes one Jordan type per weight tuple;
#   * (block states) x (4 flag unions) x (copies that fit, summed over
#     the groups that fit the partition): the memo's (group, state)
#     entries, each a tally over 4 flag unions, times the branches each
#     can take.
# Every fitting group takes at least one copy, so (fitting groups) x
# (block states) <= MAX_SEARCH / 4 = 25,000.  The recursion nests once
# per chosen group, and each uses up a nontrivial block, of which there
# are fewer than the block states; so it is never deeper than
# min(groups, blocks) <= sqrt(25,000) < 159.
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


@lru_cache(maxsize=None)
def _trivial(multiplicity: int) -> Trivial:
    return Trivial(multiplicity)


def _embedding_class(multiplicities, trivial: int, p: int) -> EmbeddingClass:
    """The class with these ((Irr, Doubled) of one irreducible,
    multiplicity) pairs, already shifted to least twist 0 and checked at
    p, plus `trivial` trivial summands."""
    summands: list = []
    for (irr, doubled), mult in multiplicities:
        summands.extend([doubled] * (mult // 2))
        if mult % 2:
            summands.append(irr)
    summands.sort(key=attrgetter("key"))
    if trivial:
        summands.append(_trivial(trivial))
    return EmbeddingClass(ModuleDescriptor._checked(tuple(summands), p))


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


def _weight_tuples(p: int, max_twist: int, max_dim: int, max_sum: int):
    """The weight tuples of the atoms, depth first: at most max_twist + 1
    weights in 1..p-1 that add up to at most max_sum and whose dimensions
    w + 1 multiply to at most max_dim.  Each tuple of k weights is an
    atom for every choice of k increasing twists in 0..max_twist."""

    def grow(weights, room, left):
        for weight in range(1, min(p, room, left + 1)):
            extended = weights + (weight,)
            yield extended
            if len(extended) <= max_twist:
                yield from grow(extended, room // (weight + 1), left - weight)

    return grow((), max_dim, max_sum)


@lru_cache(maxsize=None)
def _tuples(p: int, max_twist: int, max_dim: int, max_sum: int):
    """The first MAX_SEARCH + 1 of _weight_tuples(p, max_twist, max_dim,
    max_sum), so walking them stays bounded for any input."""
    return tuple(islice(_weight_tuples(p, max_twist, max_dim, max_sum), MAX_SEARCH + 1))


def _flag_twists(k: int, max_twist: int, flags: int):
    """(low, high, free) for the k-subsets of twists 0..max_twist that
    hold 0 iff bit 0 of flags is set and max_twist iff bit 1 is: low and
    high are the twists the flags fix, and the free others come from
    1..max_twist-1, in C(max_twist - 1, free) ways (none when free < 0)."""
    low = (0,) if flags & 1 else ()
    high = (max_twist,) if flags & 2 else ()
    return low, high, k - len(low) - len(high)


@lru_cache(maxsize=None)
def _atoms_per_flag(max_twist: int, k: int) -> tuple[int, ...]:
    """How many k-subsets of twists 0..max_twist have each flag value."""
    out = []
    for flags in range(4):
        _, _, free = _flag_twists(k, max_twist, flags)
        out.append(comb(max_twist - 1, free) if free >= 0 else 0)
    return tuple(out)


@lru_cache(maxsize=None)
def _group_key(p: int, weights: tuple[int, ...]):
    """((block size, count) pairs, form type) of the atoms with these
    weights: twists change neither the Jordan type nor the form.  Weight
    tuples of one Jordan type can differ in form (J_p tensor J_a is a
    copies of J_p), so the form is part of the group key."""
    blocks = tensor_multi([w + 1 for w in weights], p).blocks
    return tuple(Counter(blocks).items()), weights_form(weights)


@lru_cache(maxsize=None)
def _group_table(p: int, max_twist: int, max_dim: int, max_sum: int):
    """The twisted tensor-product irreducibles of _tuples(p, max_twist,
    max_dim, max_sum), with twists drawn from 0..max_twist, grouped by
    _group_key: rows ((block size, count) pairs, form type, weight tuples,
    atoms per twist-flag value)."""
    groups: dict = {}
    for weights in _tuples(p, max_twist, max_dim, max_sum):
        tuples, atoms = groups.setdefault(_group_key(p, weights), ([], [0] * 4))
        tuples.append(weights)
        for flags, n in enumerate(_atoms_per_flag(max_twist, len(weights))):
            atoms[flags] += n
    return tuple(
        (blocks, form, tuple(tuples), tuple(atoms))
        for (blocks, form), (tuples, atoms) in groups.items()
    )


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
    for weights in _weight_tuples(p, max_dim.bit_length(), max_dim, max_dim):
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
    if not atoms:
        return int(k == 0)
    if lone_ok:
        return comb(k + atoms - 1, atoms - 1)
    return comb(k // 2 + atoms - 1, atoms - 1) if k % 2 == 0 else 0


@lru_cache(maxsize=None)
def _branch_weights(flag_counts, lone_ok: bool, distinct_irr: bool, k: int):
    """(flag union, ways) for each union of twist flags reachable by k
    copies of a group whose atoms fall into flag classes of these sizes;
    a class adds its flags to the union iff it gets a copy.

    The spreads over the classes whose flags lie within a union V number
    _spread(k, their atoms); the union is exactly U by inclusion-exclusion
    over the V within U."""
    within = [
        _spread(k, sum(n for f, n in enumerate(flag_counts) if f | v == v),
                lone_ok, distinct_irr)
        for v in range(4)
    ]
    out = []
    for union in range(4):
        ways = sum(
            (-1) ** bin(union ^ v).count("1") * within[v]
            for v in range(4) if v | union == union
        )
        if ways:
            out.append((union, ways))
    return tuple(out)


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


_NONE = (0, 0, 0, 0)
_LEAF = (1, 0, 0, 0)  # the trivial summand alone adds no twist flag


class _Group(NamedTuple):
    tuples: tuple[tuple[int, ...], ...]  # weight tuples of its atoms
    flag_counts: tuple[int, ...]  # atoms per twist-flag value
    need: tuple[int, ...]  # blocks used by one copy, counted per target block size
    used: tuple[tuple[int, int], ...]  # (size index, count) where need > 0
    lone_ok: bool  # one copy may carry the ambient form itself
    weights: tuple  # weights[k]: _branch_weights of k copies


class _Search:
    """The counting recursion of one query and its memo.

    tally(i, rem)[u] counts the completions over multiplicities of groups
    i, i+1, ... that use up the nontrivial blocks in rem and whose chosen
    factors have twist-flag union u.
    """

    def __init__(self, groups, sizes, target, form, distinct_irr, p, max_twist):
        self.groups = groups
        self.target = target
        self.form = form
        self.distinct_irr = distinct_irr
        self.p = p
        self.max_twist = max_twist
        self.one = sizes.index(1) if 1 in sizes else None
        # the last group using each block size: past it, that size is stuck
        self.last = [
            max((i for i, g in enumerate(groups) if g.need[j]), default=-1)
            for j in range(len(sizes))
        ]
        self.memo: dict = {}
        self.stops: dict = {}

    def ones(self, rem) -> int:
        return rem[self.one] if self.one is not None else 0

    def trivial_ok(self, ones: int) -> bool:
        if self.distinct_irr and ones > 1:
            return False
        return self.form is not FormType.SYMPLECTIC or ones % 2 == 0

    def stop(self, rem) -> int | None:
        """First group index from which rem can no longer be used up, or
        None when only 1-blocks remain."""
        if rem not in self.stops:
            stuck = [
                self.last[j] + 1 for j, r in enumerate(rem) if r and j != self.one
            ]
            self.stops[rem] = min(stuck) if stuck else None
        return self.stops[rem]

    def branches(self, i, rem):
        """(k, remaining, weights) for each total multiplicity k >= 1 of
        group i that some spread over its atoms admits."""
        group = self.groups[i]
        k_max = min(rem[j] // n for j, n in group.used)
        for k in range(1, k_max + 1):
            weights = group.weights[k]
            if weights:
                yield k, tuple(r - k * n for r, n in zip(rem, group.need)), weights

    def tally(self, i, rem) -> tuple[int, int, int, int]:
        memo = self.memo
        hit = memo.get((i, rem))
        if hit is not None:
            return hit
        stop = self.stop(rem)
        if stop is None:
            memo[(i, rem)] = value = _LEAF if self.trivial_ok(self.ones(rem)) else _NONE
            return value
        # follow k = 0 forward to a known or stuck state, then fill the
        # chain in backwards: the recursion nests only for k >= 1
        j = i
        while j < stop and (j, rem) not in memo:
            j += 1
        value = memo.get((j, rem), _NONE)
        for j in range(j - 1, i - 1, -1):
            acc = list(value)
            for _, r, weights in self.branches(j, rem):
                sub = self.tally(j + 1, r)
                for union, ways in weights:
                    for u, n in enumerate(sub):
                        if n:
                            acc[u | union] += ways * n
            value = memo[(j, rem)] = tuple(acc)
        return value

    def live(self, i, rem, flags) -> int:
        """The completions of (i, rem) that have the twist-0 flag once
        these flags are set."""
        tally = self.tally(i, rem)
        return sum(tally) if flags & 1 else tally[1] + tally[3]

    def all_trivial_ok(self) -> bool:
        """The structure made of trivial summands only is admissible."""
        ones = self.ones(self.target)
        return self.stop(self.target) is None and ones > 0 and self.trivial_ok(ones)

    def classes(self) -> tuple[EmbeddingClass, ...]:
        memo = self.memo
        out = []
        chosen: list = []
        built: dict = {}  # (group, flags) -> its atoms' (Irr, Doubled), one per listing
        split: dict = {}  # (group, copies, flag union) -> spreads

        def atoms(j, flags):
            """The atoms of group j with these twist flags, in weight tuple
            then twist order."""
            if (j, flags) not in built:
                pool = built[j, flags] = []
                top = self.max_twist
                for weights in self.groups[j].tuples:
                    low, high, free = _flag_twists(len(weights), top, flags)
                    if free < 0:
                        continue
                    # combinations reads its whole input first: C(T - 1, 0)
                    # = 1 must not read 1..T-1
                    inners = combinations(range(1, top), free) if free else [()]
                    for inner in inners:
                        atom = IrreducibleDescriptor(
                            tuple(map(IrreducibleFactor, weights, low + inner + high))
                        )
                        pool.append((Irr(atom), Doubled(atom)))
            return built[j, flags]

        def spreads(j, k, union):
            """Every spread of k copies over group j's atoms whose used twist
            flags have this union, as ((Irr, Doubled), multiplicity) lists,
            built on first use.  It gives each flag class within the union
            a part of k, and builds a class's atoms only for a part that
            the later classes can complete."""
            group = self.groups[j]
            lone_ok, distinct_irr = group.lone_ok, self.distinct_irr
            step = 1 if lone_ok or distinct_irr else 2  # pairs only: k is even

            def fill(f, left, got):
                if f == 4:
                    if not left and got == union:
                        yield []
                    return
                yield from fill(f + 1, left, got)
                n_atoms = group.flag_counts[f]
                if not n_atoms or f | union != union:
                    return
                for part in range(step, left + 1, step):
                    rests = _spread(part, n_atoms, lone_ok, distinct_irr) and list(
                        fill(f + 1, left - part, got | f)
                    )
                    if rests:
                        pool = atoms(j, f)
                        for assignment in _assignments(
                            len(pool), lone_ok, distinct_irr, part
                        ):
                            head = [(pool[a], m) for a, m in assignment]
                            yield from (head + rest for rest in rests)

            if (j, k, union) not in split:
                split[j, k, union] = list(fill(0, k, 0))
            return split[j, k, union]

        def walk(i, rem, flags):
            # some completion of (i, rem, flags) has the twist-0 flag
            stop = self.stop(rem)
            if stop is None:
                out.append(_embedding_class(chosen, self.ones(rem), self.p))
                return
            here = self.live(i, rem, flags)
            for j in range(i, stop):
                # the memo holds every (j, rem) below stop; group j
                # is used iff skipping it loses completions
                rest = self.live(j + 1, rem, flags)
                if rest != here:
                    for k, r, weights in self.branches(j, rem):
                        for union, _ in weights:
                            if not self.live(j + 1, r, flags | union):
                                continue
                            for spread in spreads(j, k, union):
                                chosen.extend(spread)
                                walk(j + 1, r, flags | union)
                                del chosen[-len(spread):]
                if not rest:
                    return
                here = rest

        if self.live(0, self.target, 0):
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

    target = dict(Counter(blocks))
    states = prod(m + 1 for m in target.values())
    # the largest Jordan block of an atom is min(p, 1 + its weight sum),
    # and a group fits only if that is a block of the partition
    top = max(blocks, default=1)
    max_sum = top - 1 if top < p else dim
    walked = len(_tuples(p, max_twist, dim, max_sum))
    if walked * states > MAX_SEARCH:
        raise InvalidQueryError(
            f"search too large: {walked} or more weight tuples times {states} "
            f"block states exceeds the budget {MAX_SEARCH}"
        )
    sizes = sorted(target, reverse=True)
    where = {size: j for j, size in enumerate(sizes)}
    groups = []
    table = _group_table(p, max_twist, dim, max_sum)
    for jordan, atom_form, tuples, flag_counts in table:
        lone_ok = form is FormType.NONE or atom_form is form
        if distinct_irr and not lone_ok:
            continue  # every summand would have to be a lone copy
        most = min(target.get(size, 0) // n for size, n in jordan)  # copies that fit
        if not most:
            continue
        used = tuple((where[size], n) for size, n in jordan)
        need = [0] * len(sizes)
        for j, n in used:
            need[j] = n
        weights = tuple(
            _branch_weights(flag_counts, lone_ok, distinct_irr, k)
            for k in range(most + 1)
        )
        groups.append(_Group(tuples, flag_counts, tuple(need), used, lone_ok, weights))
    copies = sum(len(g.weights) - 1 for g in groups)
    if states * 4 * copies > MAX_SEARCH:
        raise InvalidQueryError(
            f"search too large: {states} block states times 4 flag unions "
            f"times {copies} copies of {len(groups)} groups exceeds the budget "
            f"{MAX_SEARCH}"
        )
    search = _Search(
        groups, sizes, tuple(target[size] for size in sizes), form, distinct_irr,
        p, max_twist,
    )
    count = search.live(0, search.target, 0) + search.all_trivial_ok()
    growing = search.tally(0, search.target)[3] > 0  # a completion sets both flags
    return EnumerationResult(count, max_twist, growing, search.classes)


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
