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

Let N_b be the number of structures whose twists all lie in 0..b, and
T = max_twist.  A multiset with twists in 1..T is the shift of one with
twists in 0..T-1, so the classes number N_T - N_{T-1}, and no shifts
need deduplicating.  The count at T exceeds the count at T - 1 (the
growth flag) iff N_T - N_{T-1} > N_{T-1} - N_{T-2}.  So the count is one
memoized recursion that counts at the three twist bounds T, T - 1 and
T - 2 side by side, over groups of atoms: the atoms of one Jordan type
and form, which differ only in their weight tuples' twists.  A group is
stored as its weight tuples and its atoms at each bound b: a tuple of k
weights is an atom for each of the C(b + 1, k) k-subsets of twists
0..b, so the count builds no atom.  At a group it chooses a total
multiplicity K, and weights that branch at each bound by the number of
ways to spread K copies over the group's atoms at that bound.  Over N
atoms, k copies spread in

  * C(k + N - 1, N - 1) ways when a lone copy carries the ambient form
    (sl2modules.lone_copy_admits, asked once per group key for each
    ambient form);
  * C(k/2 + N - 1, N - 1) ways for even k, and none for odd k, when it
    does not: the copies pair up hyperbolically;
  * C(N, k) ways with distinct_irr, where a group whose lone copy
    cannot carry the form is skipped.

At the leaf the leftover 1-blocks are the trivial summand, of a size
_trivial_sizes admits.  At T = 1 the bound T - 2 admits no twist, so
N_{-1} counts the all-trivial structure alone.

The state is the group index and the remaining block counts, and its
memo entry tallies the completions at the three bounds.  The classes
are the completions that use a factor of twist 0; the all-trivial
structure lies in every N_b, so it adds one more when it is admissible.
Skipping a group (K = 0) is followed forward in a loop, so the recursion
nests once per group chosen with K >= 1, which uses up at least one
nontrivial block.  The memo belongs to one query and is freed with its
result.

The listing is lazy: EnumerationResult.classes walks the same memo on
first read and enters only branches whose count is nonzero.  A
completion is a class iff it uses a factor of twist 0, so the walk
follows that alone.  It splits a group's atoms into two pools, those
with a factor of twist 0 and the others, the twist-0 pool first, and
names each spread of K copies once: either its least atom is from the
twist-0 pool (the rest come from both pools) or all its atoms are from
the other pool.  The spreads within the other pool are the shifts of
the spreads one twist bound lower, so they number the ways at T - 1,
and the first family the ways at T less those.  A pool is built on
first use, the other pool only for a spread of two or more picks.
Every spread it expands completes to at least one class, and every atom
of a pool it builds is in one of those spreads, so the listing's work
follows its classes and each atom it builds is in a listed class.  The
classes are sorted at the end, so the walk's order is free.  One Irr
and one Doubled per atom are shared by every class of the listing, so
each summand's order key and text are computed once.  Each class's
descriptor is built from these already validated summands and formatted
once, in canonical form:

  * the minimum twist over all factors of all nontrivial summands is 0;
  * m isomorphic copies of an irreducible M are stored as floor(m/2)
    hyperbolic pairs Doubled(M) plus (m mod 2) plain summands, which is
    both the canonical shape and exactly what form-admissibility needs;
  * all trivial summands merge into one Trivial(r).

Queries are bounded before any search by MAX_SEARCH.  The weight tuples
walked, times the remaining-block states, must stay within it (a walk
longer than MAX_SEARCH is not kept), and so must the memo's tallies at
three twist bounds for the groups that fit the partition times the
copies each can take, summed before any group's ways are fetched.  An
atom's largest Jordan block is min(p, 1 + its weight sum), so when every
block is below p only the weight tuples adding up to less than the
largest block are walked.  A listing builds at most MAX_LISTED classes.

count_table answers every partition up to a dimension bound D at once:
a partition's count is a coefficient of a product with one factor per
group.  It keeps a table from block multisets (the atoms' own 1-blocks
included) to tallies at the three twist bounds, starting from the
empty multiset, and multiplies in the rows of _group_table(p, max_twist,
D, D) one at a time: K copies of a group move a multiset's tally to the
multiset plus K times the group's blocks, weighted by _branch_weights as
in the search.  It then reads each multiset out with every admissible trivial
remainder that fits in D, and adds the all-trivial structure; a
partition's count and growth flag come from its summed tally exactly
as in the search.  Each (multiset, K) pair of the product is a step,
and each step reaches at most one new multiset, so refusing past
MAX_SEARCH steps also bounds the table, and bounds the work where few
multisets take many copies each (p = 2).  The weight tuples, and the
(multiset, trivial remainder) pairs to read out, are bounded by
MAX_SEARCH too, each before its pass starts.  The table shares
the atom groups (_group_table) and the ways per twist bound
(_branch_weights) with the search; what it derives again is the
composition: the search's memoized recursion over remaining blocks,
its stuck-state pruning and its chaining of skipped groups.
enumerate_embeddings keeps the search, since the listing walks its
memo.

Below block p the enumeration does not depend on p.  With every block
below p, the search walks only the atoms whose weights add up to less
than the largest block b.  Every tensor product such an atom forms,
J(m) x J(n) with m + n - 1 <= 1 + (its weight sum) <= b < p, stays in
the Clebsch-Gordan branch of jordan._tensor_pair_blocks.  The weights,
the forms (the parity of the weight sum) and the atoms per twist bound
do not see p either.  So the count, the growth flag and the listing are
the same at every prime above the largest block.  The tables rely on it:
when every weight sum is at most p - 2, _tuples and _group_table (and
count_table's, when max_dim <= p - 2) are read at one canonical prime,
the least prime >= max_sum + 2 (_table_prime), so one table serves
every prime above the blocks and the caches do not grow with p.
test_tables_below_block_p_do_not_depend_on_p checks that premise on the
tables themselves, at three primes above each canonical one.  Two more
tests pin the answers: test_enumeration_below_block_p_does_not_depend_on_p
compares two primes on every partition of a small range, and
test_shared_search_equals_the_search_at_each_prime compares each prime
of the classifier-vs-enumeration suite.  That suite relies on it too: it
enumerates each partition once and reuses the result at every listed
prime above the blocks.

The count is of module structures with a form up to isomorphism, which
is conjugacy of A1s under O(V); under Sp(V) and SL(V) the two agree.
For SO(V) in odd dimension -I lies in O(V) but not SO(V) and is
central, so they agree too.  In even dimension the O(V)-class of a
completely reducible X splits into two SO(V)-classes iff the
centralizer of X in O(V) lies in SO(V).  With V|X the sum of m_i copies
of pairwise distinct irreducibles M_i, that centralizer is the product
of O(m_i) over the orthogonal M_i and Sp(m_i) over the symplectic ones,
and an element of it has determinant the product of det(g_i)^dim(M_i).
An odd-dimensional M_i is orthogonal, so the O(V)-class splits iff V|X
has no odd-dimensional summand, trivial lines included.  When it
splits and u in X has a partition that is not very even, an element of
determinant -1 centralizing u conjugates X to a second overgroup of u
that is not SO(V)-conjugate to X.  So a count of 1 means Unique only
when the one class has such a summand or the partition is very even
(then the split moves u to its other SO(V)-class).  A test pins that
every SO Unique verdict of the suite's range meets this.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import (
    combinations, combinations_with_replacement, compress, groupby, islice, takewhile,
)
from math import comb
from operator import attrgetter, sub
from typing import Callable, NamedTuple

from .errors import Frozen, InvalidQueryError, NotCompletelyReducibleError
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
    lone_copy_admits,
    trivial_step,
    weights_form,
)

# Bound on the work of one query's count, checked before it starts.
# Two products must stay within it:
#   * (weight tuples walked) x (block states), where the group table
#     computes one Jordan type per weight tuple;
#   * (block states) x (3 twist bounds) x (copies that fit, summed over
#     the groups that fit the partition): the memo's (group, state)
#     entries, each a tally at 3 twist bounds, times the branches each
#     can take.
# Every fitting group takes at least one copy, so (fitting groups) x
# (block states) <= MAX_SEARCH / 3 = 33,333.  The recursion nests once
# per chosen group, and each uses up a nontrivial block, of which there
# are fewer than the block states; so it is never deeper than
# min(groups, blocks) <= sqrt(33,333) < 183.
MAX_SEARCH = 100_000

# Bound on the classes one listing builds (about 1 kB each).
MAX_LISTED = 50_000

# The ambient forms a query may name, and the trivial step of each.  A
# query is turned into its index here once, so the search and the cache
# keys read no FormType member and hash none (each costs about 0.1 us).
_AMBIENT = (FormType.NONE, FormType.SYMPLECTIC, FormType.ORTHOGONAL)
_TRIVIAL_STEP = tuple(map(trivial_step, _AMBIENT))


class EmbeddingClass(Frozen):
    """One conjugacy class of completely reducible embeddings, named by
    its canonical module descriptor."""

    descriptor: ModuleDescriptor

    def __init__(self, descriptor: ModuleDescriptor):
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "text", format_descriptor(descriptor))

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


class EnumerationResult(Frozen):
    count: int
    max_twist: int
    growth_flag: bool
    _listing: Callable[[], tuple[EmbeddingClass, ...]]  # neither compared nor shown

    def __init__(self, count: int, max_twist: int, growth_flag: bool, _listing):
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "max_twist", max_twist)
        object.__setattr__(self, "growth_flag", growth_flag)
        object.__setattr__(self, "_listing", _listing)

    @cached_property
    def classes(self) -> tuple[EmbeddingClass, ...]:
        """The classes in EmbeddingClass.sort_key order, built on first
        read; more than MAX_LISTED of them raise InvalidQueryError."""
        if self.count > MAX_LISTED:
            raise InvalidQueryError(
                f"{self.count} classes exceed the listing budget {MAX_LISTED}"
            )
        return self._listing()


# bounded: a full selfcheck keeps none and an enumeration-sweep listing phase 4
@lru_cache(maxsize=64)
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


# bounded: a full selfcheck keeps 112 (110 tables and its 2 jordan_menu walks) and an
# enumeration-sweep phase at most 59
@lru_cache(maxsize=256)
def _tuples(p: int, max_twist: int, max_dim: int, max_sum: int):
    """_weight_tuples(p, max_twist, max_dim, max_sum) when there are at
    most MAX_SEARCH of them, else None: the walk stops at MAX_SEARCH + 1,
    so it stays bounded for any input, and a refused walk is not kept."""
    walk = tuple(islice(_weight_tuples(p, max_twist, max_dim, max_sum), MAX_SEARCH + 1))
    return walk if len(walk) <= MAX_SEARCH else None


def _table_prime(p: int, max_sum: int) -> int:
    """The prime whose tables serve weight sums up to max_sum at p: the
    least prime >= max_sum + 2 when max_sum <= p - 2, since below block p
    the tables do not depend on p (see the module docstring), else p."""
    if max_sum > p - 2:
        return p
    q = max_sum + 2
    while not is_prime(q):
        q += 1
    return q


# bounded: a full selfcheck keeps 121, an enumeration-sweep phase at most 56, and one
# D = 50 table (dn_partition_list(25, 13)) 217
@lru_cache(maxsize=1024)
def _group_key(p: int, weights: tuple[int, ...]):
    """((block size, count) pairs, lone) of the atoms with these weights:
    twists change neither the Jordan type nor the form.  lone[a] says
    whether a lone copy carries the ambient form _AMBIENT[a], which
    determines the atoms' form.  Weight tuples of one Jordan type can
    differ in form (J_p tensor J_a is a copies of J_p), so lone is part of
    the group key."""
    blocks = tensor_multi([w + 1 for w in weights], p).blocks
    form = weights_form(weights)
    return tuple(Counter(blocks).items()), tuple(lone_copy_admits(form, a) for a in _AMBIENT)


# bounded: a full selfcheck reads 110 tables and an enumeration-sweep phase at most 59
@lru_cache(maxsize=256)
def _group_table(p: int, max_twist: int, max_dim: int, max_sum: int):
    """The twisted tensor-product irreducibles of _tuples(p, max_twist,
    max_dim, max_sum), with twists drawn from 0..max_twist, grouped by
    _group_key: rows ((block size, count) pairs, lone, weight tuples,
    atoms at each twist bound), where the atoms at bound b, for b = 0, 1,
    2, are those with all twists in 0..max_twist - b: C(max_twist + 1 - b,
    k) per tuple of k weights."""
    groups: dict = {}
    for weights in _tuples(p, max_twist, max_dim, max_sum):
        tuples, atoms = groups.setdefault(_group_key(p, weights), ([], [0] * 3))
        tuples.append(weights)
        for b in range(3):
            atoms[b] += comb(max_twist + 1 - b, len(weights))
    return tuple(
        (blocks, lone, tuple(tuples), tuple(atoms))
        for (blocks, lone), (tuples, atoms) in groups.items()
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
    # at most log2(max_dim) < max_dim.bit_length() factors fit
    walk = _tuples(p, max_dim.bit_length(), max_dim, max_dim)
    if walk is None:
        raise InvalidQueryError(
            f"menu too large: more than {MAX_SEARCH} weight tuples of dimension <= {max_dim}"
        )
    out = []
    for weights in walk:
        if list(weights) != sorted(weights):
            continue
        desc = IrreducibleDescriptor(
            tuple(map(IrreducibleFactor, weights, range(len(weights))))
        )
        if lone_copy_admits(desc.form_type(), form):
            out.append((desc, desc.jordan_type(p)))
    out.sort(key=lambda item: item[0].sort_key())
    return out


def _trivial_sizes(step: int, distinct_irr: bool, room: int) -> range:
    """The admissible trivial summand sizes up to room: multiples of the
    ambient form's trivial_step, and at most one line with distinct_irr."""
    return range(0, (min(room, 1) if distinct_irr else room) + 1, step)


# bounded: count_table asks for every copies count k up to max_dim, while a
# search or a whole selfcheck reuses fewer than 50 entries
@lru_cache(maxsize=256)
def _branch_weights(atoms, lone_ok: bool, distinct_irr: bool, k: int):
    """The ways to spread k copies over a group with these atoms at each
    twist bound: any multiplicities, even ones only when a lone copy
    cannot carry the ambient form, or distinct atoms under distinct_irr
    (whose groups all carry the form)."""
    if distinct_irr:
        return tuple(comb(n, k) for n in atoms)
    if not lone_ok:
        if k % 2:
            return (0,) * len(atoms)
        k //= 2  # the copies pair up hyperbolically
    return tuple(comb(k + n - 1, n - 1) if n else int(k == 0) for n in atoms)


def _joined(value, ways, tally):
    """value plus the completions that tally counts at each twist bound,
    each joined with the spreads that ways counts at that bound."""
    a0, a1, a2 = value
    w0, w1, w2 = ways
    t0, t1, t2 = tally
    return a0 + w0 * t0, a1 + w1 * t1, a2 + w2 * t2


def _assignments(first: int, atoms: int, picks: int, distinct_irr: bool):
    """The (atom index, times picked) lists, indices ascending, of picks
    atoms out of this many, with repeats unless distinct_irr, whose least
    index is below first."""
    chosen = (combinations if distinct_irr else combinations_with_replacement)(
        range(atoms), picks
    )
    # lexicographic order: the picks whose least index is below first lead
    for pick in takewhile(lambda pick: pick[0] < first, chosen):
        yield [(a, len(list(run))) for a, run in groupby(pick)]


_NONE = (0, 0, 0)
_LEAF = (1, 1, 1)  # the trivial summand alone lies within every twist bound


class _Group(NamedTuple):
    tuples: tuple[tuple[int, ...], ...]  # weight tuples of its atoms
    need: tuple[int, ...]  # blocks used by one copy, counted per target block size
    lone_ok: bool  # one copy may carry the ambient form itself
    weights: list  # weights[k - 1]: _branch_weights of k copies, for every k that fits


class _Search:
    """The counting recursion of one query and its memo.

    tally(i, rem)[b] counts the completions over multiplicities of groups
    i, i+1, ... that use up the nontrivial blocks in rem and whose chosen
    factors all have twists in 0..max_twist - b.  The block sizes are
    descending, so a 1-block, if any, is counted last.
    """

    def __init__(self, groups, last, target, has_ones, step, distinct_irr, p, max_twist):
        self.groups = groups
        self.target = target
        self.distinct_irr = distinct_irr
        self.p = p
        self.max_twist = max_twist
        self.has_ones = has_ones
        self.trivials = _trivial_sizes(step, distinct_irr, self.ones(target))
        # past the last group using a nontrivial block size, that size is
        # stuck; compress stops at the shorter input, so a 1-block is no stop
        self.ends = [i + 1 for i in last[:len(last) - has_ones]]
        self.memo: dict = {}

    def ones(self, rem) -> int:
        return rem[-1] if self.has_ones else 0

    def stop(self, rem) -> int:
        """First group index from which rem can no longer be used up, or
        -1 when only 1-blocks remain."""
        return min(compress(self.ends, rem), default=-1)

    def branches(self, i, rem):
        """(k, remaining, weights) for each total multiplicity k >= 1 of
        group i that fits in rem and that some spread over its atoms
        admits."""
        group = self.groups[i]
        r = rem
        for k, weights in enumerate(group.weights, 1):
            r = tuple(map(sub, r, group.need))
            if min(r) < 0:
                return
            if any(weights):
                yield k, r, weights

    def tally(self, i, rem) -> tuple[int, int, int]:
        memo = self.memo
        value = memo.get((i, rem))
        if value is not None:
            return value
        stop = self.stop(rem)
        if stop < 0:
            memo[i, rem] = value = _LEAF if self.ones(rem) in self.trivials else _NONE
            return value
        # follow k = 0 forward to a known or stuck state, then fill the
        # chain in backwards: the recursion nests only for k >= 1
        j = i
        while j < stop and (j, rem) not in memo:
            j += 1
        value = memo.get((j, rem), _NONE)
        groups, tally = self.groups, self.tally
        for j in range(j - 1, i - 1, -1):
            group = groups[j]
            need = group.need
            r = rem
            # self.branches(j, rem), inlined
            for weights in group.weights:
                r = tuple(map(sub, r, need))
                if min(r) < 0:
                    break
                if any(weights):
                    value = _joined(value, weights, tally(j + 1, r))
            memo[j, rem] = value
        return value

    def live(self, i, rem, zero) -> int:
        """The completions of (i, rem) that use a factor of twist 0, or all
        of them when an atom with a factor of twist 0 is already chosen:
        those that avoid twist 0 are the shifts of the completions one
        twist bound lower."""
        top, below, _ = self.tally(i, rem)
        return top if zero else top - below

    def all_trivial_ok(self) -> bool:
        """The structure made of trivial summands only is admissible."""
        ones = self.ones(self.target)
        return self.stop(self.target) < 0 and ones > 0 and ones in self.trivials

    def classes(self) -> tuple[EmbeddingClass, ...]:
        out = []
        chosen: list = []
        built: dict = {}  # (group, zero) -> its pool's (Irr, Doubled), one per listing
        split: dict = {}  # (group, copies, zero) -> spreads

        def atoms(j, zero):
            """Group j's pool of atoms with a factor of twist 0 (zero) or
            of those without one, in weight tuple then twist order."""
            if (j, zero) not in built:
                pool = built[j, zero] = []
                for weights in self.groups[j].tuples:
                    free = len(weights) - zero  # twists drawn from 1..max_twist
                    # combinations reads its whole input first: a lone twist 0
                    # must not read 1..max_twist
                    inners = combinations(range(1, self.max_twist + 1), free) if free else [()]
                    for inner in inners:
                        atom = IrreducibleDescriptor(
                            tuple(map(IrreducibleFactor, weights, (0,) * zero + inner))
                        )
                        pool.append((Irr(atom), Doubled(atom)))
            return built[j, zero]

        def spreads(j, k, zero):
            """The spreads of k copies over group j's atoms, as ((Irr,
            Doubled), multiplicity) lists, built on first use: with zero
            those whose least atom is from the twist-0 pool (the other pool
            follows it), else those within the other pool.  The two name
            every spread once."""
            if (j, k, zero) not in split:
                copies = 1 if self.groups[j].lone_ok else 2
                first = atoms(j, zero)
                # a spread of one pick reads no atom from the other pool
                pool = first + atoms(j, False) if zero and k > copies else first
                split[j, k, zero] = [
                    [(pool[a], copies * n) for a, n in pick]
                    for pick in _assignments(len(first), len(pool), k // copies,
                                             self.distinct_irr)
                ]
            return split[j, k, zero]

        def walk(i, rem, zero):
            # some completion of (i, rem, zero) uses a factor of twist 0
            stop = self.stop(rem)
            if stop < 0:
                out.append(_embedding_class(chosen, self.ones(rem), self.p))
                return
            here = self.live(i, rem, zero)
            for j in range(i, stop):
                # the memo holds every (j, rem) below stop; group j
                # is used iff skipping it loses completions
                rest = self.live(j + 1, rem, zero)
                if rest != here:
                    for k, r, (top, below, _) in self.branches(j, rem):
                        # the spreads that avoid twist 0 are shifts of those
                        # one twist bound lower
                        for used, ways in ((True, top - below), (False, below)):
                            if ways and self.live(j + 1, r, zero or used):
                                for spread in spreads(j, k, used):
                                    chosen.extend(spread)
                                    walk(j + 1, r, zero or used)
                                    del chosen[-len(spread):]
                if not rest:
                    return
                here = rest

        if self.live(0, self.target, False):
            walk(0, self.target, False)
        if self.all_trivial_ok():
            out.append(_embedding_class((), self.ones(self.target), self.p))
        return tuple(sorted(out, key=EmbeddingClass.sort_key))


def _check_query(form: FormType, p: int, max_twist: int, dim: int = 0, blocks=()) -> int:
    """Refuse, with a one-line InvalidQueryError, what neither
    enumerate_embeddings (which passes its partition) nor count_table can
    answer; return the ambient form's index in _AMBIENT."""
    if not is_prime(p):
        raise InvalidQueryError(f"{p} is not prime")
    if p == 2 and form is not _AMBIENT[0]:
        raise InvalidQueryError("forms need odd characteristic")
    if form not in _AMBIENT:
        raise InvalidQueryError("enumerate by a concrete form, or FormType.NONE")
    if sum(blocks) != dim:
        raise InvalidQueryError(f"partition sums to {sum(blocks)}, dim is {dim}")
    if max(blocks, default=0) > p:
        raise InvalidQueryError("blocks above p never have order p")
    if max_twist < 1:
        raise InvalidQueryError("max_twist must be >= 1")
    return _AMBIENT.index(form)


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
    if not blocks:
        raise InvalidQueryError("empty partition")
    if min(blocks) < 1:
        raise InvalidQueryError(f"nonpositive part in {blocks}")
    ambient = _check_query(form, p, max_twist, dim, blocks)

    target = dict.fromkeys(sorted(blocks, reverse=True), 0)  # blocks per size
    for size in blocks:
        target[size] += 1
    sizes, counts = list(target), tuple(target.values())
    states = 1
    for m in counts:
        states *= m + 1
    # the largest Jordan block of an atom is min(p, 1 + its weight sum),
    # and a group fits only if that is a block of the partition
    top = sizes[0]
    max_sum = top - 1 if top < p else dim
    q = _table_prime(p, max_sum)
    walk = _tuples(q, max_twist, dim, max_sum)
    walked = MAX_SEARCH + 1 if walk is None else len(walk)
    if walked * states > MAX_SEARCH:
        raise InvalidQueryError(
            f"search too large: {walked} or more weight tuples times {states} "
            f"block states exceeds the budget {MAX_SEARCH}"
        )
    where = {size: j for j, size in enumerate(sizes)}
    fits = []  # (tuples, need, lone_ok, atoms, most) of each group that fits
    last = [-1] * len(sizes)  # the last group using each block size
    copies = 0
    for jordan, lone, tuples, atoms in _group_table(q, max_twist, dim, max_sum):
        lone_ok = lone[ambient]
        most = min([target.get(size, 0) // n for size, n in jordan])  # copies that fit
        # under distinct_irr every summand is a lone copy
        if not most or distinct_irr and not lone_ok:
            continue
        need = [0] * len(sizes)
        for size, n in jordan:
            j = where[size]
            need[j] = n
            last[j] = len(fits)
        fits.append((tuples, tuple(need), lone_ok, atoms, most))
        copies += most
    if states * 3 * copies > MAX_SEARCH:
        raise InvalidQueryError(
            f"search too large: {states} block states times 3 twist bounds "
            f"times {copies} copies of {len(fits)} groups exceeds the budget "
            f"{MAX_SEARCH}"
        )
    # the ways to spread each number of copies, fetched once the budget admits them
    groups = [
        _Group(tuples, need, lone_ok, [
            _branch_weights(atoms, lone_ok, distinct_irr, k) for k in range(1, most + 1)
        ])
        for tuples, need, lone_ok, atoms, most in fits
    ]
    search = _Search(
        groups, last, counts, sizes[-1:] == [1], _TRIVIAL_STEP[ambient], distinct_irr,
        p, max_twist,
    )
    top, below, lower = search.tally(0, search.target)
    count = top - below + search.all_trivial_ok()
    growing = top - below > below - lower  # more classes at max_twist than one lower
    return EnumerationResult(count, max_twist, growing, search.classes)


def count_table(
    form: FormType,
    max_dim: int,
    p: int,
    max_twist: int = 3,
    distinct_irr: bool = False,
) -> dict[tuple[int, ...], tuple[int, bool]]:
    """(count, growth_flag) of enumerate_embeddings(form, sum(blocks),
    blocks, p, max_twist, distinct_irr) for every partition blocks of
    dimension <= max_dim, descending, whose count is nonzero, from one
    product over the atom groups (see the module docstring).

    Refuses what enumerate_embeddings refuses whatever the partition, and
    raises InvalidQueryError as soon as the weight tuples, the product's
    steps or the (multiset, trivial remainder) pairs to read out pass
    MAX_SEARCH.
    """
    ambient = _check_query(form, p, max_twist)
    q = _table_prime(p, max_dim)

    def too_large(what):
        return InvalidQueryError(
            f"table too large: more than {MAX_SEARCH} {what} of dimension <= {max_dim}"
        )

    if _tuples(q, max_twist, max_dim, max_dim) is None:
        raise too_large("weight tuples")
    # a multiset of blocks is coded as the sum of count * base**(size - 1):
    # no size occurs more than max_dim times
    base = max_dim + 1
    places = [(size, base ** (size - 1)) for size in range(min(p, max_dim), 0, -1)]
    tallies = {0: _LEAF}  # code -> completions at each twist bound
    dims = {0: 0}  # code -> dimension
    steps = 0
    for jordan, lone, _, atoms in _group_table(q, max_twist, max_dim, max_dim):
        lone_ok = lone[ambient]
        if distinct_irr and not lone_ok:
            continue  # every summand is a lone copy
        shift = sum(n * base ** (size - 1) for size, n in jordan)  # one copy's code
        dim = sum(size * n for size, n in jordan)
        # with distinct_irr no more copies than atoms
        most = atoms[0] if distinct_irr else max_dim
        grown = dict(tallies)  # k = 0
        for at, tally in tallies.items():
            for k in range(1, min(most, (max_dim - dims[at]) // dim) + 1):
                weights = _branch_weights(atoms, lone_ok, distinct_irr, k)
                if not any(weights):
                    continue
                steps += 1
                if steps > MAX_SEARCH:
                    raise too_large("steps to block multisets")
                to = at + k * shift
                grown[to] = _joined(grown.get(to, _NONE), weights, tally)
                dims[to] = dims[at] + k * dim
        tallies = grown

    # each live multiset and the empty one (code 0) is read out once per trivial size
    live = {at: tally for at, tally in tallies.items() if tally[0] - tally[1]}
    step = _TRIVIAL_STEP[ambient]
    reads = sum(len(_trivial_sizes(step, distinct_irr, max_dim - dims[at])) for at in (0, *live))
    if reads > MAX_SEARCH:
        raise too_large("partitions read out")
    out: dict = {}

    def add(blocks, count, growing):
        old, grew = out.get(blocks, (0, False))
        out[blocks] = (old + count, grew or growing)

    for at, (top, below, lower) in live.items():
        blocks = tuple(size for size, place in places for _ in range(at // place % base))
        for ones in _trivial_sizes(step, distinct_irr, max_dim - dims[at]):
            # the classes are the completions that use a factor of twist 0
            add(blocks + (1,) * ones, top - below, top - below > below - lower)
    # the structure made of trivial summands only is one more class
    for ones in _trivial_sizes(step, distinct_irr, max_dim)[1:]:
        add((1,) * ones, 1, False)
    return out


def dn_partition_list(n: int, p: int, max_twist: int = 3) -> set[tuple[int, ...]]:
    """Partitions of 2n realizable as a sum of pairwise inequivalent
    orthogonal irreducibles (plus at most one trivial line): the Jordan
    types available to suitably decomposed A1-subgroups of SO(2n).  They
    are the partitions of 2n that count_table(ORTHOGONAL, 2n, p,
    max_twist, distinct_irr=True) counts, which refuses like it."""
    table = count_table(FormType.ORTHOGONAL, 2 * n, p, max_twist, distinct_irr=True)
    return {blocks for blocks in table if sum(blocks) == 2 * n}


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
