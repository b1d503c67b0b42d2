"""Structure theory for Thue-Morse words.

Four groups of machine-checkable facts about tm_word(i):

* mutual recurrences for the starting positions of tm_word(i-j) and its
  letterwise flip inside tm_word(i), with explicit overlap sets at each
  step, read offset by offset from one generator that keeps three levels of
  (a, b) bit-set pairs (see occurrences), plus the Jacobsthal-style count
  recurrences; ab_sets turns its pair into the tuples of an OccurrenceSets;
* the nine predicted net occurrences (three pattern words and their
  flips at fixed positions);
* re-splitting identities (4, 5 and 9 blocks) and the overlap-/cube-
  freeness scans that back the pattern-word lemmas;
* the "smallest factorization containing all occurrences" construction:
  a mutual recurrence over factor patterns (one per offset, the same for
  every host order) using letterwise flip and a splice operator that
  merges the two central factors. A pattern is one byte per factor, the
  code of its factor word, so the flip is one bytes.translate and the
  splice a concatenation; each call builds both kinds' patterns in one
  loop up to its offset and keeps none. A factorization holds at most
  four distinct FactorRefs and the codes; each ref resolves once, and the
  checks compare each distinct word with the target once and read the
  factors through the codes.

ab_sets deliberately stops at offset i-2: one step further the recurrence
would shift by the length of an order-0 word, which does not exist. The
direct scans come from target_scans, bit sets of the targets' starts built
up to the longest one asked for; its offsets run to the letters at i-1. The
factorization checks read the targets' starts from that table alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress, islice
from typing import Iterator

from .occurrences import Occurrence, PositionSet, Step, bit_positions, occurrence_bits, runs_of
from .reports import ClaimResult, same_word
from .words import (
    TM_MAX_ORDER,
    FactorRef,
    flip_word,
    lit_ref,
    tm_flip_ref,
    tm_flip_word,
    tm_length,
    tm_ref,
    tm_word,
)


@dataclass(frozen=True)
class OccurrenceSets:
    """Starting positions of a word (a_set) and its flip (b_set) inside a
    fixed host word."""

    a_set: PositionSet
    b_set: PositionSet


def _check_ab_domain(caller: str, i: int, j: int) -> None:
    if not 2 <= i <= TM_MAX_ORDER:
        raise ValueError(f"{caller}: order {i} not in 2..{TM_MAX_ORDER}")
    if not 0 <= j <= i - 2:
        raise ValueError(
            f"{caller}: offset {j} out of the recurrence domain for order {i}; "
            "scan the word directly for larger offsets"
        )


def ab_steps(i: int) -> Iterator[tuple[Step, Step]]:
    """The recurrence steps for the a set and the b set of tm_word(i),
    offsets 0..i-2 in turn; the order is checked on the call. Offset 0 is
    the base: a set {1}, b set empty. At each later offset, each set's
    pieces are its own previous level, the other set's previous level
    shifted by tm_length(i-j), and its own level two back shifted further;
    the overlap of the first two comes from three levels back. Levels
    before offset 0 are empty; only the last three are kept, each as the
    (a, b) pair of bit sets."""
    _check_ab_domain("ab_steps", i, 0)

    def steps() -> Iterator[tuple[Step, Step]]:
        deep = back = (0, 0)
        prev = (1 << 1, 0)
        yield Step((prev[0], 0, 0)), Step((prev[1], 0, 0))
        for j in range(1, i - 1):
            near = tm_length(i - j)
            far = near + tm_length(i - (j + 1))
            mid = tm_length(i - (j - 1)) + near
            wide = tm_length(i - (j - 2))

            def step(prev_own, prev_other, back_own, deep_own, deep_other) -> Step:
                return Step((prev_own, prev_other << near, back_own << far), deep_own << mid | deep_other << wide)

            a_step = step(prev[0], prev[1], back[0], deep[0], deep[1])
            b_step = step(prev[1], prev[0], back[1], deep[1], deep[0])
            yield a_step, b_step
            deep, back, prev = back, prev, (a_step.union(), b_step.union())

    return steps()


def ab_sets(i: int, j: int) -> OccurrenceSets:
    """Occurrence positions of tm_word(i-j) / flipped tm_word(i-j) inside
    tm_word(i), for 0 <= j <= i-2: the unions of the recurrence steps at
    offset j, built from offset 0 up."""
    _check_ab_domain("ab_sets", i, j)
    a_step, b_step = next(islice(ab_steps(i), j, None))
    return OccurrenceSets(bit_positions(a_step.union()), bit_positions(b_step.union()))


def ab_step_ok(steps: tuple[Step, Step], scan: tuple[int, int]) -> bool:
    """Verify ``steps``, the a and b recurrence steps at one offset, against
    ``scan``, the bit sets of the direct scans of tm_word(i-j) and its flip
    in tm_word(i)."""
    (a_step, b_step), (a_scan, b_scan) = steps, scan
    return a_step.matches(a_scan) and b_step.matches(b_scan)


def ab_counts(j_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Closed count recurrences: a_j = a_{j-1} + 2a_{j-2} with a_0 = a_1 = 1,
    and b_j = b_{j-1} + a_{j-1} with b_0 = 0."""
    if j_max < 0:
        raise ValueError(f"ab_counts: j_max {j_max} < 0")
    a = [1, 1]
    b = [0, 1]
    for j in range(2, j_max + 1):
        a.append(a[j - 1] + 2 * a[j - 2])
        b.append(b[j - 1] + a[j - 1])
    return tuple(a[: j_max + 1]), tuple(b[: j_max + 1])


def jacobsthal(k: int) -> int:
    """k-th Jacobsthal number (2^k - (-1)^k) / 3; equals a_{k-1} of
    ab_counts for k >= 1."""
    if k < 0:
        raise ValueError(f"jacobsthal: index {k} < 0")
    return (2**k - (-1) ** k) // 3


def predicted_tm_net_occurrences(i: int) -> tuple[Occurrence, ...]:
    """The nine net occurrences of tm_word(i) for i >= 5: three of the
    order-(i-2) word, two of its flip, and two each of the two mixed
    order-(i-4)/(i-3) pattern words."""
    if i < 5:
        raise ValueError(f"predicted_tm_net_occurrences: order {i} < 5")
    t1 = tm_length(i - 1)
    t2 = tm_length(i - 2)
    t3 = tm_length(i - 3)
    t4 = tm_length(i - 4)
    mixed = t4 + t3
    occs = [
        Occurrence(1, t2),
        Occurrence(t2 + t3 + 1, t2 + t3 + t2),
        Occurrence(t1 + t2 + 1, t1 + 2 * t2),
        Occurrence(t2 + 1, 2 * t2),
        Occurrence(t1 + 1, t1 + t2),
        Occurrence(t3 + t4 + 1, t3 + t4 + mixed),
        Occurrence(t1 + t3 + 1, t1 + t3 + mixed),
        Occurrence(t3 + 1, t3 + mixed),
        Occurrence(t1 + t3 + t4 + 1, t1 + t3 + t4 + mixed),
    ]
    return tuple(sorted(occs))


def repetition_free(text: str) -> tuple[bool, bool]:
    """(overlap-free, cube-free). A run of d + 1 letters equal to the letter d places on spans
    an overlap; a run of 2d, a cube, is sought only at the shifts d that hold such a run."""
    letters = occurrence_bits(text, [], set(text)).values()
    overlap_free = True
    for d in range(1, (len(text) - 1) // 2 + 1):
        # The letters' sets are disjoint, so the sum is the union: each letter met with itself d on.
        agree = sum(bits & bits >> d for bits in letters)
        if runs_of(agree, d + 1):
            overlap_free = False
            if runs_of(agree, 2 * d):
                return False, False
    return overlap_free, True


def check_tm_identities(i: int) -> dict[str, ClaimResult]:
    """Literal concatenation checks of the four re-splitting identities,
    plus one quadratic overlap-/cube-freeness scan (gated to i <= 12)."""
    if i < 5:
        raise ValueError(f"check_tm_identities: order {i} < 5")
    word = tm_word(i)
    t2 = tm_word(i - 2)
    t3 = tm_word(i - 3)
    t4 = tm_word(i - 4)
    f2, f3, f4 = tm_flip_word(i - 2), tm_flip_word(i - 3), tm_flip_word(i - 4)
    claims = {
        "quarter_split": same_word(word, t2 + f2 + f2 + t2),
        "five_block_split": same_word(word, t2 + f3 + t2 + t3 + t2),
        "nine_block_split_a": same_word(word, t3 + f4 + t4 + f3 + t2 + t4 + f3 + f4 + f3),
        "nine_block_split_b": same_word(word, t3 + f4 + t3 + t4 + t2 + t4 + f4 + t3 + f3),
    }
    if i <= 12:
        claims["overlap_free"], claims["cube_free"] = map(ClaimResult, repetition_free(word))
    return claims


# --- smallest factorizations -------------------------------------------------


@dataclass(frozen=True)
class SmallestFactorization:
    """A factorization of tm_word(i) in which every occurrence of the target
    word (tm_word(i-j) for kind A, its flip for kind B) is a whole factor,
    with the fewest factors possible.

    It is stored as built: a few distinct refs and one byte per factor, the
    index of that factor's ref. Each ref a code uses is resolved once, at
    construction: words holds those words (None for a ref no code uses) and
    starts the factors' 1-based starting positions in tm_word(i); factors
    and texts list the refs and the words factor by factor. The factors
    must spell tm_word(i) in non-empty parts; only kind B at offset 0,
    whose target never occurs, may have none.
    """

    refs: tuple[FactorRef, ...]
    codes: bytes
    kind: str
    i: int
    j: int
    words: tuple[str | None, ...] = field(init=False, repr=False, compare=False)
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        used = set(self.codes)
        if max(used, default=-1) >= len(self.refs):
            raise ValueError(f"codes {sorted(used)} index past the {len(self.refs)} refs")
        words = tuple(ref.resolve() if code in used else None for code, ref in enumerate(self.refs))
        object.__setattr__(self, "words", words)
        texts = self.texts
        object.__setattr__(self, "starts", tuple(accumulate(map(len, texts), initial=1))[:-1])
        degenerate = not texts and (self.kind, self.j) == ("B", 0)
        if not degenerate and (not all(map(words.__getitem__, used)) or "".join(texts) != tm_word(self.i)):
            raise ValueError(f"factors do not spell tm_word({self.i}) in non-empty parts")

    @property
    def factors(self) -> tuple[FactorRef, ...]:
        return tuple(map(self.refs.__getitem__, self.codes))

    @property
    def texts(self) -> tuple[str, ...]:
        return tuple(map(self.words.__getitem__, self.codes))

    def to_json_dict(self) -> dict:
        factors = [f.to_json_dict() for f in self.factors]
        return {"kind": self.kind, "i": self.i, "j": self.j, "factors": factors}


# A factor pattern holds one code per factor: at host order i and offset j,
# code 2 * drop + flipped stands for tm_word(i - j - drop), flipped or not.
# _FLIP is the translation table of the letterwise flip.
_FLIP = bytes.maketrans(b"\0\1\2\3", b"\1\0\3\2")
# Letterwise codes: "a" is code 0 and "b" code 1, as for order-1 words.
_LETTER_CODES = bytes.maketrans(b"ab", b"\0\1")


def _pattern(j: int, kind: str) -> bytes:
    """The factor codes of the recurrence at offset j, for every host order
    at once: lowering every order by one maps the codes at offset j-1 onto
    the codes at offset j unchanged, so only the offset matters. Each step
    keeps the same kind's codes and appends the other kind's codes flipped.
    At even offsets kind A splices the two halves, whose touching factors
    are both the flipped order-(i-j) word: that pair becomes three factors
    that spell the same letters with the target word in the middle. Both
    kinds' codes are built in one loop from offset 1 up, and nothing is
    kept between calls."""
    if j == 0:
        return b"\0" if kind == "A" else b""
    a = b = b"\0\1"
    for k in range(2, j + 1):
        flip_a, flip_b = a.translate(_FLIP), b.translate(_FLIP)
        a, b = (a[:-1] + b"\3\0\2" + flip_b[1:] if k % 2 == 0 else a + flip_b), b + flip_a
    return a if kind == "A" else b


def smallest_factorization(i: int, j: int, kind: str) -> SmallestFactorization:
    """Build the smallest factorization of tm_word(i) containing every
    occurrence of the order-(i-j) target word (kind A) or its flip (kind B)
    as a whole factor. Kind B at offset 0 is the degenerate empty
    factorization: the flipped whole word never occurs."""
    if kind not in ("A", "B"):
        raise ValueError(f"smallest_factorization: kind {kind!r} not in A/B")
    if not 2 <= i <= TM_MAX_ORDER:
        raise ValueError(f"smallest_factorization: order {i} not in 2..{TM_MAX_ORDER}")
    if not 0 <= j <= i - 1:
        raise ValueError(f"smallest_factorization: offset {j} out of domain for order {i}")
    if 1 < j == i - 1:
        # The pattern would need order-0 factors here; build directly from
        # the letters instead: one factor per target letter, one per gap run.
        # Thue-Morse words hold no run of three letters, so a gap run is one
        # letter or a doubled one, and each of the three words has one ref.
        double = "bb" if kind == "A" else "aa"
        refs = (tm_ref(1), tm_flip_ref(1), lit_ref(double))
        codes = tm_word(i).encode().replace(double.encode(), b"\2").translate(_LETTER_CODES)
    else:
        # The refs in code order: the order-(i-j) word and its flip, then the
        # order-(i-j-1) pair where that order exists.
        orders = range(i - j, max(i - j - 2, 0), -1)
        refs = tuple(make(order) for order in orders for make in (tm_ref, tm_flip_ref))
        codes = _pattern(j, kind)
    return SmallestFactorization(refs, codes, kind, i, j)


def target_scans(i: int, offsets: range) -> dict[int, tuple[int, int]]:
    """Bit sets of the starts of tm_word(i-j) and its flip in tm_word(i) for the offsets j in
    ``offsets``, built by tm_k = tm_{k-1} flip_{k-1} and flip_k = flip_{k-1} tm_{k-1} up to the
    longest. The flips come from flip_word: the scans do not read tm_flip_word, as the checks do."""
    if not (2 <= i <= TM_MAX_ORDER and 0 <= offsets.start < offsets.stop <= i):
        raise ValueError(f"target_scans: order {i} not in 2..{TM_MAX_ORDER} or {offsets} not in 0..{i - 1}")
    pairs = [(word, flip_word(word)) for word in map(tm_word, range(1, i - offsets.start + 1))]
    splits = [split for (a, b), (x, y) in zip(pairs[1:], pairs) for split in ((a, x, y), (b, y, x))]
    bits = occurrence_bits(tm_word(i), splits, {word for j in offsets for word in pairs[i - j - 1]})
    return {j: tuple(bits[word] for word in pairs[i - j - 1]) for j in offsets}


def validate_smallest_factorization(fac: SmallestFactorization, table: dict) -> bool:
    """True iff the factorization places a whole factor at every occurrence
    of its target word in ``table``, a ``target_scans`` of its order that
    holds its offset, and never has two adjacent non-target factors. Raises
    ValueError for a factorization with no factors."""
    if not fac.codes:
        raise ValueError(f"validate_smallest_factorization: need a non-empty factorization of order {fac.i}")
    target = (tm_word if fac.kind == "A" else tm_flip_word)(fac.i - fac.j)
    # One byte per factor: 1 where the factor is the target word, else 0.
    flags = fac.codes.translate(bytes(word == target for word in fac.words).ljust(256, b"\0"))
    starts = bit_positions(table[fac.j]["AB".index(fac.kind)])
    return tuple(compress(fac.starts, flags)) == starts and b"\0\0" not in flags


def factorization_basis_ok(fac: SmallestFactorization, table: dict) -> bool:
    """Every run of positions of tm_word(i) that no target occurrence covers (a gap) is the order-(i-j)
    word, the order-(i-j-1) word or a flip, starting at the run's head and ending at its end (only
    defined members count at the last offset, where the lower order would be 0). Where ``fac``
    validates, the gaps are its other factors. All starts are read from ``table``, a
    ``target_scans`` of order i that holds offsets j and j+1 where that offset exists."""
    m = tm_length(fac.i - fac.j)
    inside = (1 << tm_length(fac.i) + 1) - 2  # the positions 1..n of tm_word(i)
    # q is a gap iff none of q-m+1..q is a target start; the positions below 1 hold none.
    non_starts = (inside & ~table[fac.j]["AB".index(fac.kind)]) << m - 1 | (1 << m) - 1
    gaps = runs_of(non_starts, m) & inside
    heads = gaps & ~(gaps << 1)
    placed = 0
    for j in range(fac.j, min(fac.j + 2, fac.i)):  # heads of runs as long as a basis word starting there
        length = tm_length(fac.i - j)
        placed |= heads & (table[j][0] | table[j][1]) & runs_of(gaps, length) & ~(gaps >> length)
    return placed == heads


def factorization_boundary_ok(fac: SmallestFactorization) -> bool:
    """First factor resolves to the order-(i-j) word; last factor resolves
    to the same word at even offsets and to its flip at odd offsets."""
    if not fac.codes:
        return False
    head = tm_word(fac.i - fac.j)
    tail = head if fac.j % 2 == 0 else tm_flip_word(fac.i - fac.j)
    return fac.words[fac.codes[0]] == head and fac.words[fac.codes[-1]] == tail
