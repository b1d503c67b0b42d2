"""Structure theory for Fibonacci words.

Covers three groups of machine-checkable facts about fib_word(i):

* a recurrence for the starting positions of fib_word(i-j) inside
  fib_word(i), valid for offsets j up to i-4, plus a closed form for the
  number of such occurrences over the full offset range;
* concatenation identities that re-split fib_word(i) around its central
  blocks and around the truncated suffix word q_word(i);
* the uniqueness/follower lemmas that pin down the three net occurrences,
  together with the predicted net occurrence list itself.

Checks return flat claim maps so callers can serialize them uniformly. The
steps and theta_scans hold bit sets (see occurrences); theta_set returns a
tuple. The recurrence checks and the lemmas read one theta_scans per order.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .occurrences import Occurrence, PositionSet, Step, bit_positions, find_occurrences, occurrence_bits
from .reports import ClaimResult, same_word
from .words import FIB_MAX_ORDER, delta, fib_length, fib_length_ext, fib_word, q_word


def _check_theta_domain(i: int, j: int) -> None:
    if not 6 <= i <= FIB_MAX_ORDER:
        raise ValueError(f"theta_set: order {i} not in 6..{FIB_MAX_ORDER}")
    if not 0 <= j <= i - 4:
        raise ValueError(f"theta_set: offset {j} out of domain for order {i}")


def theta_steps(i: int) -> Iterator[Step]:
    """The recurrence steps for the starting positions of fib_word(i-j)
    inside fib_word(i), offsets 0..i-4 in turn; the order is checked on the
    call. Offset 0 is the base {1}. Each later step's pieces are the
    previous level, the level before it (empty before offset 0) shifted by
    fib_length(i-j), and the rightmost position alone at even offsets
    (empty at odd ones); no two pieces meet. Only two levels are kept."""
    _check_theta_domain(i, 0)

    def steps() -> Iterator[Step]:
        back, prev = 0, 1 << 1
        yield Step((prev, 0, 0))
        for j in range(1, i - 3):
            rightmost = 1 << (fib_length(i) - fib_length(i - j) + 1) if j % 2 == 0 else 0
            step = Step((prev, back << fib_length(i - j), rightmost))
            yield step
            back, prev = prev, step.union()

    return steps()


def theta_set(i: int, j: int) -> PositionSet:
    """Starting positions of fib_word(i-j) inside fib_word(i), 0 <= j <= i-4:
    the union of the recurrence step at offset j, built from offset 0 up."""
    _check_theta_domain(i, j)
    return bit_positions(next(islice(theta_steps(i), j, None)).union())


def theta_scans(i: int, offsets: range) -> dict[int, int]:
    """Direct scans: the bit sets of the starts of fib_word(i-j) in fib_word(i) for the offsets j in
    ``offsets``, from one bit-set table built by fib_k = fib_{k-1} fib_{k-2} up to the longest."""
    if not (3 <= i <= FIB_MAX_ORDER and 0 <= offsets.start < offsets.stop <= i):
        raise ValueError(f"theta_scans: order {i} not in 3..{FIB_MAX_ORDER} or {offsets} not in 0..{i - 1}")
    splits = [(fib_word(k), fib_word(k - 1), fib_word(k - 2)) for k in range(3, i - offsets.start + 1)]
    bits = occurrence_bits(fib_word(i), splits, {fib_word(i - j) for j in offsets})
    return {j: bits[fib_word(i - j)] for j in offsets}


def theta_max_position(i: int, j: int) -> int:
    """Closed form for the largest element of theta_set(i, j); the reference
    length is fib_length(i-j) at even offsets and fib_length(i-j+1) at odd."""
    _check_theta_domain(i, j)
    ref = i - j if j % 2 == 0 else i - (j - 1)
    return fib_length(i) - fib_length(ref) + 1


def theta_step_ok(i: int, j: int, step: Step, scan: int) -> bool:
    """Verify ``step``, the recurrence step at (i, j), against ``scan``, the
    bit set of the direct scan of fib_word(i-j) in fib_word(i): the pieces
    are pairwise disjoint, their union is the scan, and its max matches the
    parity-dependent closed form."""
    return scan.bit_length() - 1 == theta_max_position(i, j) and step.matches(scan)


def theta_count(i: int, j: int) -> int:
    """Number of occurrences of fib_word(i-j) in fib_word(i), closed form.

    Three regimes by offset; the small-offset branch subtracts the offset
    parity, and the extended length table (with values 1 and 0 at orders -1
    and 0) covers the edge branches at tiny orders.
    """
    if i < 2:
        raise ValueError(f"theta_count: order {i} out of domain (need i >= 2)")
    if not 0 <= j <= i - 1:
        raise ValueError(f"theta_count: offset {j} out of domain for order {i}")
    if j <= i - 4:
        return fib_length_ext(j + 2) - (j % 2)
    if j <= i - 2:
        return fib_length_ext(j + 1)
    return fib_length_ext(j - 1)


def predicted_fib_net_occurrences(i: int) -> tuple[Occurrence, ...]:
    """The three net occurrences of fib_word(i) for i >= 7: two copies of
    the core block fib_word(i-2) + q_word(i) at positions 1 and
    fib_length(i-2)+1, and fib_word(i-2) as a suffix."""
    if i < 7:
        raise ValueError(f"predicted_fib_net_occurrences: order {i} < 7")
    core = fib_length(i - 2)
    qlen = fib_length(i - 3) - 2
    return (
        Occurrence(1, core + qlen),
        Occurrence(core + 1, 2 * core + qlen),
        Occurrence(fib_length(i - 1) + 1, fib_length(i)),
    )


def _unique_in(text: str, sub: str) -> bool:
    first = text.find(sub)
    return first != -1 and first == text.rfind(sub)


def _followed_by(
    text: str, starts: PositionSet, length: int, follower: str, *, require_room: bool
) -> tuple[bool, int | None]:
    """Check every occurrence of a ``length``-letter pattern at ``starts`` is followed by follower.

    With require_room, an occurrence too close to the end is itself a
    failure; otherwise such occurrences are skipped. Returns (ok, witness
    position of the first violation).
    """
    for pos in starts:
        tail_start = pos - 1 + length
        if tail_start + len(follower) > len(text):
            if require_room:
                return False, pos
            continue
        if text[tail_start : tail_start + len(follower)] != follower:
            return False, pos
    return True, None


def check_fib_identities(i: int) -> dict[str, ClaimResult]:
    """Literal concatenation checks of the re-splitting identities.

    Available from order 6; the q_word identities join at order 7.
    """
    if i < 6:
        raise ValueError(f"check_fib_identities: order {i} < 6")
    word = fib_word(i)
    claims = {
        "split_mid_copy": same_word(word, fib_word(i - 2) + fib_word(i - 3) + fib_word(i - 2)),
        "split_double_prefix": same_word(
            word, fib_word(i - 2) + fib_word(i - 2) + fib_word(i - 5) + fib_word(i - 4)
        ),
    }
    if i >= 7:
        q = q_word(i)
        claims["tail_pair_forward"] = same_word(fib_word(i - 4) + fib_word(i - 5), q + delta(1 - (i % 2)))
        claims["tail_pair_reversed"] = same_word(fib_word(i - 5) + fib_word(i - 4), q + delta(i % 2))
        lengths = [len(q), fib_length(i - 3) - 2]
        claims["q_length"] = ClaimResult(lengths[0] == lengths[1], witness=lengths)
    return claims


def check_fib_lemmas(i: int, scans: dict[int, int]) -> dict[str, ClaimResult]:
    """Exhaustive oracle checks of the occurrence-position, follower, and
    uniqueness lemmas behind the net occurrence characterization (i >= 7).
    The starts of fib_word(i-1..i-3) come from ``scans``, a ``theta_scans``."""
    if i < 7:
        raise ValueError(f"check_fib_lemmas: order {i} < 7")
    word = fib_word(i)
    L = fib_length
    core = fib_word(i - 2) + q_word(i)
    starts = {k: bit_positions(scans[k]) for k in (1, 2, 3)}
    claims: dict[str, ClaimResult] = {}
    for name, found, expected in (
        ("square_two_occurrences", find_occurrences(word, word + word), (1, L(i) + 1)),
        ("previous_only_at_1", starts[1], (1,)),
        ("second_previous_positions", starts[2], (1, L(i - 2) + 1, L(i - 1) + 1)),
        ("third_previous_positions", starts[3], (1, L(i - 3) + 1, L(i - 2) + 1, L(i - 1) + 1)),
        ("core_block_positions", find_occurrences(core, word), (1, L(i - 2) + 1)),
    ):
        claims[name] = ClaimResult(found == expected, witness=list(found))

    # q_word(6) is not defined; the truncated suffix word degenerates to the
    # empty word there, making the follower claim vacuous at order 7.
    follower = q_word(i - 1) if i >= 8 else ""
    ok, bad = _followed_by(word, starts[3], L(i - 3), follower, require_room=True)
    claims["third_previous_follower"] = ClaimResult(ok, witness=bad)

    extended = fib_word(i - 3) + fib_word(i - 6) + fib_word(i - 5)
    probes = {"extended_block": extended, "extended_block_prefix": extended[: L(i - 2) - 1]}
    repeated = [name for name, sub in probes.items() if not _unique_in(word, sub)]
    claims["extended_block_unique"] = ClaimResult(not repeated, witness=repeated or None)

    stem, last = fib_word(i - 3)[:-1], fib_word(i - 3)[-1]
    ok, bad = _followed_by(word, find_occurrences(stem, word), len(stem), last, require_room=False)
    claims["prefix_forces_last_letter"] = ClaimResult(ok, witness=bad)

    # Any proper superstring of the core block contains it extended by one
    # letter on at least one side, so uniqueness of every one-letter
    # extension that actually appears forces uniqueness of all of them.
    probes = ("a" + core, "b" + core, core + "a", core + "b")
    bad = next((probe for probe in probes if probe in word and not _unique_in(word, probe)), None)
    claims["core_block_superstrings_unique"] = ClaimResult(bad is None, witness=bad and bad[:8] + "...")
    return claims
