"""Net occurrences of repeated substrings in binary words.

A string's net frequency in a text is the number of its occurrences whose
one-letter extensions on both sides are unique (boundary extensions count
as unique). This package computes net occurrences with two independent
engines, implements position-set recurrences and factorization
constructions for Fibonacci and Thue-Morse words, and verifies the
structural claims behind them against direct scans.
"""

from .fibonacci import (
    check_fib_identities,
    check_fib_lemmas,
    predicted_fib_net_occurrences,
    theta_count,
    theta_set,
)
from .netfreq import (
    NetOccurrenceRecord,
    net_frequency,
    net_occurrences_bruteforce,
    net_occurrences_indexed,
)
from .occurrences import (
    Occurrence,
    find_occurrences,
    is_net_occurrence,
)
from .onoc import (
    CompletenessReport,
    bnso_set,
    greedy_onoc,
    is_onoc,
    prove_completeness,
)
from .thue_morse import (
    OccurrenceSets,
    SmallestFactorization,
    ab_counts,
    ab_sets,
    check_tm_identities,
    jacobsthal,
    predicted_tm_net_occurrences,
    smallest_factorization,
    validate_smallest_factorization,
)
from .verifier import (
    PropertyReport,
    VerificationReport,
    verify_fibonacci,
    verify_onoc_lemma_random,
    verify_thue_morse,
)
from .words import (
    FactorRef,
    delta,
    fib_length,
    fib_word,
    flip_word,
    q_word,
    read_word_file,
    tm_length,
    tm_word,
)

__version__ = "0.1.0"

__all__ = [
    "CompletenessReport",
    "FactorRef",
    "NetOccurrenceRecord",
    "Occurrence",
    "OccurrenceSets",
    "PropertyReport",
    "SmallestFactorization",
    "VerificationReport",
    "ab_counts",
    "ab_sets",
    "bnso_set",
    "check_fib_identities",
    "check_fib_lemmas",
    "check_tm_identities",
    "delta",
    "fib_length",
    "fib_word",
    "find_occurrences",
    "flip_word",
    "greedy_onoc",
    "is_net_occurrence",
    "is_onoc",
    "jacobsthal",
    "net_frequency",
    "net_occurrences_bruteforce",
    "net_occurrences_indexed",
    "predicted_fib_net_occurrences",
    "predicted_tm_net_occurrences",
    "prove_completeness",
    "q_word",
    "read_word_file",
    "smallest_factorization",
    "theta_count",
    "theta_set",
    "tm_length",
    "tm_word",
    "validate_smallest_factorization",
    "verify_fibonacci",
    "verify_onoc_lemma_random",
    "verify_thue_morse",
]
