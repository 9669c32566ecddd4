"""k-tableau combinatorics: affine charge and cocharge statistics.

The library enumerates k-tableaux (semistandard fillings of (k+1)-cores
whose letters span prescribed residue counts), computes their charge and
cocharge under two provably equal formulations, and produces shape-grouped
generating polynomials that degenerate to Kostka-Foulkes polynomials for
large k.
"""

from .cores import (
    Cell,
    Partition,
    enumerate_cores,
    k_bounded_hooks,
    n_stat,
    parse_partition,
    partitions,
    residue,
)
from .ktableaux import (
    KTableau,
    StandardSequence,
    ValidationReport,
    enumerate_k_tableaux,
    highest_occurrence,
    lowest_occurrence,
    parse_json,
    parse_text,
    restrict_sequence,
    standard_sequences,
    to_json,
    to_text,
    validate,
)
from .statistics import (
    ResidueOrder,
    TPolynomial,
    charge_table,
    classical_charge,
    classical_cocharge,
    diag,
    enumerate_ssyt,
    high_order,
    highest_addable,
    k_charge,
    k_cocharge,
    kostka_foulkes_table,
    low_order,
    lowest_addable,
    sequence_reports,
)

__all__ = [
    "Cell",
    "KTableau",
    "Partition",
    "ResidueOrder",
    "StandardSequence",
    "TPolynomial",
    "ValidationReport",
    "charge_table",
    "classical_charge",
    "classical_cocharge",
    "diag",
    "enumerate_cores",
    "enumerate_k_tableaux",
    "enumerate_ssyt",
    "high_order",
    "highest_addable",
    "highest_occurrence",
    "k_bounded_hooks",
    "k_charge",
    "k_cocharge",
    "kostka_foulkes_table",
    "low_order",
    "lowest_addable",
    "lowest_occurrence",
    "n_stat",
    "parse_json",
    "parse_partition",
    "parse_text",
    "partitions",
    "residue",
    "restrict_sequence",
    "sequence_reports",
    "standard_sequences",
    "to_json",
    "to_text",
    "validate",
]
