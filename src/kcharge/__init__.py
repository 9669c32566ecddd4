"""k-tableau combinatorics: affine charge and cocharge statistics.

The library enumerates k-tableaux (semistandard fillings of (k+1)-cores
whose letters span prescribed residue counts), computes their charge and
cocharge under two provably equal formulations, and produces shape-grouped
generating polynomials that degenerate to Kostka-Foulkes polynomials for
large k.
"""

from .cores import Cell, Partition, n_stat, partitions
from .ktableaux import (
    KTableau,
    StandardSequence,
    ValidationReport,
    enumerate_k_tableaux,
    parse_json,
    parse_text,
    standard_sequences,
    to_text,
    validate,
)
from .statistics import (
    ResidueOrder,
    TPolynomial,
    charge_table,
    classical_charge,
    classical_cocharge,
    k_charge,
    k_cocharge,
    kostka_foulkes_table,
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
    "enumerate_k_tableaux",
    "k_charge",
    "k_cocharge",
    "kostka_foulkes_table",
    "n_stat",
    "parse_json",
    "parse_text",
    "partitions",
    "sequence_reports",
    "standard_sequences",
    "to_text",
    "validate",
]
