"""What the nine records of the library promise, whatever they are built
from: field equality, hashing of the immutable ones, frozen fields, exact
reprs and their methods."""

import pytest

from kcharge.cores import Cell
from kcharge.ktableaux import SequenceEntry, StandardSequence, ValidationReport
from kcharge.statistics import ResidueOrder, SequenceReport
from kcharge.sweeps import Identity, SweepFailure, SweepReport


def _records():
    """(record, an equal record built from equal fields, exact repr) of
    each immutable record."""
    cell = Cell(1, 2)
    entry = SequenceEntry(1, 0, frozenset({cell}))
    columns = [(i,) for i in range(10)]
    return [
        (cell, Cell(row=1, col=2), "Cell(row=1, col=2)"),
        (
            ValidationReport(False, "row decreases left-to-right", cell),
            ValidationReport(ok=False, problem="row decreases left-to-right", cell=Cell(1, 2)),
            "ValidationReport(ok=False, problem='row decreases left-to-right', "
            "cell=Cell(row=1, col=2))",
        ),
        (
            ValidationReport(True),
            ValidationReport(True, None, None),
            "ValidationReport(ok=True, problem=None, cell=None)",
        ),
        (
            entry,
            SequenceEntry(letter=1, residue=0, cells=frozenset({Cell(1, 2)})),
            "SequenceEntry(letter=1, residue=0, cells=frozenset({Cell(row=1, col=2)}))",
        ),
        (
            StandardSequence((entry,)),
            StandardSequence(entries=(SequenceEntry(1, 0, frozenset({Cell(1, 2)})),)),
            "StandardSequence(entries=(SequenceEntry(letter=1, residue=0, "
            "cells=frozenset({Cell(row=1, col=2)})),))",
        ),
        (
            ResidueOrder(5, 2, "low"),
            ResidueOrder(modulus=5, pivot=2, direction="low"),
            "ResidueOrder(modulus=5, pivot=2, direction='low')",
        ),
        (
            SequenceReport((1,), (0,), *columns),
            SequenceReport((1,), (0,), *[tuple(c) for c in columns]),
            "SequenceReport(letters=(1,), residues=(0,), L=(0,), M=(1,), I=(2,), J=(3,), "
            "diag_prev_low=(4,), diag_prev_high=(5,), diag_add_low=(6,), "
            "diag_add_high=(7,), low_pivots=(8,), high_pivots=(9,))",
        ),
        (
            SweepFailure("charge formulations agree", "lp=1 morse=2", "k=1\n1_0\n"),
            SweepFailure(
                identity="charge formulations agree", detail="lp=1 morse=2", context="k=1\n1_0\n"
            ),
            "SweepFailure(identity='charge formulations agree', detail='lp=1 morse=2', "
            "context='k=1\\n1_0\\n')",
        ),
        (
            Identity("restriction is a core", "letter", 6),
            Identity(name="restriction is a core", per="letter", position=6),
            "Identity(name='restriction is a core', per='letter', position=6)",
        ),
    ]


def test_records_compare_hash_freeze_print_and_answer_by_their_fields():
    for record, twin, text in _records():
        assert record is not twin
        assert record == twin and not record != twin, text
        assert hash(record) == hash(twin), text
        assert repr(record) == text
        name = text.split("(")[0]
        field = text.split("(")[1].split("=")[0]
        assert type(record).__name__ == name
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # Unequal fields make unequal records.
    assert ValidationReport(True) != ValidationReport(False)
    assert ResidueOrder(5, 2, "low") != ResidueOrder(5, 2, "high")
    assert SweepFailure("a", "b", "c") != SweepFailure("a", "b", "d")

    # The report of a sweep is mutable, compares by its fields and is not
    # hashable.
    failure = SweepFailure("charge formulations agree", "lp=1 morse=2", "k=1\n1_0\n")
    report = SweepReport()
    assert report == SweepReport(0, 0, []) and report.failures == []
    assert SweepReport().failures is not report.failures
    assert repr(report) == "SweepReport(subjects_checked=0, identities_checked=0, failures=[])"
    with pytest.raises(TypeError):
        hash(report)
    assert report.ok
    report.merge(SweepReport(3, 40, [failure]))
    report.merge(SweepReport(subjects_checked=2, identities_checked=5))
    assert report == SweepReport(5, 45, [failure]) and report != SweepReport(5, 45, [])
    assert not report.ok
    assert repr(report) == (
        "SweepReport(subjects_checked=5, identities_checked=45, failures=["
        "SweepFailure(identity='charge formulations agree', detail='lp=1 morse=2', "
        "context='k=1\\n1_0\\n')])"
    )
    report.subjects_checked = 6
    assert report.subjects_checked == 6

    # The methods.
    assert ValidationReport(True) and not ValidationReport(False, "x", None)
    entries = tuple(SequenceEntry(x, r, frozenset({Cell(1, x)})) for x, r in ((1, 0), (2, 1)))
    seq = StandardSequence(entries)
    assert len(seq) == 2 and seq.residues() == (0, 1) and seq.entries == entries
    assert len(StandardSequence(())) == 0 and StandardSequence(()).residues() == ()
    assert (Cell(2, 5).row, Cell(2, 5).col) == (2, 5)
    low, high = ResidueOrder(5, 2, "low"), ResidueOrder(5, 2, "high")
    assert (low.modulus, low.pivot, low.direction) == (5, 2, "low")
    assert str(low) == "2 > 3 > 4 > 0 > 1" and str(high) == "2 > 1 > 0 > 4 > 3"
    assert low.descending() == (2, 3, 4, 0, 1)
    walk = SequenceReport(
        (1, 2), (0, 1), (0, 1), (0, 2), (0, 3), (0, 4), *[(0, 0)] * 4, (None, 1), (None, 2)
    )
    assert (walk.cocharge_lp(), walk.cocharge_morse()) == (1, 2)
    assert (walk.charge_lp(), walk.charge_morse()) == (3, 4)
    for args, message in (
        ((1, 0, "low"), "modulus must be an integer of at least 2, got 1"),
        ((True, 0, "low"), "modulus must be an integer of at least 2, got True"),
        ((5, 5, "high"), "pivot must be an integer in 0..4, got 5"),
        ((5, "2", "low"), "pivot must be an integer in 0..4, got '2'"),
        ((5, 2, "sideways"), "direction must be \"low\" or \"high\", got 'sideways'"),
    ):
        with pytest.raises(ValueError) as excinfo:
            ResidueOrder(*args)
        assert str(excinfo.value) == message
    with pytest.raises(ValueError, match="pivot must be"):
        ResidueOrder(modulus=3, pivot=-1, direction="low")
