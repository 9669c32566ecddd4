"""Workload families, in-process CLI calls and the reference-output check.

Every operation is one `kcharge.cli.main(argv)` call with stdin and stdout
swapped for in-memory buffers.  Its exit code and stdout are digested and
compared with the digest the seed commit produced for the same input
(reference.json, written by make_reference.py).
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("enumerate", "stat", "verify")

# enumerate: large-part weights, so weak-strip search does nearly all the
# work.  (k, smallest part, largest size); parts run up to k.
ENUMERATE_BANDS = ((7, 3, 15), (8, 4, 17), (9, 5, 19))

# stat: the pool is every k-tableau of these weights, k = largest part.
# Long standard sequences and several sequences per tableau.
STAT_WEIGHTS = (
    (3,) + (1,) * 12,
    (4,) + (1,) * 10,
    (4, 2, 2, 2, 2, 2, 1, 1),
    (5, 3, 3, 2, 2, 1, 1),
    (5, 2, 2, 2, 2, 2, 2, 1),
)
# The traced stat pass runs this fixed share of the pool (every 8th tableau
# in canonical order), so its call counts do not depend on the seed.
STAT_TRACE_STRIDE = 8

VERIFY_ARGV = ("verify", "--max-k", "5", "--max-weight", "7")
VERIFY_WARMUP_ARGV = ("verify", "--max-k", "4", "--max-weight", "5")

ENUMERATE_WARMUP_OPS = 8
STAT_WARMUP_OPS = 20


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the key of its reference digest."""

    argv: tuple[str, ...]
    stdin: str = ""

    @property
    def key(self) -> str:
        if self.stdin:
            return " ".join(self.argv) + " <" + _digest(self.stdin)
        return " ".join(self.argv)


@dataclass
class Checker:
    """Compares each operation's exit code and stdout with the reference."""

    reference: dict[str, list]
    attempted: int = 0
    failed: int = 0
    mismatched: list[str] = field(default_factory=list)

    def check(self, op: Op, code: int, stdout: str) -> int:
        """Count the operation; return the tableaux it completed."""
        self.attempted += 1
        expected = self.reference.get(op.key)
        if expected is None or expected[0] != output_digest(code, stdout):
            self.failed += 1
            if len(self.mismatched) < 5:
                self.mismatched.append(op.key)
            return 0 if expected is None else expected[1]
        return expected[1]


@dataclass
class Setup:
    """What one set-up produces: the program entry point and the inputs."""

    main: object
    ops: list[Op]
    traced_ops: list[Op]
    whole_passes: bool


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digest(code: int, stdout: str) -> str:
    return _digest(f"{code}\n{stdout}")


def load_reference() -> dict[str, list]:
    """Operation key -> [digest of exit code and stdout, tableaux completed]."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def import_program():
    """Import kcharge afresh from the checkout's src/ and return the package.

    Modules from an earlier import are dropped first, so each set-up pays
    the full import.  An installed kcharge elsewhere is never used.
    """
    if not (SRC / "kcharge" / "cli.py").is_file():
        raise FileNotFoundError(f"no kcharge sources under {SRC}")
    for name in [m for m in sys.modules if m == "kcharge" or m.startswith("kcharge.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("kcharge")
    importlib.import_module("kcharge.cli")
    if Path(package.__file__).resolve().parent != SRC / "kcharge":
        raise ImportError(f"kcharge imported from {package.__file__}, not {SRC}")
    return package


def call(main, op: Op) -> tuple[int, str]:
    """Run one CLI operation in-process; return (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.stdin), out, io.StringIO()
    try:
        code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a failed run
        code, out = -1, io.StringIO(repr(exc))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def _partitions(size: int, smallest: int, largest: int):
    """Partitions of size with parts in [smallest, largest], largest first."""
    if size == 0:
        yield ()
        return
    for part in range(min(size, largest), smallest - 1, -1):
        for rest in _partitions(size - part, smallest, part):
            yield (part,) + rest


def enumerate_family() -> list[Op]:
    return [
        Op(("enumerate", "--k", str(k), "--weight", ",".join(map(str, mu))))
        for k, smallest, max_size in ENUMERATE_BANDS
        for size in range(1, max_size + 1)
        for mu in _partitions(size, smallest, k)
    ]


def stat_family(package) -> list[Op]:
    return [
        Op(("stat", "-", "--format", "json"), package.to_text(tab))
        for weight in STAT_WEIGHTS
        for tab in package.enumerate_k_tableaux(max(weight), weight)
    ]


def family(name: str, package) -> list[Op]:
    """Every input of a workload, in canonical order."""
    if name == "enumerate":
        return enumerate_family()
    if name == "stat":
        return stat_family(package)
    if name == "verify":
        return [Op(VERIFY_ARGV)]
    raise ValueError(f"unknown workload {name!r}")


def setup(name: str, seed: int, checker: Checker, limit: int | None = None) -> Setup:
    """Import the program, generate the seeded inputs and warm up.

    `limit` keeps only the first inputs of the family (for self-tests).
    """
    package = import_program()
    main = package.cli.main
    ops = family(name, package)[:limit]
    if name == "enumerate":
        warmup = ops[:ENUMERATE_WARMUP_OPS]
        traced = list(ops)
    elif name == "stat":
        warmup = ops[:STAT_WARMUP_OPS]
        traced = ops[::STAT_TRACE_STRIDE]
    else:
        warmup = [Op(VERIFY_WARMUP_ARGV)]
        traced = list(ops)
    rng = random.Random(seed)
    rng.shuffle(ops)
    rng.shuffle(traced)
    for op in warmup:
        checker.check(op, *call(main, op))
    return Setup(main, ops, traced, whole_passes=name == "enumerate")
