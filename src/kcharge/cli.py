"""Command line interface: enumerate, stat, table, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .cores import Partition, _hook_facts, _parse_digits, _partition_fault, n_stat
from .ktableaux import (
    ValidationReport,
    enumerate_k_tableaux,
    parse_json,
    parse_text,
    to_json_dict,
    to_text,
    validate,
)
from .statistics import (
    FORMULATIONS,
    ResidueOrder,
    charge_table,
    kostka_foulkes_table,
    sequence_reports,
)
from .sweeps import run_statistics_sweep

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(_parse_digits(x, what) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")
    if any(v < 1 for v in values):
        raise ValueError(f"{what} parts must be positive, got {text!r}")
    return values


def _parse_shape(text: str) -> Partition:
    """The --shape argument as a partition; an error quotes it as given."""
    parts = _parse_csv_ints(text, "shape")
    fault = _partition_fault(parts)
    if fault:
        raise ValueError(f"shape {fault}, got {text!r}")
    return Partition(parts)


def _int_arg(text: str) -> int:
    """argparse type of the integer options: ASCII digits 0-9 only."""
    try:
        return _parse_digits(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcharge",
        description="k-tableau enumeration and affine charge/cocharge statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", "-o", default=None, help="write to file instead of stdout")

    p_enum = sub.add_parser("enumerate", help="list all k-tableaux of a weight")
    p_enum.add_argument("--k", type=_int_arg, required=True)
    p_enum.add_argument("--weight", required=True, help="comma-separated, e.g. 3,2,1")
    p_enum.add_argument("--shape", default=None, help="restrict to one shape")
    p_enum.set_defaults(run=cmd_enumerate)
    add_common(p_enum)

    p_stat = sub.add_parser("stat", help="statistics report for one tableau")
    p_stat.add_argument("input", help="tableau file (text or JSON), or - for stdin")
    p_stat.set_defaults(run=cmd_stat)
    add_common(p_stat)

    p_table = sub.add_parser("table", help="shape-grouped charge generating polynomials")
    p_table.add_argument("--k", type=_int_arg, default=None)
    p_table.add_argument("--weight", required=True)
    p_table.add_argument("--shape", default=None, help="restrict to one shape")
    p_table.add_argument("--classical", action="store_true",
                         help="use the classical charge over semistandard tableaux")
    # None when not given: only a --k table takes it, and `charge_table`
    # holds the default.
    p_table.add_argument("--formulation", choices=FORMULATIONS, default=None)
    p_table.set_defaults(run=cmd_table)
    add_common(p_table)

    p_verify = sub.add_parser("verify", help="sweep identities over all small k-tableaux")
    p_verify.add_argument("--max-k", type=_int_arg, required=True)
    p_verify.add_argument("--max-weight", type=_int_arg, required=True)
    p_verify.set_defaults(run=cmd_verify)
    add_common(p_verify)

    return parser


_encode_str = json.encoder.encode_basestring_ascii

# The scalar types whose lists `_json_text` writes in a single join.
_INT_TYPE = frozenset({int})
_STR_OR_NULL = frozenset({str, type(None)})
_LISTS = (list, tuple)
_CONTAINERS = (dict, list, tuple)


def _json_scalar(value: object) -> str:
    """One JSON scalar, as `json.dumps` writes it."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _encode_str(value)
    if value is None:
        return "null"
    return json.dumps(value)


def _json_text(obj: object, newline: str = "\n") -> str:
    """Exactly `json.dumps(obj, indent=2)`, for what the commands emit:
    dicts with string keys, lists and tuples, ints, strings, bools and
    None.  `indent` selects json's pure-Python encoder; this writes the
    same text directly.  `newline` is the line break and indent of the
    level that holds `obj`.  A list of ints, or of strings and nulls, is
    written in one join, with no call of `_json_text` per item; a dict
    writes its int-list values itself, with no call per value.  Each
    container's text is built in one f-string, not by a chain of
    concatenations that copies it again at each step."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        deeper = inner + "  "
        sep = "," + deeper
        texts = [
            f"{_encode_str(key)}: [{deeper}{sep.join(map(int.__repr__, value))}{inner}]"
            if type(value) in _LISTS and value and _INT_TYPE.issuperset(map(type, value))
            else f"{_encode_str(key)}: {_json_text(value, inner)}"
            for key, value in obj.items()
        ]
        return f"{{{inner}{(',' + inner).join(texts)}{newline}}}"
    if not isinstance(obj, _LISTS):
        return _json_scalar(obj)
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == _INT_TYPE:
        texts = map(int.__repr__, obj)
    elif kinds <= _STR_OR_NULL:
        texts = ["null" if v is None else _encode_str(v) for v in obj]
    elif any(issubclass(kind, _CONTAINERS) for kind in kinds):
        texts = [_json_text(item, inner) for item in obj]
    else:
        texts = map(_json_scalar, obj)
    return f"[{inner}{(',' + inner).join(texts)}{newline}]"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args: argparse.Namespace) -> int:
    weight = _parse_csv_ints(args.weight, "weight")
    shape = None if args.shape is None else _parse_shape(args.shape)
    tableaux = enumerate_k_tableaux(args.k, weight, shape=shape)
    if args.format == "json":
        payload = {
            "k": args.k,
            "weight": list(weight),
            "count": len(tableaux),
            "tableaux": [to_json_dict(t) for t in tableaux],
        }
        _emit(args, _json_text(payload) + "\n")
    else:
        # Each block ends in a newline; one more separates it from the next.
        blocks = [to_text(t) for t in tableaux]
        blocks.append(f"count: {len(tableaux)}\n")
        _emit(args, "\n".join(blocks))
    return EXIT_OK


def _read_tableau(source: str):
    if source == "-":
        raw = sys.stdin.read()
    else:
        with open(source) as fh:
            raw = fh.read()
    if raw.lstrip().startswith(("{", "[")):
        return parse_json(raw)
    return parse_text(raw)


def _order_text(modulus: int, pivot: int, direction: str) -> str:
    return str(ResidueOrder(modulus, pivot, direction))


# `stat` shows the orders of a modulus up to this bound through
# `_kept_order_text`, which renders each once per process: the moduli of
# the tableaux it reads repeat.  An order of modulus n is about 4n
# characters, so the bound keeps at most 270 short strings, and a larger
# modulus (`stat` takes k=400000) is rendered anew each time it is shown.
_KEPT_ORDER_MODULUS = 16
_kept_order_text = lru_cache(maxsize=None)(_order_text)


def _stat_payload(tab) -> dict:
    reports = sequence_reports(tab)
    mu = Partition(tab.weight)
    n = tab.k + 1
    interior = tab.shape.size() - _hook_facts(tab.shape, n)[1]
    order_text = _kept_order_text if n <= _KEPT_ORDER_MODULUS else _order_text
    return {
        "k": tab.k,
        "shape": list(tab.shape),
        "weight": list(mu),
        "n_weight": n_stat(mu),
        "interior": interior,
        "k_charge": {
            "lp": sum([r.charge_lp() for r in reports]),
            "morse": sum([r.charge_morse() for r in reports]),
        },
        "k_cocharge": {
            "lp": sum([r.cocharge_lp() for r in reports]),
            "morse": sum([r.cocharge_morse() for r in reports]),
        },
        "sequences": [
            # The record's columns in order, the pivots as order strings.
            {
                **dict(zip(r._fields[:-2], r)),
                # Letter 1 has no order: its pivot is None.
                "low_orders": [p if p is None else order_text(n, p, "low") for p in r.low_pivots],
                "high_orders": [
                    p if p is None else order_text(n, p, "high") for p in r.high_pivots
                ],
            }
            for r in reports
        ],
    }


# The payload columns of a `stat` text row, in order.
_STAT_COLUMNS = (
    "letters", "residues", "diag_prev_low", "L", "low_orders", "M", "diag_add_low",
    "diag_prev_high", "I", "high_orders", "J", "diag_add_high",
)


def _stat_text(payload: dict) -> str:
    lines = [
        "k={k} shape={shape} weight={weight}".format(
            k=payload["k"],
            shape=Partition._trusted(payload["shape"]),
            weight=Partition._trusted(payload["weight"]),
        )
    ]
    # As wide as the longest order shown, and at least the header.
    order_width = max(
        [len("low order")]
        + [
            len(order)
            for seq in payload["sequences"]
            for order in seq["low_orders"] + seq["high_orders"]
            if order
        ]
    )
    # One 12-column template for the header and every letter's row; letter
    # 1 has no orders and shows "-".
    row = "  {:>3} {:>3} | {:>3} {:>3} {:>{w}} {:>3} {:>3} | {:>3} {:>3} {:>{w}} {:>3} {:>3}"
    header = row.format(
        "i", "res", "dL", "L", "low order", "M", "dM", "dI", "I", "high order", "J", "dJ",
        w=order_width,
    )
    for num, seq in enumerate(payload["sequences"], start=1):
        lines += [f"sequence {num}:", header]
        for values in zip(*[seq[name] for name in _STAT_COLUMNS]):
            lines.append(row.format(*["-" if v is None else v for v in values], w=order_width))
        lines.append(
            "  sums: L={L} M+d={Md} I={I} J+d={Jd}".format(
                L=sum(seq["L"]),
                Md=sum(seq["M"]) + sum(seq["diag_add_low"]),
                I=sum(seq["I"]),
                Jd=sum(seq["J"]) + sum(seq["diag_add_high"]),
            )
        )
    lines.append(
        "k-cocharge: lp={lp} morse={morse}".format(**payload["k_cocharge"])
    )
    lines.append("k-charge: lp={lp} morse={morse}".format(**payload["k_charge"]))
    lines.append(
        "n(weight) - interior = {n} - {i} = {v}".format(
            n=payload["n_weight"],
            i=payload["interior"],
            v=payload["n_weight"] - payload["interior"],
        )
    )
    return "\n".join(lines) + "\n"


def cmd_stat(args: argparse.Namespace) -> int:
    tab = _read_tableau(args.input)
    report = validate(tab)
    if report.ok and _partition_fault(tab.weight):
        # A valid k-tableau may have any composition as its weight, but its
        # standard sequences, and so its statistics, need a partition.
        report = ValidationReport(False, f"weight {tab.weight} is not a partition")
    if not report.ok:
        where = f" at cell {tuple(report.cell)}" if report.cell else ""
        print(f"invalid tableau: {report.problem}{where}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    payload = _stat_payload(tab)
    if args.format == "json":
        _emit(args, _json_text(payload) + "\n")
    else:
        _emit(args, _stat_text(payload))
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    weight = _parse_csv_ints(args.weight, "weight")
    if (args.k is not None) == args.classical:
        raise ValueError("table needs exactly one of --k and --classical")
    if args.classical:
        if args.formulation is not None:
            raise ValueError("table takes --formulation only with --k")
        table = kostka_foulkes_table(weight)
    else:
        formulation = {} if args.formulation is None else {"formulation": args.formulation}
        table = charge_table(args.k, weight, **formulation)
    if args.shape is not None:
        wanted = _parse_shape(args.shape)
        table = {shape: poly for shape, poly in table.items() if shape == wanted}
    if args.format == "json":
        payload = {
            "weight": list(weight),
            "classical": bool(args.classical),
            "k": args.k,
            "table": {str(shape): poly.to_json_dict() for shape, poly in table.items()},
        }
        _emit(args, _json_text(payload) + "\n")
    else:
        lines = [f"{shape}: {poly}" for shape, poly in table.items()]
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def _threads() -> int:
    """Worker count from KCHARGE_THREADS (unset or empty means 1)."""
    text = os.environ.get("KCHARGE_THREADS", "1") or "1"
    try:
        threads = _parse_digits(text, "KCHARGE_THREADS")
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"KCHARGE_THREADS must be a positive integer, got {text!r}")
    return threads


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_statistics_sweep(args.max_k, args.max_weight, processes=_threads())
    if args.format == "json":
        payload = {
            "tableaux_checked": report.subjects_checked,
            "identities_checked": report.identities_checked,
            "pass": report.ok,
            "failures": [
                {"identity": f.identity, "detail": f.detail, "context": f.context}
                for f in report.failures[:10]
            ],
        }
        _emit(args, _json_text(payload) + "\n")
    else:
        lines = [
            f"tableaux checked: {report.subjects_checked}",
            f"identities checked: {report.identities_checked}",
            f"result: {'PASS' if report.ok else 'FAIL'}",
        ]
        for f in report.failures[:10]:
            lines.append(f"counterexample [{f.identity}] {f.detail}")
            lines.append(f.context.rstrip())
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
