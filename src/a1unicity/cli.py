"""Command-line front end.

Subcommands: tensor, module, classify classical, classify exceptional,
enumerate, witnesses, selfcheck.  --json switches the human-readable
output to a stable JSON envelope (sorted keys, canonically ordered
lists), so identical inputs always produce byte-identical output.

Exit codes: 0 success, 1 domain error (out of scope, unknown label, bad
prime, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import atlas, selfcheck
from .classical import (
    Family,
    GroupFamily,
    Partition,
    VerdictKind,
    unicity_verdict,
    witnesses,
)
from .enumerator import enumerate_embeddings
from .errors import DomainError, InvalidQueryError
from .jordan import jnotation, tensor_multi
from .sl2modules import (
    FormType,
    check_realizable,
    dimension,
    form_type,
    format_descriptor,
    jordan_type,
    parse_descriptor,
)


class _UsageError(Exception):
    pass


# a1u module prints one Jordan block per trivial line and per tensor block,
# so the answer is refused above this dimension before any block is listed
MAX_MODULE_DIMENSION = 10**6


def _partition_arg(text: str) -> Partition:
    try:
        return Partition.from_string(text)
    except ValueError as err:
        raise _UsageError(f"--partition: {err}") from None


def _sizes_arg(text: str) -> list[int]:
    try:
        sizes = [int(x) for x in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad block list {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise _UsageError(f"bad block list {text!r}")
    return sizes


_FAMILY_BY_FLAG = {
    "A": Family.SL,
    "SL": Family.SL,
    "C": Family.SP,
    "SP": Family.SP,
    "B": Family.SO,
    "D": Family.SO,
    "SO": Family.SO,
}

_FORM_BY_FLAG = {
    "none": FormType.NONE,
    "symplectic": FormType.SYMPLECTIC,
    "orthogonal": FormType.ORTHOGONAL,
}


def _group_arg(family: str, dim: int) -> GroupFamily:
    key = family.upper() if len(family) == 1 else family
    fam = _FAMILY_BY_FLAG.get(key) or _FAMILY_BY_FLAG.get(family.upper())
    if fam is None:
        raise _UsageError(f"--family: unknown family {family!r}")
    if family.upper() == "B" and dim % 2 == 0:
        raise _UsageError("--family B needs odd dimension (use D)")
    if family.upper() == "D" and dim % 2 == 1:
        raise _UsageError("--family D needs even dimension (use B)")
    try:
        return GroupFamily(fam, dim)
    except DomainError as err:
        raise _UsageError(str(err)) from None


def _emit(payload: dict, as_json: bool, lines, out) -> None:
    if as_json:
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    else:
        for line in lines:
            out.write(line + "\n")


def _cmd_tensor(args, out) -> int:
    sizes = _sizes_arg(args.sizes)
    t = tensor_multi(sizes, args.p)
    payload = {
        "command": "tensor",
        "input": {"p": args.p, "sizes": sizes},
        "result": {"blocks": list(t.blocks), "dimension": t.dimension},
        "provenance": ["tensor decomposition of full Jordan blocks mod p"],
    }
    human = [
        " x ".join(f"J{m}" for m in sizes) + f"  (mod {args.p})",
        f"  = {jnotation(t.blocks)}   [dim {t.dimension}]",
    ]
    _emit(payload, args.json, human, out)
    return 0


def _cmd_module(args, out) -> int:
    d = parse_descriptor(args.descriptor, args.p)
    dim = dimension(d)
    if dim > MAX_MODULE_DIMENSION:
        raise InvalidQueryError(
            f"module dimension {dim} exceeds the answer budget {MAX_MODULE_DIMENSION}"
        )
    t = jordan_type(d)
    try:
        check_realizable(d)
        realizable = True
    except DomainError:
        realizable = False
    payload = {
        "command": "module",
        "input": {"p": args.p, "descriptor": args.descriptor},
        "result": {
            "canonical": format_descriptor(d),
            "dimension": dim,
            "blocks": list(t.blocks),
            "jordan_type": jnotation(t.blocks),
            "form": form_type(d).value,
            "realizable": realizable,
        },
        "provenance": ["module arithmetic: dimension, Jordan type, invariant form"],
    }
    human = [
        f"module    {format_descriptor(d)}   (p = {args.p})",
        f"dimension {dim}",
        f"type      {jnotation(t.blocks)}",
        f"form      {form_type(d).value}",
        f"matrix    {'available' if realizable else 'not realizable'}",
    ]
    _emit(payload, args.json, human, out)
    return 0


def _cmd_classify_classical(args, out) -> int:
    part = _partition_arg(args.partition)
    dim = args.dim if args.dim is not None else part.n
    g = _group_arg(args.family, dim)
    v = unicity_verdict(g, part, args.p)
    result = {"verdict": v.kind.value}
    if v.reason:
        result["reason"] = v.reason
    if v.witness_pair:
        result["witnesses"] = sorted(format_descriptor(d) for d in v.witness_pair)
    payload = {
        "command": "classify classical",
        "input": {
            "family": g.family.value,
            "dim": g.dimension,
            "p": args.p,
            "partition": list(part.parts),
        },
        "result": result,
        "provenance": [f"classical unicity criterion, type {g.family.value}"],
    }
    human = [f"{g}, u = {jnotation(part.parts)}, p = {args.p}: {v.kind.value}"]
    if v.reason:
        human.append(f"  reason: {v.reason}")
    if v.witness_pair:
        human.append("  witnesses: " + "  |  ".join(
            format_descriptor(d) for d in v.witness_pair))
    _emit(payload, args.json, human, out)
    return 0 if v.kind is not VerdictKind.OUT_OF_SCOPE else 1


def _cmd_classify_exceptional(args, out) -> int:
    g = atlas.group(args.group)
    v = atlas.verdict(g, args.p, args.label)
    result = {"verdict": v.kind.value}
    if v.note:
        result["note"] = v.note
    payload = {
        "command": "classify exceptional",
        "input": {"group": g.type.value, "p": args.p, "label": args.label},
        "result": result,
        "provenance": ["exceptional unicity table"],
    }
    human = [f"{g}, class {atlas.normalize_label(args.label)}, p = {args.p}: {v.kind.value}"]
    if v.note:
        human.append(f"  note: {v.note}")
    _emit(payload, args.json, human, out)
    bad = (atlas.AtlasVerdictKind.BAD_PRIME, atlas.AtlasVerdictKind.UNKNOWN_LABEL)
    return 1 if v.kind in bad else 0


def _cmd_enumerate(args, out) -> int:
    part = _partition_arg(args.partition)
    dim = args.dim if args.dim is not None else part.n
    form = _FORM_BY_FLAG[args.form]
    res = enumerate_embeddings(
        form, dim, part, args.p, args.max_twist, distinct_irr=args.distinct_irr
    )
    classes = [str(c) for c in res.classes]
    payload = {
        "command": "enumerate",
        "input": {
            "form": args.form,
            "dim": dim,
            "p": args.p,
            "partition": list(part.parts),
            "max_twist": args.max_twist,
            "distinct_irr": args.distinct_irr,
        },
        "result": {
            "count": res.count,
            "growth_flag": res.growth_flag,
            "classes": classes,
        },
        "provenance": ["completely reducible module enumeration"],
    }
    human = [
        f"{args.form} structures with type {jnotation(part.parts)} on dim {dim}, "
        f"p = {args.p}, twists <= {args.max_twist}:",
    ]
    human += [f"  {c}" for c in classes] or ["  (none)"]
    human.append(
        f"count {res.count}; "
        + ("count grows with the twist bound" if res.growth_flag else "count stable")
    )
    _emit(payload, args.json, human, out)
    return 0


def _cmd_witnesses(args, out) -> int:
    part = _partition_arg(args.partition)
    dim = args.dim if args.dim is not None else part.n
    g = _group_arg(args.family, dim)
    first, second = witnesses(g, part, args.p)
    pair = [format_descriptor(first), format_descriptor(second)]
    payload = {
        "command": "witnesses",
        "input": {
            "family": g.family.value,
            "dim": g.dimension,
            "p": args.p,
            "partition": list(part.parts),
        },
        "result": {"witnesses": pair},
        "provenance": ["explicit non-conjugate overgroup constructions"],
    }
    human = [
        f"{g}, u = {jnotation(part.parts)}, p = {args.p}:",
        f"  {pair[0]}",
        f"  {pair[1]}",
    ]
    _emit(payload, args.json, human, out)
    return 0


def _cmd_selfcheck(args, out) -> int:
    ok = selfcheck.run_selfcheck(quick=args.quick, emit=lambda s: out.write(s + "\n"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a1u",
        description="Jordan-type calculus and unicity tests for A1-overgroups "
        "of order-p unipotent elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="emit a JSON envelope")

    sp = sub.add_parser("tensor", help="decompose a tensor product of Jordan blocks")
    sp.add_argument("-p", "--p", type=int, required=True, help="characteristic")
    sp.add_argument("sizes", help="comma-separated block sizes, e.g. 2,5")
    add_json(sp)
    sp.set_defaults(fn=_cmd_tensor)

    sp = sub.add_parser("module", help="dimension, Jordan type and form of a descriptor")
    sp.add_argument("-p", "--p", type=int, required=True)
    sp.add_argument("descriptor", help="e.g. 'L(1)*L(3)@1+2*triv' or 'W(5)'")
    add_json(sp)
    sp.set_defaults(fn=_cmd_module)

    sp = sub.add_parser("classify", help="unicity verdicts")
    csub = sp.add_subparsers(dest="kind", required=True)

    spc = csub.add_parser("classical", help="verdict from the Jordan partition")
    spc.add_argument("--family", required=True, help="A/C/B/D or SL/Sp/SO")
    spc.add_argument("--dim", type=int, help="natural module dimension "
                     "(default: partition total)")
    spc.add_argument("--p", type=int, required=True)
    spc.add_argument("--partition", required=True, help="descending, e.g. 6,1,1,1,1")
    add_json(spc)
    spc.set_defaults(fn=_cmd_classify_classical)

    spe = csub.add_parser("exceptional", help="verdict from the class label")
    spe.add_argument("--group", required=True, choices=["G2", "F4", "E6", "E7", "E8"])
    spe.add_argument("--p", type=int, required=True)
    spe.add_argument("--label", required=True, help="e.g. A6, (A5)', Ã1 (or ~A1)")
    add_json(spe)
    spe.set_defaults(fn=_cmd_classify_exceptional)

    sp = sub.add_parser(
        "enumerate", help="completely reducible structures with a given type"
    )
    sp.add_argument("--form", choices=sorted(_FORM_BY_FLAG), required=True)
    sp.add_argument("--dim", type=int, help="default: partition total")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--partition", required=True)
    sp.add_argument("--max-twist", type=int, default=3, dest="max_twist")
    sp.add_argument(
        "--distinct-irr",
        action="store_true",
        dest="distinct_irr",
        help="pairwise inequivalent irreducible summands only",
    )
    add_json(sp)
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("witnesses", help="explicit non-conjugate overgroup pair")
    sp.add_argument("--family", required=True)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--partition", required=True)
    add_json(sp)
    sp.set_defaults(fn=_cmd_witnesses)

    sp = sub.add_parser("selfcheck", help="run the cross-validation suites")
    sp.add_argument("--quick", action="store_true", help="reduced ranges")
    sp.set_defaults(fn=_cmd_selfcheck)

    return parser


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    try:
        return args.fn(args, out)
    except _UsageError as err:
        print(f"a1u: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"a1u: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
