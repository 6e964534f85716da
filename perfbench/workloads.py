"""Seeded inputs and checked operations of the three workloads.

`generate(workload, seed)` returns plain data (JSON-serialisable); the
same seed gives byte-identical `canonical_bytes`.  `prepare` turns the
data into phases of operations, computing every reference answer; both
belong to set-up.  An operation returns its answer, and the phase's
checker judges it after the clock has stopped.

Why each workload (see README.md for the full map):

* cli-cold pays interpreter start, `import numpy` and per-process table
  loads on every call, the only place those costs dominate.
* oracle-sweep is dense int64 power products and GF(p) ranks; the
  rejection phase walks the whole p-length rank sequence.
* enumeration-sweep is descriptor search and deduplication; the listing
  phase materialises every class, which counting alone need not do.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

import checks
from a1unicity import atlas, classical, cli, enumerator, ffmatrix, jordan, sl2modules
from a1unicity.errors import NotOrderPError, ValidationError

WORKLOADS = ("cli-cold", "oracle-sweep", "enumeration-sweep")
# nominal seconds of one measured pass, which set the number of passes
# of a run (see run.measure)
PASS_S = {"cli-cold": 10, "oracle-sweep": 10, "enumeration-sweep": 12}
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Phase:
    """Operations timed together; `op(case)` returns the answer."""

    name: str
    cases: list
    op: object
    check: object
    latencies: bool = False  # per-operation latencies feed op_ms.*


def canonical_bytes(inputs) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode("utf-8")


def generate(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return {
        "cli-cold": _gen_cli,
        "oracle-sweep": _gen_oracle,
        "enumeration-sweep": _gen_enumeration,
    }[workload](rng)


def clear_caches() -> None:
    """Empty every lru_cache in the package, so each pass pays what a
    fresh process pays (the atom pool, the tensor table, the atlas)."""
    for name, module in list(sys.modules.items()):
        if name == "a1unicity" or name.startswith("a1unicity."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# --- cli-cold ---------------------------------------------------------------

CLI_PASSES = 3  # distinct query lists; the run cycles through them
SELFCHECK_RUNS = 3  # one full selfcheck at the start of each of the first passes
CLI_MIX = {  # queries per pass by kind
    "tensor": 6, "module": 5, "module-bad": 1,
    "classical": 5, "classical-parity": 1, "classical-order": 1, "classical-usage": 1,
    "exceptional": 3, "exceptional-tilde": 1, "exceptional-unknown": 1,
    "exceptional-badprime": 1,
    "witnesses": 4, "enumerate": 4,
}
_FAMILY_FLAGS = {"SL": ("SL", "A"), "Sp": ("Sp", "C"), "SO": ("SO",)}
_FORM_OF = {"SL": "none", "Sp": "symplectic", "SO": "orthogonal"}
_MAKE = {"SL": classical.SL, "Sp": classical.Sp, "SO": classical.SO}


def valid_partitions(family, dim, p, max_part):
    """Partitions of dim with parts <= max_part naming a nonidentity
    unipotent class of the family's group in characteristic p."""
    group = _MAKE[family](dim)
    out = []
    for blocks in enumerator.partitions_bounded(dim, max_part):
        if blocks[0] < 2:
            continue
        try:
            classical.validate(group, classical.Partition(blocks), p)
        except ValidationError:
            continue
        out.append(blocks)
    return out


def _valid_partition(rng, family, dim, p, max_part):
    return rng.choice(valid_partitions(family, dim, p, max_part))


def _partition_text(blocks):
    return ",".join(map(str, blocks))


def _irr_text(rng, p, max_dim):
    factors, dim = [], 1
    twists = rng.sample(range(4), rng.choice((1, 1, 2)))
    for twist in sorted(twists):
        weights = [w for w in range(1, p) if dim * (w + 1) <= max_dim]
        if not weights:
            break
        w = rng.choice(weights)
        dim *= w + 1
        factors.append(f"L({w})" + (f"@{twist}" if twist else ""))
    return "*".join(factors), dim


def _module_text(rng, p):
    terms, dim = [], 0
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("irr", "irr", "doubled", "weyl", "tilting", "triv"))
        if kind in ("irr", "doubled"):
            text, d = _irr_text(rng, p, 12)
            if kind == "doubled":
                text, d = "2*" + text, 2 * d
        elif kind in ("weyl", "tilting"):
            c = rng.randint(p, 2 * p - 2)
            text, d = f"{'W' if kind == 'weyl' else 'T'}({c})", (c + 1 if kind == "weyl" else 2 * p)
        else:
            k = rng.randint(1, 4)
            text, d = ("triv" if k == 1 else f"{k}*triv"), k
        terms.append(text)
        dim += d
    return "+".join(terms)


def _cli_query(rng, kind):
    """(argv, intended exit code) for one query of the given kind."""
    if kind == "tensor":
        p = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
        sizes = [rng.randint(1, p) for _ in range(rng.choice((2, 2, 3)))]
        return ["tensor", "-p", str(p), _partition_text(sizes), "--json"], 0
    if kind == "module":
        p = rng.choice((5, 7, 11))
        return ["module", "-p", str(p), _module_text(rng, p), "--json"], 0
    if kind == "module-bad":
        p = rng.choice((5, 7, 11))
        text = rng.choice((f"L({p})", "L(0)", "L(2", f"W({p - 1})", "2*triv+L(1)@x"))
        return ["module", "-p", str(p), text, "--json"], 1
    if kind.startswith("classical"):
        p = rng.choice((5, 7, 11, 13))
        if kind == "classical-parity":
            dim = rng.choice((6, 8, 10, 12))
            blocks = (3,) + (2,) * ((dim - 4) // 2) + (1,)
            return ["classify", "classical", "--family", "Sp", "--p", str(p),
                    "--partition", _partition_text(blocks), "--json"], 1
        if kind == "classical-order":
            big = rng.randint(p + 1, 2 * p)
            blocks = (big,) + (1,) * rng.randint(0, 3)
            return ["classify", "classical", "--family", "SL", "--p", str(p),
                    "--partition", _partition_text(blocks), "--json"], 1
        if kind == "classical-usage":
            blocks = (1, rng.randint(2, p))
            return ["classify", "classical", "--family", "SL", "--p", str(p),
                    "--partition", _partition_text(blocks), "--json"], 2
        family = rng.choice(("SL", "Sp", "SO"))
        dims = {"SL": range(2, 17), "Sp": range(4, 17, 2), "SO": range(7, 17)}[family]
        dim = rng.choice(list(dims))
        blocks = _valid_partition(rng, family, dim, p, p)
        flag = rng.choice(_FAMILY_FLAGS[family])
        if family == "SO" and rng.random() < 0.5:
            flag = "B" if dim % 2 else "D"
        return ["classify", "classical", "--family", flag, "--p", str(p),
                "--partition", _partition_text(blocks), "--json"], 0
    if kind.startswith("exceptional"):
        name = rng.choice(("G2", "F4", "E6", "E7", "E8"))
        g = atlas.group(name)
        p = rng.choice((7, 11, 13)) if name == "E8" else rng.choice((5, 7, 11, 13))
        label = rng.choice(sorted(atlas.known_labels(g)))
        expect = 0
        if kind == "exceptional-tilde":
            name = rng.choice(("G2", "F4"))
            label = "~A1"
        elif kind == "exceptional-unknown":
            label = rng.choice(("A9", "X1", "E9", "D3(a2)", "~B1"))
            expect = 1
        elif kind == "exceptional-badprime":
            p = rng.choice(sorted(g.bad_primes))
            expect = 1
        return ["classify", "exceptional", "--group", name, "--p", str(p),
                "--label", label, "--json"], expect
    if kind == "witnesses":
        p = rng.choice((5, 7))
        shape = rng.randrange(4)
        if shape == 0:
            family, blocks = "SL", (p,) + (1,) * rng.randint(1, 4)
        elif shape == 1:
            family = rng.choice(("SL", "SO"))
            blocks = (3,) + (1,) * rng.randint(4 if family == "SO" else 1, 6)
        elif shape == 2:
            family, blocks = "Sp", (p, p) + (1,) * rng.choice((0, 2, 4))
        else:
            family, blocks = "Sp", (3, 3) + (1,) * rng.choice((2, 4, 6))
        return ["witnesses", "--family", family, "--p", str(p),
                "--partition", _partition_text(blocks), "--json"], 0
    if kind == "enumerate":
        p = rng.choice((5, 7))
        family = rng.choice(("SL", "Sp", "SO"))
        dims = {"SL": range(2, 11), "Sp": range(4, 11, 2), "SO": range(7, 11)}[family]
        blocks = _valid_partition(rng, family, rng.choice(list(dims)), p, p)
        argv = ["enumerate", "--form", _FORM_OF[family], "--p", str(p),
                "--partition", _partition_text(blocks)]
        if rng.random() < 0.3:
            argv += ["--max-twist", str(rng.choice((2, 4)))]
        if family == "SO" and rng.random() < 0.3:
            argv.append("--distinct-irr")
        return argv + ["--json"], 0
    raise ValueError(kind)


def _gen_cli(rng):
    passes = []
    for _ in range(CLI_PASSES):
        queries = []
        for kind, n in CLI_MIX.items():
            for _ in range(n):
                argv, expect = _cli_query(rng, kind)
                queries.append({"kind": kind, "argv": argv, "expect_rc": expect})
        rng.shuffle(queries)
        passes.append(queries)
    return {"passes": passes, "selfcheck_runs": SELFCHECK_RUNS}


def cli_reference(argv):
    """Exit code and stdout of an in-process `cli.run(argv)`."""
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(list(argv), out=out)
    return rc, out.getvalue()


def prepare_cli(inputs):
    passes = []
    for queries in inputs["passes"]:
        prepared = []
        for i, q in enumerate(queries):
            rc, out = cli_reference(q["argv"])
            prepared.append(dict(q, ref_rc=rc, ref_out=out, key=f"{q['kind']}#{i}"))
        passes.append(prepared)
    return passes


# --- oracle-sweep -----------------------------------------------------------

# (p, target size m*n); the seed picks J(m) x J(n) within 2 % of the
# target, so every seed does about the same work.  All have m + n - 1 > p,
# so the oracle walks p powers.
PAIR_STRATA = (
    (11, 90), (11, 99), (11, 110), (11, 121),
    (13, 120), (13, 130), (13, 143), (13, 156), (13, 169),
    (17, 170), (17, 210), (17, 240), (17, 272),
    (19, 200), (19, 256), (19, 306),
    (23, 460),
) + 3 * (  # more draws from the cheap strata, where op_ms.p50 falls: more
    # cases near the median steady it
    (11, 90), (11, 99), (11, 110), (11, 121), (13, 120), (13, 130), (13, 143), (13, 156),
    (13, 169),
)
# (p, target dimension) of L(a)*L(b)@1*L(c)@2
MODULE_STRATA = ((11, 150), (11, 216), (13, 180), (13, 252))
# (kind, p, size): one nilpotent block longer than p, or a non-unipotent
# matrix whose nilpotent part has blocks up to p - 1
REJECT_STRATA = (
    ("long-block", 11, 120), ("long-block", 13, 200), ("long-block", 17, 280),
    ("non-unipotent", 13, 150), ("non-unipotent", 19, 300),
    ("long-block", 11, 150), ("long-block", 13, 240), ("long-block", 19, 250),
    ("non-unipotent", 11, 200), ("non-unipotent", 17, 260),
)
BAND = 0.02  # relative size band of pairs and modules
REJECT_BAND = 0.01


def _gen_oracle(rng):
    pairs = []
    for p, target in PAIR_STRATA:
        options = [(m, n) for m in range(2, p + 1) for n in range(m, p + 1)
                   if abs(m * n - target) <= BAND * target and m + n - 1 > p]
        m, n = rng.choice(options)
        if rng.random() < 0.5:
            m, n = n, m
        pairs.append({"p": p, "m": m, "n": n})
    modules = []
    for p, target in MODULE_STRATA:
        options = [(a, b, c) for a in range(1, p) for b in range(1, p) for c in range(1, p)
                   if abs((a + 1) * (b + 1) * (c + 1) - target) <= BAND * target]
        a, b, c = rng.choice(options)
        modules.append({"p": p, "text": f"L({a})*L({b})@1*L({c})@2"})
    rejects = []
    for kind, p, target in REJECT_STRATA:
        size = rng.randint(round(target * (1 - REJECT_BAND)), round(target * (1 + REJECT_BAND)))
        if kind == "long-block":
            blocks = [size]
            eigen = None
        else:
            blocks = [p - 1]
            while sum(blocks) < size - 1:
                blocks.append(rng.randint(1, min(p - 1, size - 1 - sum(blocks))))
            eigen = rng.randint(2, p - 1)
        perm = list(range(size))
        rng.shuffle(perm)
        rejects.append({"kind": kind, "p": p, "blocks": blocks, "eigen": eigen, "perm": perm})
    rng.shuffle(pairs)
    return {"pairs": pairs, "modules": modules, "rejects": rejects}


def reject_matrix(case) -> np.ndarray:
    """I + (superdiagonal inside each block), an optional trailing 1x1
    block `eigen`, conjugated by the permutation `perm`."""
    size = len(case["perm"])
    m = np.eye(size, dtype=np.int64)
    at = 0
    for b in case["blocks"]:
        for i in range(at, at + b - 1):
            m[i, i + 1] = 1
        at += b
    if case["eigen"] is not None:
        m[at, at] = case["eigen"]
    perm = np.array(case["perm"])
    return m[perm][:, perm]


def _op_pair(case):
    return jordan.tensor_pair_oracle(case["m"], case["n"], case["p"]).blocks


def _op_module(case):
    d = sl2modules.parse_descriptor(case["text"], case["p"])
    return ffmatrix.jordan_block_sizes(sl2modules.realize(d), ffmatrix.PrimeField(case["p"]))


def _op_reject(case):
    try:
        return ffmatrix.jordan_block_sizes(case["matrix"], ffmatrix.PrimeField(case["p"]))
    except NotOrderPError:
        return checks.REJECTED


def _op_oracle_a(case):
    return _op_pair(case) if "m" in case else _op_module(case)


def prepare_oracle(inputs):
    cases = []
    for c in inputs["pairs"]:
        expected = jordan.tensor_pair(c["m"], c["n"], c["p"]).blocks
        cases.append(dict(c, expected=expected, key=f"J{c['m']}xJ{c['n']}@p{c['p']}"))
    for c in inputs["modules"]:
        d = sl2modules.parse_descriptor(c["text"], c["p"])
        expected = sl2modules.jordan_type(d).blocks
        cases.append(dict(c, expected=expected, key=f"{c['text']}@p{c['p']}"))
    rejects = [
        dict(c, matrix=reject_matrix(c), key=f"{c['kind']}{len(c['perm'])}@p{c['p']}")
        for c in inputs["rejects"]
    ]
    return [
        Phase("oracle_sweep", cases, _op_oracle_a, checks.check_blocks, latencies=True),
        Phase("oracle_reject", rejects, _op_reject, checks.check_rejection),
    ]


# --- enumeration-sweep ------------------------------------------------------

VERDICT_GROUP = 3  # the seed picks one partition of every 3 adjacent by cost
# Listing cost depends on family and dimension more than on the class
# count, so the listed partitions are a fixed spread over this class-count
# range; the seed only orders them.
LISTING_COUNTS = (200, 500)
LISTING_STRIDE = 8
DN_CASES = [(n, p) for n in range(4, 9) for p in (5, 7)]


def load_counts():
    """Rows of enum_counts.txt: family, dim, p, blocks, count, growth, cost_us."""
    rows = []
    with open(os.path.join(HERE, "enum_counts.txt"), encoding="utf-8") as fh:
        for line in fh:
            family, dim, p, blocks, count, growth, cost = line.split()
            rows.append({
                "family": family, "dim": int(dim), "p": int(p),
                "blocks": [int(b) for b in blocks.split(".")],
                "count": int(count), "growth": bool(int(growth)), "cost_us": int(cost),
            })
    return rows


def _sorted_by(field, rows):
    return sorted(rows, key=lambda r: (r[field], r["family"], r["dim"], r["p"], r["blocks"]))


def _gen_enumeration(rng):
    # Grouping by cost rather than class count makes every seed draw
    # about the same latency distribution.
    rows = _sorted_by("cost_us", load_counts())
    verdicts = [rng.choice(rows[i:i + VERDICT_GROUP]) for i in range(0, len(rows), VERDICT_GROUP)]
    rng.shuffle(verdicts)
    lo, hi = LISTING_COUNTS
    band = [r for r in _sorted_by("count", rows) if lo <= r["count"] <= hi]
    listed = band[::LISTING_STRIDE]
    listing = [dict(r, max_twist=t) for r in listed for t in (3, 4)]
    rng.shuffle(listing)
    dn = [{"n": n, "p": p} for n, p in DN_CASES]
    rng.shuffle(dn)
    return {"verdicts": verdicts, "dn": dn, "listing": listing}


def op_verdict(case):
    part = classical.Partition(case["blocks"])
    v = classical.unicity_verdict(_MAKE[case["family"]](case["dim"]), part, case["p"])
    res = enumerator.enumerate_embeddings(
        checks.FORMS[case["family"]], case["dim"], part, case["p"], 3
    )
    return v.kind.value, res.count, res.growth_flag


def _op_dn(case):
    return enumerator.dn_partition_list(case["n"], case["p"])


def _op_listing(case):
    res = enumerator.enumerate_embeddings(
        checks.FORMS[case["family"]], case["dim"], case["blocks"], case["p"], case["max_twist"]
    )
    return res.count, [str(c) for c in res.classes]


def _key(case):
    return f"{case['family']}({case['dim']}) {'.'.join(map(str, case['blocks']))} p{case['p']}"


def prepare_enumeration(inputs):
    verdicts = [dict(c, key=_key(c)) for c in inputs["verdicts"]]
    dn = [dict(c, key=f"D{c['n']} p{c['p']}") for c in inputs["dn"]]
    listing = [dict(c, key=f"{_key(c)} T{c['max_twist']}") for c in inputs["listing"]]
    verdict = Phase("verdict_sweep", verdicts, op_verdict, checks.check_verdict, latencies=True)
    # The verdict checks take milliseconds each, so they run twice a pass:
    # the fastest of more runs gives steadier latency percentiles.
    return [
        verdict,
        Phase("dn_menu", dn, _op_dn, checks.check_dn),
        verdict,
        Phase("listing_sweep", listing, _op_listing, checks.check_listing),
    ]


def prepare(workload, inputs):
    return {
        "cli-cold": prepare_cli,
        "oracle-sweep": prepare_oracle,
        "enumeration-sweep": prepare_enumeration,
    }[workload](inputs)
