"""Benchmark for a1unicity: cold `a1u` queries, the GF(p) oracle and the
enumeration engine, each answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Workloads: cli-cold, oracle-sweep, enumeration-sweep.  The last stdout
line is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is a JSON record of the machine, the code, the
inputs, the per-phase timings under their own names, and any failures.
See perfbench/README.md.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cli-cold", "oracle-sweep", "enumeration-sweep")

MIN_PASSES = 2
MIN_LATENCIES = 100  # so that ten samples lie beyond op_ms.p90
SETUP_PROBES = 3  # fresh processes that repeat set-up
INTERPRETER_PROBES = 5
CHILD_TIMEOUT = 120
A1U = [sys.executable, "-c", "from a1unicity.cli import main; main()"]

# the layer call that counts as one case of each selfcheck suite
SUITE_CASES = {
    "tensor-oracle-equivalence": "jordan.tensor_pair_oracle",
    "two-factor-profiles": "jordan.tensor_pair",
    "multi-factor-profiles": "jordan.tensor_multi",
    "module-facts": "ffmatrix.jordan_block_sizes",
    "orthogonal-menu": "enumerator.jordan_menu",
    "distinct-sum-partition-menus": "enumerator.dn_partition_list",
    "classifier-vs-enumeration": "enumerator.enumerate_embeddings",
    "witness-soundness": "classical.unicity_verdict",
    "exceptional-atlas": "atlas.verdict",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {setup_s, digest} and exit")
    return ap.parse_args(argv)


# --- child processes -------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd):
    """(exit code, stdout, seconds, peak RSS in MB) of one child.

    stdout is read to the end before stderr; a1u writes at most one short
    line to stderr, so the child never blocks on a full stderr pipe.
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, elapsed, usage.ru_maxrss / 1024.0


def setup_probe(args):
    """Set-up seconds and input digest from a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT, check=True)
    record = json.loads(done.stdout.decode().splitlines()[-1])
    return record["setup_s"], record["digest"]


def interpreter_ms():
    import calibrate

    return 1000.0 * statistics.median(calibrate.interpreter() for _ in range(INTERPRETER_PROBES))


# --- provenance --------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT)
    return done.stdout.decode().strip() or None


def tree_sha256(top):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args, digest, ops):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": tree_sha256(os.path.join(SRC, "a1unicity")),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "ops": ops,
    }


# --- measurement -------------------------------------------------------------


class Tally:
    """Attempted and failed operations; a verified answer is not checked
    again when the same case returns the same answer."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.ops = {}
        self._verified = set()

    def judge(self, phase, key, answer, check):
        self.attempted += 1
        self.ops[phase] = self.ops.get(phase, 0) + 1
        if isinstance(answer, Exception):
            problem = f"{key}: raised {type(answer).__name__}: {answer}"
        else:
            memo = (phase, key, repr(answer))
            if memo in self._verified:
                return
            try:
                problem = check(answer)
            except Exception as err:  # a checker crash is a failed answer
                problem = f"{key}: checker raised {type(err).__name__}: {err}"
            if problem is None:
                self._verified.add(memo)
        if problem is not None:
            self.failures.append(f"{phase}: {problem}")


def run_sweep_pass(workloads, phases, tally, tracer=None, scale=None):
    """One pass over every phase, each started with empty caches.  Returns
    one sample per operation: [phase, raw seconds, normalising factor (1.0
    here), feeds op_ms.*, case index].  With a scale, a reference sample
    is taken at the start and then as often as the scale asks."""
    samples = []
    if scale is not None:
        scale.sample()
    for phase in phases:
        workloads.clear_caches()
        for index, case in enumerate(phase.cases):
            if tracer is not None:
                tracer.item, tracer.active = case["key"], True
            start = perf_counter()
            try:
                answer = phase.op(case)
            except Exception as err:  # the run keeps going; the failure is counted
                answer = err
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            samples.append([phase.name, elapsed, 1.0, phase.latencies, index])
            tally.judge(phase.name, case["key"],
                        answer, lambda a, c=case, ph=phase: ph.check(c, a))
            if scale is not None:
                scale.after(elapsed)
    return samples


CHILDREN_PER_SAMPLE = 2  # cold children between two interpreter samples


def run_cli_pass(queries, selfcheck, tally, scale=None, trace_dir=None, work=None):
    """One pass of cold queries, after a full selfcheck if asked.  Returns
    samples as run_sweep_pass does, the peak child RSS and trace records.
    With a scale, an interpreter sample is taken before the first child
    and after every CHILDREN_PER_SAMPLE children, and each child gets the
    factor of the two samples around it.  With a second scale `work`, it
    takes a sample after each child."""
    import checks

    samples, pending, records, rss = [], [], [], 0.0
    jobs = ([("selfcheck", {"argv": ["selfcheck"], "key": "selfcheck"})] if selfcheck else [])
    jobs += [("cli_query", q) for q in queries]
    for index, (phase, q) in enumerate(jobs):
        suites_file = None
        if trace_dir is None and phase == "selfcheck":
            os.makedirs(OUT_DIR, exist_ok=True)
            suites_file = os.path.join(OUT_DIR, f"suites-{os.getpid()}.json")
            cmd = [sys.executable, os.path.join(HERE, "timed_child.py"), suites_file] + q["argv"]
        elif trace_dir is None:
            cmd = A1U + q["argv"]
        else:
            out_file = os.path.join(trace_dir, f"child-{len(records)}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_child.py"), out_file] + q["argv"]
        if scale is not None and not scale.samples:
            scale.sample()
        rc, out, elapsed, child_rss = run_child(cmd)
        if work is not None:
            work.sample()
        if suites_file is None:
            mine = [[phase, elapsed, 1.0, phase == "cli_query", index]]
        else:
            # one sample per suite and one for the rest (start, imports,
            # output), so that a run can keep each part's fastest time
            try:
                with open(suites_file, encoding="utf-8") as fh:
                    parts = json.load(fh)
                os.remove(suites_file)
            except (OSError, ValueError):  # the child failed; the check counts it
                parts = []
            parts.append(elapsed - sum(parts))
            mine = [[phase, part, 1.0, False, k] for k, part in enumerate(parts)]
        samples += mine
        pending += mine
        if scale is not None and ((index + 1) % CHILDREN_PER_SAMPLE == 0 or index + 1 == len(jobs)):
            scale.sample()
            factor = scale.factor(len(scale.samples) - 2)
            for sample in pending:
                sample[2] = factor
            pending = []
        rss = max(rss, child_rss)
        if phase == "cli_query":
            tally.judge(phase, q["key"], (rc, out), lambda a, q=q: checks.check_cli(q, *a))
        else:
            tally.judge(phase, q["key"], (rc, out), lambda a: checks.check_selfcheck(*a))
        if trace_dir is not None:
            with open(out_file, encoding="utf-8") as fh:
                records.append(dict(json.load(fh), argv=q["argv"]))
            os.remove(out_file)
    return samples, rss, records


def pctl(values, q, steps=32):
    """Harrell-Davis estimate of percentile q (0 < q < 100): the mean of
    the order statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.
    It uses every value near the percentile instead of the two around it,
    so it moves less when one case is slow.  The weights are integrated
    with the midpoint rule on `steps` points per order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        mids = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                           for x in mids))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class Timings:
    """Per-pass phase totals and per-operation latencies, each both raw
    and normalised (see calibrate.py)."""

    def __init__(self):
        self.passes = {"raw": [], "norm": []}  # one {phase: seconds} per pass
        self.latencies = {"raw": [], "norm": []}

    def add_pass(self, samples):
        for kind in ("raw", "norm"):
            totals = {}
            for phase, raw, factor, is_latency, _ in samples:
                value = raw * factor if kind == "norm" else raw
                totals[phase] = totals.get(phase, 0.0) + value
                if is_latency:
                    self.latencies[kind].append(value)
            self.passes[kind].append(totals)

    def phase(self, kind, name):
        return [totals[name] for totals in self.passes[kind] if name in totals]


def measure(args, workloads, prepared, tally):
    """Untraced run: a fixed number of passes, as many as --seconds hold
    at the nominal pass time (workloads.PASS_S) and at least MIN_PASSES;
    cli-cold also makes enough passes for MIN_LATENCIES queries.  A fixed
    count makes every run of the same --seconds take the fastest of the
    same number of runs."""
    import calibrate

    want = max(MIN_PASSES, int(args.seconds // workloads.PASS_S[args.workload]))
    rss, latencies, all_passes = 0.0, 0, []
    # cli-cold scales each query by the interpreter samples around it.
    # Work that computes in Python for seconds, a sweep or a selfcheck
    # child, is scaled by python_work samples taken between operations.
    interpreter = calibrate.Scale("interpreter") if args.workload == "cli-cold" else None
    work = calibrate.Scale("python_work")
    while len(all_passes) < want or (args.workload == "cli-cold" and latencies < MIN_LATENCIES):
        if args.workload == "cli-cold":
            samples, child_rss, _ = run_cli_pass(
                prepared[len(all_passes) % len(prepared)],
                len(all_passes) < workloads.SELFCHECK_RUNS, tally, interpreter, work=work)
            rss = max(rss, child_rss)
        else:
            samples = run_sweep_pass(workloads, prepared, tally, scale=work)
        all_passes.append(samples)
        latencies += sum(1 for sample in samples if sample[3])
    passes = len(all_passes)
    if args.workload == "cli-cold":
        # the selfchecks count as one: the fastest run of each suite
        selfchecks = [[s for s in samples if s[0] == "selfcheck"] for samples in all_passes]
        all_passes = [[s for s in samples if s[0] != "selfcheck"] for samples in all_passes]
        all_passes[0] += fastest_per_case(selfchecks)
        scaled = [s for s in all_passes[0] if s[0] == "selfcheck"]
    else:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # each case's fastest run drops the slow spells within the run
        all_passes = [fastest_per_case(all_passes)]
        scaled = all_passes[0]
    # one run-wide factor takes out the drift between runs
    work.sample()
    for sample in scaled:
        sample[2] = work.factor()
    timings = Timings()
    timings.python_work_factor = work.factor()
    timings.python_work_ms = {f"q{q}": 1000.0 * statistics.quantiles(work.samples, n=100)[q - 1]
                              for q in (1, 10, 50)}
    for samples in all_passes:
        timings.add_pass(samples)
    return timings, rss, passes


def fastest_per_case(all_passes):
    """One pass made of each case's fastest run, over all passes and over
    the rounds of a phase that runs more than once a pass."""
    best = {}
    for samples in all_passes:
        for sample in samples:
            case = (sample[0], sample[4])
            if case not in best or sample[1] < best[case][1]:
                best[case] = sample
    return list(best.values())


MAIN_GUARD = {  # workload -> (phases summed into sweep_s, phase of guard_s)
    "cli-cold": (("cli_query",), "selfcheck"),
    "oracle-sweep": (("oracle_sweep",), "oracle_reject"),
    "enumeration-sweep": (("verdict_sweep", "dn_menu"), "listing_sweep"),
}


def end_to_end(args, timings, kind, rss, setup_s):
    """The end-to-end metrics from raw or normalised timings.  Pass totals
    report the fastest pass: load from other tenants only adds time.  A
    sweep has one pass, made of each case's fastest run (see measure)."""
    main, guard = MAIN_GUARD[args.workload]
    sweep = [sum(t[name] for name in main) for t in timings.passes[kind]]
    latencies = timings.latencies[kind]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "op_ms.p50": {"value": 1000.0 * pctl(latencies, 50), "unit": "ms"},
        "op_ms.p90": {"value": 1000.0 * pctl(latencies, 90), "unit": "ms"},
        "sweep_s": {"value": min(sweep), "unit": "s"},
        "guard_s": {"value": min(timings.phase(kind, guard)), "unit": "s"},
    }


def named_phases(args, timings):
    """Normalised per-phase timings under the names the design uses:
    fastest pass per phase, and for cli-cold the query percentiles."""
    if args.workload != "cli-cold":
        return {f"{name}_s": min(timings.phase("norm", name)) for name in timings.passes["norm"][0]}
    latencies = timings.latencies["norm"]
    return {
        "cli_query_ms.p50": 1000.0 * pctl(latencies, 50),
        "cli_query_ms.p90": 1000.0 * pctl(latencies, 90),
        "cli_query_samples": len(latencies),
        "selfcheck_s": min(timings.phase("norm", "selfcheck")),
        "selfcheck_samples": len(timings.phase("norm", "selfcheck")),
    }


# --- traced run --------------------------------------------------------------


def merge(aggregates):
    out = {"calls": {}, "self_s": {}, "total_s": {}, "sums": {}, "maxima": {}}
    for agg in aggregates:
        for key in ("calls", "self_s", "total_s", "sums"):
            for name, value in agg[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, value in agg["maxima"].items():
            out["maxima"][name] = max(out["maxima"].get(name, 0), value)
    return out


def layer_metrics(agg, item_calls, extra):
    """Per-layer metrics from merged span aggregates."""
    calls, self_s, total_s = agg["calls"], agg["self_s"], agg["total_s"]
    c = lambda name: calls.get(name, 0)  # noqa: E731
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("cli.import_ms", extra["import_ms"], "ms")
    put("cli.interpreter_ms", extra["interpreter_ms"], "ms")
    put("cli.run_ms.p50", extra["run_ms_p50"], "ms")
    put("atlas.verdict.calls", c("atlas.verdict"), "count")
    put("atlas.verdict.self_s", s("atlas.verdict"), "s")
    put("atlas.first_verdict_ms", extra["first_verdict_ms"], "ms")
    put("classical.unicity_verdict.calls", c("classical.unicity_verdict"), "count")
    put("classical.unicity_verdict.self_s", s("classical.unicity_verdict"), "s")
    put("classical.witnesses.self_s", s("classical.witnesses"), "s")
    for fn in ("parse_descriptor", "format_descriptor", "realize"):
        put(f"sl2modules.{fn}.calls", c(f"sl2modules.{fn}"), "count")
        put(f"sl2modules.{fn}.self_s", s(f"sl2modules.{fn}"), "s")
    put("sl2modules.IrreducibleDescriptor.sort_key.calls",
        c("sl2modules.IrreducibleDescriptor.sort_key"), "count")
    for fn in ("tensor_pair", "tensor_multi", "tensor_pair_oracle"):
        put(f"jordan.{fn}.calls", c(f"jordan.{fn}"), "count")
        put(f"jordan.{fn}.self_s", s(f"jordan.{fn}"), "s")
    jbs, rank = c("ffmatrix.jordan_block_sizes"), c("ffmatrix.rank")
    put("ffmatrix.jordan_block_sizes.calls", jbs, "count")
    put("ffmatrix.jordan_block_sizes.self_s", s("ffmatrix.jordan_block_sizes"), "s")
    put("ffmatrix.jordan_block_sizes.n.max",
        agg["maxima"].get("ffmatrix.jordan_block_sizes.n", 0), "rows")
    put("ffmatrix.rank.calls", rank, "count")
    put("ffmatrix.rank.self_s", s("ffmatrix.rank"), "s")
    put("ffmatrix.rank.calls_per_jordan_type", rank / jbs if jbs else 0.0, "ratio")
    put("ffmatrix.rank.computed_ops", agg["sums"].get("ffmatrix.rank.computed_ops", 0), "ops")
    put("ffmatrix.kronecker.self_s", s("ffmatrix.kronecker"), "s")
    put("ffmatrix.sym_power.self_s", s("ffmatrix.sym_power"), "s")
    classes = agg["sums"].get("enumerator.classes.total", 0)
    enum_total = total_s.get("enumerator.enumerate_embeddings", 0.0)
    put("enumerator.enumerate_embeddings.calls", c("enumerator.enumerate_embeddings"), "count")
    put("enumerator.enumerate_embeddings.self_s", s("enumerator.enumerate_embeddings"), "s")
    put("enumerator.classes.total", classes, "count")
    put("enumerator.classes_per_s", classes / enum_total if enum_total else 0.0, "1/s")
    for fn in ("dn_partition_list", "partitions_bounded", "jordan_menu"):
        put(f"enumerator.{fn}.self_s", s(f"enumerator.{fn}"), "s")
    put("enumerator.canonicalize.calls", c("enumerator.canonicalize"), "count")
    for suite, case_layer in SUITE_CASES.items():
        put(f"selfcheck.{suite}.s", total_s.get(f"selfcheck.{suite}", 0.0), "s")
        put(f"selfcheck.{suite}.cases",
            item_calls.get(f"selfcheck.{suite}|{case_layer}", 0), "count")
    put("trace.overhead_s", extra["overhead_s"], "s")
    put("trace.overhead_frac", extra["overhead_frac"], "ratio")
    return m


def raw_totals(samples):
    totals = {}
    for phase, raw, *_ in samples:
        totals[phase] = totals.get(phase, 0.0) + raw
    return totals


def traced_run(args, workloads, prepared, tally, import_s):
    """One untraced pass, then the same pass traced.  Returns per-layer
    metrics, the per-phase timings of both passes and the span records."""
    import tracer as tracing

    extra = {"interpreter_ms": interpreter_ms(), "run_ms_p50": 0.0,
             "first_verdict_ms": 0.0, "import_ms": 1000.0 * import_s}
    if args.workload == "cli-cold":
        os.makedirs(OUT_DIR, exist_ok=True)
        plain, _, _ = run_cli_pass(prepared[0], True, tally)
        traced, _, records = run_cli_pass(prepared[0], True, tally, trace_dir=OUT_DIR)
        aggregates = [r["aggregate"] for r in records]
        item_calls = {}
        for r in records:
            for key, n in r["item_calls"].items():
                item_calls[key] = item_calls.get(key, 0) + n
        extra["import_ms"] = 1000.0 * statistics.median(r["import_s"] for r in records)
        extra["run_ms_p50"] = 1000.0 * statistics.median(r["run_s"] for r in records)
        firsts = [r["first_verdict_s"] for r in records if r["first_verdict_s"] is not None]
        extra["first_verdict_ms"] = 1000.0 * statistics.median(firsts) if firsts else 0.0
        spans = [{"argv": r["argv"], "spans": r["spans"]} for r in records]
    else:
        plain = run_sweep_pass(workloads, prepared, tally)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_sweep_pass(workloads, prepared, tally, tracer)
        finally:
            tracer.uninstall()
        aggregates = [tracer.aggregate()]
        item_calls = tracer.item_calls()
        spans = [{"argv": "in-process", "spans": tracer.spans}]
    plain, traced = raw_totals(plain), raw_totals(traced)
    base, with_trace = sum(plain.values()), sum(traced.values())
    extra["overhead_s"] = with_trace - base
    extra["overhead_frac"] = (with_trace - base) / base
    metrics = layer_metrics(merge(aggregates), item_calls, extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item"],
                   "processes": spans}, fh)
    report = {"untraced_pass_s": plain, "traced_pass_s": traced,
              "spans_file": os.path.relpath(path, ROOT),
              "waiting": "none: no layer has a queue, so no call waits"}
    return metrics, report


# --- main ----------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "a1unicity", "__init__.py")):
        print("perfbench: src/a1unicity not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t_import = perf_counter()
    import a1unicity
    import a1unicity.cli  # noqa: F401
    import_s = perf_counter() - t_import
    if not os.path.abspath(a1unicity.__file__).startswith(SRC + os.sep):
        print(f"perfbench: a1unicity imported from {a1unicity.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.generate(args.workload, args.seed)
    digest = hashlib.sha256(workloads.canonical_bytes(inputs)).hexdigest()
    prepared = workloads.prepare(args.workload, inputs)
    setup_s = perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "digest": digest}))
        return 0

    import calibrate

    tally = Tally()
    setups = {"raw": [setup_s], "norm": []}
    scale = calibrate.Scale()
    scale.sample()
    for _ in range(SETUP_PROBES):
        seconds, child_digest = setup_probe(args)
        scale.sample()
        setups["raw"].append(seconds)
        setups["norm"].append(seconds * scale.factor(len(scale.samples) - 2))
        if child_digest != digest:
            tally.failures.append("setup: a fresh process generated different inputs")

    record = {}
    if args.trace:
        metrics, record["trace"] = traced_run(args, workloads, prepared, tally, import_s)
    else:
        timings, rss, passes = measure(args, workloads, prepared, tally)
        import tracer as tracing

        leftover = tracing.installed_wrappers()
        if leftover:
            tally.failures.append(f"untraced run found tracer wrappers: {leftover}")
        metrics = end_to_end(args, timings, "norm", rss, statistics.median(setups["norm"]))
        record["passes"] = passes
        record["phases"] = named_phases(args, timings)
        record["raw_metrics"] = end_to_end(
            args, timings, "raw", rss, statistics.median(setups["raw"]))
        record["setup_s_samples"] = setups
        record["python_work_factor"] = timings.python_work_factor
        record["python_work_ms"] = timings.python_work_ms
        record["pass_s"] = timings.passes

    failed = len(tally.failures)
    record["failed_ops_frac"] = {"value": failed / max(tally.attempted, 1),
                                 "base": tally.attempted}
    record["failures"] = tally.failures[:20]
    record["provenance"] = provenance(args, digest, tally.ops)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
