"""The lt-workbench benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload's seeded command stream in this process, one command
at a time (a closed loop with one client), through `lt.cli.main(argv)`
or, for the PT+ sweep, the public `lt.ptplus` and `lt.semantics`
functions.  Every verdict is then checked against `ref.py`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  `--workload all`
runs every workload, each in a fresh process.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import gen
import hostspeed
import layers
import ref
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS_DIR = os.path.join(ROOT, "corpus")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")
VERDICTS_DIR = os.path.join(HERE, "verdicts")
LAYERS = ("syntax", "algebra", "semantics", "entailment", "proofcheck", "ptplus", "cli")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
SETUP_REPEATS = 5
RECORD_LIMIT = 300   # commands per workload locked by the recorded default-seed verdicts
SWEEP_SAMPLE = 1500  # sweep formulas also checked against the reference team semantics

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout lacks what the benchmark needs (the `lt` sources)."""


def load_lt() -> dict:
    """Import a fresh copy of every `lt` module from this checkout."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "lt" or m.startswith("lt.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        mods = {name: importlib.import_module(f"lt.{name}") for name in LAYERS}
    except ImportError as exc:
        raise SetupError(f"cannot import lt from {SRC}: {exc}") from None
    where = os.path.realpath(mods["cli"].__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"lt was imported from {where}, not from this checkout")
    return mods


@dataclass
class Result:
    exit: int | None
    out: str
    seconds: float
    raised: str | None = None
    payload: object = None
    started: float = 0.0


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def pt_sweep(lt, k: int = 2, call=_direct):
    """The PT+ agreement sweep: every PT+ formula of depth 3 over k
    variables through `pt_eval` and the cached algebra `evaluate`."""
    pt, evaluate = lt["ptplus"], lt["semantics"].evaluate
    hv = call("ptplus.build_hv", pt.build_hv, k)
    pt_cache, lt_cache = {}, {}
    formulas = call("ptplus.enumerate_pt_formulas", pt.enumerate_pt_formulas, k, 3)
    return [(f, call("ptplus.pt_eval", pt.pt_eval, f, k, pt_cache).bits,
             call("semantics.evaluate", evaluate, hv, f, cache=lt_cache).bits) for f in formulas]


def run_command(lt, cmd: gen.Command, call=_direct) -> Result:
    """Run one command, capturing its output.  `call(name, fn, *args)`
    makes each call into `lt` (the traced pass records a span)."""
    out, err = io.StringIO(), io.StringIO()  # error messages are not checked
    payload = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if cmd.argv is None:
                payload = pt_sweep(lt, cmd.check["k"], call)
                code = 0
            else:
                code = call("cli.main", lt["cli"].main, cmd.argv)
        raised = None
    except Exception as exc:  # a crash is a result to report, not a benchmark error
        code, raised = None, f"{type(exc).__name__}: {str(exc)[:120]}"
    return Result(code, out.getvalue(), perf_counter() - start, raised, payload, start)


def run_stream(lt, cmds):
    """Run the stream; each result's seconds, and the stream's, are
    seconds on the reference host (see hostspeed.py)."""
    with hostspeed.SpeedClock() as clock:
        start = perf_counter()
        results = [run_command(lt, cmd) for cmd in cmds]
        end = perf_counter()
    for r in results:
        r.seconds = clock.reference_seconds(r.started, r.started + r.seconds)
    return results, clock.reference_seconds(start, end)


# -- verification against the reference semantics


def _element(text: str) -> int:
    return int(text, 2) if text else 0


def _assignment(obj: dict) -> dict:
    return {int(name[1:]): frozenset(_element(e) for e in elems) for name, elems in obj.items()}


def _full_count(n, k_vars, k_atoms, klass):
    return len(ref.domain(n, klass)) ** k_vars * (1 << n) ** k_atoms


def check_search(cmd, obj) -> tuple[str | None, int]:
    """Check an entail/lentail verdict; return (problem, logical homs)."""
    ch = cmd.check
    labelled = cmd.kind == "lentail"
    if labelled:
        formulas = [f for _, f in ch["gamma"]] + [ch["concl"][1]]
        vs = ref.variables(*formulas)
        atoms = ref.variables(*[a for a, _ in ch["gamma"]], ch["concl"][0])
        klass = "all"
    else:
        vs = ref.variables(*ch["premises"], ch["concl"])
        atoms = []
        klass = ch["class"]
    full = lambda n: _full_count(n, len(vs), len(atoms), klass)
    status = obj.get("status")
    if cmd.exit == 0:
        if status != "entailed_up_to_n" or obj.get("n") != ch["max_n"]:
            return f"expected entailed_up_to_n at n={ch['max_n']}, got {status} n={obj.get('n')}", 0
        return None, sum(full(n) for n in range(ch["max_n"] + 1))
    if cmd.exit == 3:
        if status != "budget_exceeded" or obj.get("n") != ch["completed_n"]:
            return f"expected budget_exceeded after n={ch['completed_n']}", 0
        return None, sum(full(n) for n in range(ch["completed_n"] + 1))
    cm = obj.get("countermodel")
    if status != "countermodel" or not cm:
        return f"expected a countermodel, got {status}", 0
    n = cm["n"]
    env = _assignment(cm["assignment"])
    witness = _element(cm["witness"])
    if sorted(env) != vs:
        return "countermodel assigns other variables than the query's", 0
    if labelled:
        lenv = {int(a[1:]): _element(e) for a, e in cm.get("label_assignment", {}).items()}
        if sorted(lenv) != atoms:
            return "countermodel assigns other label atoms than the query's", 0
        if ref.lentail_violation(ch["gamma"], ch["concl"], n, env, lenv) != witness:
            return "countermodel does not replay under the reference semantics", 0
        least = lambda m: ref.least_lentail_countermodel(ch["gamma"], ch["concl"], m)
        values = tuple(ref.to_bits(env[v]) for v in vs) + tuple(lenv[a] for a in atoms)
    else:
        if not (all(witness in ref.denote(p, n, env) for p in ch["premises"])
                and witness not in ref.denote(ch["concl"], n, env)):
            return "countermodel does not replay under the reference semantics", 0
        least = lambda m: ref.least_entail_countermodel(ch["premises"], ch["concl"], m, klass)
        values = tuple(ref.to_bits(env[v]) for v in vs)
    for m in range(n):
        if least(m) is not None:
            return f"a countermodel exists at n={m} < {n}", 0
    idx, want_values, want_witness = least(n)
    if (tuple(want_values), want_witness) != (values, witness):
        return "countermodel is not the least one in canonical order", 0
    return None, sum(full(m) for m in range(n)) + idx + 1


def _teams(teams, k):
    return [[gen.element_str(s, k) for s in sorted(ref.members(t))] for t in sorted(teams)]


def check_output(cmd: gen.Command, res: Result, lt) -> tuple[str | None, int]:
    ch = cmd.check
    if cmd.kind == "malformed":
        return (None if res.out == "" else "printed a verdict for malformed input"), 0
    if cmd.kind == "pt-sweep":
        return check_sweep(res.payload, lt, ch), 0
    if cmd.kind == "parse":
        return (None if res.out.strip() else "no output"), 0
    if cmd.kind == "expand":
        return check_expand(cmd, res.out.strip()), 0
    obj = json.loads(res.out)
    if cmd.kind in ("entail", "lentail"):
        return check_search(cmd, obj)
    if cmd.kind == "eval":
        n = ch["n"]
        env = {v: ref.members(b) for v, b in ch["env"].items()}
        want = [gen.element_str(e, n) for e in sorted(ref.denote(ch["f"], n, env))]
        return (None if obj == {"algebra_n": n, "denotation": want} else "wrong denotation"), 0
    if cmd.kind == "check-proof":
        if cmd.exit == 0:
            return (None if obj == {"status": "ok"} else "derivation not accepted"), 0
        return (None if obj.get("reason") == ch["reason"] else f"wrong violation {obj.get('reason')}"), 0
    if cmd.kind == "pt-eval":
        want = _teams(ref.pt_denote(ch["f"], ch["k"]), ch["k"])
        return (None if obj == {"k": ch["k"], "denotation": want} else "wrong team denotation"), 0
    if cmd.kind == "pt-entail":
        k = ch["k"]
        inter = frozenset(range(1 << (1 << k)))
        for p in ch["premises"]:
            inter &= ref.pt_denote(p, k)
        bad = inter - ref.pt_denote(ch["concl"], k)
        want = {"status": "entailed", "k": k} if not bad else {
            "status": "countermodel", "k": k, "counter_team": _teams([min(bad)], k)[0]}
        return (None if obj == want else "wrong PT+ verdict"), 0
    if cmd.kind == "bridge-verify-f":
        n, k = ch["n"], ch["k"]
        vals = {gen.element_str(1 << s, n): gen.element_str(
            sum(1 << i for i, a in enumerate(ch["ideals"]) if a >> s & 1), k) for s in range(n)}
        ok = obj.get("status") == "ok" and obj.get("atom_valuations") == vals
        return (None if ok else "representation map disagrees"), 0
    if cmd.kind == "classes-principal-check":
        n = ch["n"]
        x = ref.members(ch["bits"])
        want = {"n": n, "denotation": [gen.element_str(e, n) for e in sorted(x)],
                "is_principal_ideal": ref.is_principal_ideal(x)}
        if want["is_principal_ideal"]:
            want["max_element"] = gen.element_str(max(x), n)
        return (None if obj == want else "wrong principal-ideal verdict"), 0
    return f"no check for kind {cmd.kind}", 0


def check_expand(cmd, text):
    try:
        tree = ref.parse_ref(text)
    except ValueError as exc:
        return f"expansion is not core syntax: {exc}"
    if any(op in ("~", "nb") for op in _ops(tree)):
        return "expansion is not core syntax"
    rng = random.Random(cmd.name)
    vs = ref.variables(cmd.check["f"])
    for n in (1, 2):
        env = {v: ref.members(rng.getrandbits(1 << n)) for v in vs}
        if ref.denote(tree, n, env) != ref.denote(cmd.check["f"], n, env):
            return "expansion changes the denotation"
    return None


def _ops(tree):
    yield tree[0]
    for c in tree[1:]:
        if isinstance(c, tuple):
            yield from _ops(c)


def check_sweep(rows, lt, ch):
    if any(pt_bits != lt_bits for _, pt_bits, lt_bits in rows):
        return "pt_eval and evaluate disagree"
    rng = random.Random(f"sweep/{ch['seed']}")
    fmt = lt["syntax"].format_formula
    for f, pt_bits, _ in rng.sample(rows, min(SWEEP_SAMPLE, len(rows))):
        if ref.to_bits(ref.pt_denote(ref.parse_ref(fmt(f)), ch["k"])) != pt_bits:
            return "pt_eval disagrees with the reference team semantics"
    return None


def verify(cmds, results, lt, recorded) -> tuple[list[tuple[str, str, str]], list[int]]:
    """Failures as (command, category, reason), and logical homomorphisms
    per command.  Category: 'raised' (no verdict), 'status' (unexpected
    exit status) or 'verdict' (output disagrees with the reference)."""
    failures, homs = [], []
    for cmd, res in zip(cmds, results):
        n_homs = 0
        if res.raised is not None:
            failures.append((cmd.name, "raised", res.raised))
        elif res.exit != cmd.exit:
            failures.append((cmd.name, "status", f"exit {res.exit}, expected {cmd.exit}"))
        else:
            try:
                problem, n_homs = check_output(cmd, res, lt)
            except (ValueError, KeyError, TypeError) as exc:  # unparsable output
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem is None and cmd.name in recorded:
                if recorded[cmd.name][:2] != _fingerprint(res):
                    problem = "output differs from the recorded default-seed verdict"
            if problem:
                failures.append((cmd.name, "verdict", problem))
        homs.append(n_homs)
    return failures, homs


def _fingerprint(res: Result) -> list:
    return [res.exit, hashlib.sha256(res.out.encode()).hexdigest()[:20]]


def recorded_verdicts(workload, seed) -> dict:
    path = os.path.join(VERDICTS_DIR, f"{workload}.json")
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def record_verdicts(workload, cmds, results, failures):
    """[exit status, output hash], plus the countermodel of a refuted search
    so that the file shows the least countermodel it locks."""
    failed = {name for name, _, _ in failures}
    commands = {}
    for cmd, res in list(zip(cmds, results))[:RECORD_LIMIT]:
        if cmd.name in failed or cmd.argv is None:
            continue
        commands[cmd.name] = _fingerprint(res)
        if cmd.kind in ("entail", "lentail") and res.exit == 1:
            commands[cmd.name].append(json.loads(res.out)["countermodel"])
    lines = [f"{json.dumps(name)}: {json.dumps(value, separators=(',', ':'))}"
             for name, value in sorted(commands.items())]
    os.makedirs(VERDICTS_DIR, exist_ok=True)
    with open(os.path.join(VERDICTS_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED}, "commands": {{\n' + ",\n".join(lines) + "\n}}\n")


# -- set-up


def write_files(cmds):
    for cmd in cmds:
        for path, text in cmd.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def set_up(workload, seed, seconds, tag):
    """Import lt, generate the stream with its expected answers, and write
    its temp files.  Returns (lt, commands, seconds taken on the reference
    host, temp dir)."""
    with hostspeed.SpeedClock() as clock:
        start = perf_counter()
        lt = load_lt()
        tmp = os.path.join(TMP_DIR, f"{os.getpid()}-{tag}")
        os.makedirs(tmp, exist_ok=True)
        cmds = gen.build(workload, seed, seconds, tmp, CORPUS_DIR)
        write_files(cmds)
        end = perf_counter()
    return lt, cmds, clock.reference_seconds(start, end), tmp


def percentile(xs, q):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


# -- the two passes


def fresh_set_up(args) -> float:
    """The seconds of one cold set-up in a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up failed in a fresh process: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


def untraced_run(args):
    """Time the set-up cold, each time importing lt for the first time: in
    this process, and in SETUP_REPEATS - 1 fresh ones, half of them before
    the stream and half after, so that the median spans the whole run."""
    before = (SETUP_REPEATS - 1) // 2
    setups = [fresh_set_up(args) for _ in range(before)]
    lt, cmds, elapsed, _ = set_up(args.workload, args.seed, args.seconds, "run")
    setups.append(elapsed)
    results, wall = run_stream(lt, cmds)
    setups += [fresh_set_up(args) for _ in range(SETUP_REPEATS - 1 - before)]
    times_ms = [r.seconds * 1e3 for r in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "verdict_ms_p50": statistics.median(times_ms),
        "verdict_ms_p90": percentile(times_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return lt, cmds, results, metrics, END_TO_END


def traced_run(args):
    """Run each command untraced and traced, alternating which goes first,
    so the difference is the tracing overhead; then run the per-layer
    battery."""
    lt, cmds, _, tmp = set_up(args.workload, args.seed, args.seconds, "t")
    tracer = Tracer()
    wrapped = tracer.instrument(lt)
    span = tracer.call

    def plain(cmd):
        tracer.switch(False)
        res = run_command(lt, cmd)
        tracer.switch(True)
        return res

    results, mismatched = [], []
    plain_s = traced_s = 0.0
    for i, cmd in enumerate(cmds):
        tracer.trace_id = i
        if i % 2:
            res = run_command(lt, cmd, span)
            base = plain(cmd)
        else:
            base = plain(cmd)
            res = run_command(lt, cmd, span)
        plain_s += base.seconds
        traced_s += res.seconds
        if (base.exit, base.out, _kind(base.raised)) != (res.exit, res.out, _kind(res.raised)):
            mismatched.append(f"{cmd.name}: traced output differs")
        results.append(res)
    tracer.switch(False)
    exits = dict.fromkeys(layers.EXIT_KEYS, 0)
    for r in results:
        key = "raised" if r.raised else str(r.exit)
        if key in exits:
            exits[key] += 1

    battery, failures = run_layers(args.seed, tmp)
    metrics = {**battery,
               **{f"cli.exit_status.{k}": v for k, v in exits.items()},
               "trace.overhead_s": traced_s - plain_s,
               "trace.span_calls": sum(c for c, _, _ in tracer.totals.values())}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "wrapped_bindings": wrapped,
                       "commands": [c.name for c in cmds], "untraced_s": plain_s,
                       "traced_s": traced_s})
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    for layer, self_s in sorted(tracer.layer_self_s().items(), key=lambda kv: -kv[1]):
        print(f"  self time {layer:<12} {self_s:10.4f} s")
    return lt, cmds, results, metrics, layers.METRICS, failures + mismatched


def _kind(raised):
    """The exception type of a raised command: a deep recursion stops at
    another frame when spans add frames, so the messages may differ."""
    return raised and raised.split(":")[0]


def run_layers(seed, tmp):
    rng = random.Random(f"layers/{seed}")
    lt = load_lt()
    enumerate_ms, formulas = layers.ptplus_cold_enumerate(lt)
    sweep = random.Random(f"layers/{seed}/sweep").sample(formulas, 5000)
    qrng = lambda kind, i: random.Random(f"layers/{seed}/{kind}/{i}")
    vars_queries = [gen.render_query(c.check["premises"], c.check["concl"]) for c in (
        gen.k_commute(qrng("commute", i), "q", gen.pick_vars(qrng("v", i), 2)) for i in range(3))]
    unary_queries = [gen.render_query(c.check["premises"], c.check["concl"])
                     for c in (gen.k_unary(qrng("unary", i), "q") for i in range(2))]
    refuted = [c.argv[-1] for c in (gen.k_chain(qrng("chain", i), "q") for i in range(5))]
    metrics = {"ptplus.enumerate_ms": enumerate_ms}
    metrics.update(layers.syntax_layer(lt, vars_queries + unary_queries))
    metrics.update(layers.algebra_layer(lt, rng))
    metrics.update(layers.semantics_layer(lt, rng, vars_queries, unary_queries, sweep))
    found, failures = layers.entailment_layer(lt, vars_queries[0], unary_queries[0], refuted)
    metrics.update(found)
    found, more = layers.proofcheck_layer(lt, rng, CORPUS_DIR)
    metrics.update(found)
    failures += more
    metrics.update(layers.ptplus_layer(lt, rng, sweep))
    metrics.update(layers.cli_layer(lt, seed, tmp, CORPUS_DIR, run_command))
    return metrics, failures


# -- entry points


def run_one(args) -> int:
    try:
        if args.trace:
            lt, cmds, results, metrics, units, extra = traced_run(args)
        else:
            lt, cmds, results, metrics, units = untraced_run(args)
            extra = []
        recorded = {} if args.record else recorded_verdicts(args.workload, args.seed)
        failures, homs = verify(cmds, results, lt, recorded)
    finally:
        for tmp in glob.glob(os.path.join(TMP_DIR, f"{os.getpid()}-*")):
            shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_DIR)
    if args.record:
        record_verdicts(args.workload, cmds, results, failures)
    failures += [(problem.split(":")[0], "verdict", problem) for problem in extra]
    report(args, cmds, results, metrics, units, failures, homs)
    return 0


def report(args, cmds, results, metrics, units, failures, homs):
    attempted = len(cmds) + (1 if args.trace else 0)
    search_s = sum(r.seconds for c, r in zip(cmds, results) if c.kind in ("entail", "lentail"))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  commands {len(cmds)}")
    for name, unit in units.items():
        base = layers.ROADMAP_BASELINE.get(name) if args.trace else None
        note = f"   (ROADMAP baseline {base[0]:g} {unit}: {base[1]})" if base else ""
        print(f"  {name:<38} {metrics[name]:14.6g} {unit}{note}")
    if "verdict_ms_p90" in metrics:
        beyond = sum(r.seconds * 1e3 > metrics["verdict_ms_p90"] for r in results)
        print(f"  verdict times: {len(results)} samples, {beyond} beyond the 90th percentile")
    if search_s:
        print(f"  {'homs_per_s':<38} {sum(homs) / search_s:14.6g} 1/s "
              f"({sum(homs)} logical homomorphisms decided)")
    print(f"  {'failed_frac':<38} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)} of {attempted})")
    for name, category, reason in failures[:40]:
        print(f"    FAILED {name} [{category}] {reason}")
    if len(failures) > 40:
        print(f"    ... and {len(failures) - 40} more")
    print(json.dumps({
        "correct": correct(cmds, failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def correct(cmds, failures) -> bool:
    """True unless a command gave a wrong verdict or an unexpected exit
    status, or raised.  The one exemption: the known crash inputs of the
    roadmap's input-boundary item raise today; they stay listed as failed
    and count in `failed`, but do not make the run incorrect."""
    crash = {c.name for c in cmds if c.check.get("crash") is not None}
    return all(cat == "raised" and name in crash for name, cat, _ in failures)


def run_all(args) -> int:
    """Each workload in a fresh process; prints their reports and one
    combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS + gen.EXTRA_WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lt-workbench benchmark")
    parser.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, *gen.EXTRA_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the recorded default-seed verdicts of the workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("LT_MAX_N", None)  # queries without --max-n expect the default depth
    if args.record and (args.seed != DEFAULT_SEED or args.workload == "all"):
        parser.error("--record needs one workload and the default seed")
    try:
        if args.setup_only:
            _, _, elapsed, tmp = set_up(args.workload, args.seed, args.seconds, "setup")
            shutil.rmtree(tmp)
            print(repr(elapsed))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
