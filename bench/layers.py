"""Per-layer measurements for the traced pass.

Each function times calls into one `lt` module on seeded inputs and
returns metrics named `<layer>.<quantity>`.  The same battery runs for
every workload, so each traced run reports every layer metric; the
`--seed` picks the inputs.  Where the roadmap has a baseline row for a
case, the case here is the same one.
"""

from __future__ import annotations

import os
import random
import statistics
from time import perf_counter

import gen
from ref import parse_ref

KERNEL_OPS = ("int_or", "int_and", "int_not", "strict_neg", "down_closure", "up_closure")
KERNEL_NS = (2, 3, 4, 6, 8)
KERNEL_SAMPLES = {2: 136, 3: 2000, 4: 2000, 6: 300, 8: 40}
INIT_REPEATS = {0: 50, 1: 50, 2: 50, 3: 50, 4: 50, 5: 50, 6: 20, 7: 10, 8: 5}
TAUT_ATOMS = (12, 14, 16, 18, 20)
TAUT_REPEATS = {12: 5, 14: 3, 16: 1, 18: 1, 20: 1}
CLI_KINDS = ("parse", "expand", "eval", "entail", "lentail", "check-proof", "pt-eval",
             "pt-entail", "bridge-verify-f", "classes-principal-check")
EXIT_KEYS = ("0", "1", "2", "3", "raised")

# name -> unit, in the order they are reported
METRICS: dict[str, str] = {
    "syntax.parse_us": "us",
    "syntax.expand_us": "us",
    "syntax.expanded_nodes": "count",
    **{f"algebra.{op}_us.n{n}": "us" for op in KERNEL_OPS for n in KERNEL_NS},
    **{f"algebra.init_us.n{n}": "us" for n in range(9)},
    "semantics.eval_core_us.n3": "us",
    "semantics.eval_core_us.n4": "us",
    "semantics.evaluate_us": "us",
    **{f"entailment.decide_s.n{n}": "s" for n in range(5)},
    "entailment.homs_per_s.n3": "1/s",
    "entailment.homs_per_s.n4": "1/s",
    "entailment.homs_decided": "count",
    "entailment.replay_ms": "ms",
    "entailment.jobs2_speedup": "ratio",
    "proofcheck.load_ms": "ms",
    "proofcheck.check_ms": "ms",
    **{f"proofcheck.taut_ms.m{m}": "ms" for m in TAUT_ATOMS},
    "ptplus.enumerate_ms": "ms",
    "ptplus.pt_eval_us": "us",
    "ptplus.verify_f_ms": "ms",
    "cli.build_parser_ms": "ms",
    **{f"cli.main_ms.{kind}": "ms" for kind in CLI_KINDS},
    **{f"cli.exit_status.{key}": "count" for key in EXIT_KEYS},
    "trace.overhead_s": "s",
    "trace.span_calls": "count",
}

# The roadmap's Baseline rows that a layer metric measures again:
# name -> (value in the metric's unit, the roadmap's case).
ROADMAP_BASELINE = {
    "syntax.parse_us": (44, "parse of the K axiom"),
    "syntax.expand_us": (21, "expand of the K axiom"),
    "algebra.int_and_us.n3": (3.0, "int_and, random pairs"),
    "algebra.int_and_us.n4": (11.5, "int_and, random pairs"),
    "algebra.int_and_us.n8": (4000, "int_and, random pairs"),
    "proofcheck.check_ms": (0.76, "check on fig1"),
    "proofcheck.load_ms": (2.2, "load of fig1.json"),
    "proofcheck.taut_ms.m16": (460, "taut_oracle, 16 atoms (other labels)"),
    "proofcheck.taut_ms.m20": (10300, "taut_oracle, 20 atoms (other labels)"),
    "entailment.decide_s.n4": (3.4, "|- P0 -> ~ ~ P0 at n=4 (one-variable query)"),
    "entailment.homs_per_s.n4": (19000, "|- P0 -> ~ ~ P0 at n=4 (one-variable query)"),
    "entailment.jobs2_speedup": (1.8, "|- P0 -> ~ ~ P0 at n=4: 3.4 s / 1.9 s"),
}


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - start, out


def _median_of(fn, repeats):
    return statistics.median(_timed(fn)[0] for _ in range(repeats))


def syntax_layer(lt, queries) -> dict:
    syntax = lt["syntax"]
    k_axiom = syntax.parse_formula(gen.K_AXIOM)
    out = {
        "syntax.parse_us": _median_of(lambda: syntax.parse_formula(gen.K_AXIOM), 500) * 1e6,
        "syntax.expand_us": _median_of(lambda: syntax.expand(k_axiom), 500) * 1e6,
    }
    nodes = 0
    for text in queries:
        premises, concl = syntax.parse_entailment_query(text)
        for f in (*premises, concl):
            nodes += _count(parse_ref(syntax.format_formula(syntax.expand(f))))
    out["syntax.expanded_nodes"] = nodes
    return out


def _count(tree: tuple) -> int:
    return 1 + sum(_count(c) for c in tree[1:] if isinstance(c, tuple))


def algebra_layer(lt, rng) -> dict:
    Algebra = lt["algebra"].Algebra
    out = {}
    for n in KERNEL_NS:
        size = 1 << (1 << n)
        want = KERNEL_SAMPLES[n]
        if size * (size + 1) // 2 <= want:
            pairs = [(x, y) for x in range(size) for y in range(x, size)]
            rng.shuffle(pairs)
        else:
            seen: set[tuple[int, int]] = set()
            while len(seen) < want:
                x, y = rng.getrandbits(1 << n), rng.getrandbits(1 << n)
                seen.add((min(x, y), max(x, y)))
            pairs = sorted(seen)
            rng.shuffle(pairs)
        values = list(dict.fromkeys(x for pair in pairs for x in pair))[:want]
        for op in KERNEL_OPS:
            fn = getattr(Algebra(n), op)  # fresh algebra: every call misses the memo
            if op in ("int_or", "int_and"):
                elapsed, _ = _timed(lambda: [fn(x, y) for x, y in pairs])
                out[f"algebra.{op}_us.n{n}"] = elapsed / len(pairs) * 1e6
            else:
                elapsed, _ = _timed(lambda: [fn(x) for x in values])
                out[f"algebra.{op}_us.n{n}"] = elapsed / len(values) * 1e6
    for n in range(9):
        out[f"algebra.init_us.n{n}"] = _median_of(lambda: Algebra(n), INIT_REPEATS[n]) * 1e6
    return out


def _expanded(lt, text):
    syntax = lt["syntax"]
    premises, concl = syntax.parse_entailment_query(text)
    return [syntax.expand(f) for f in (*premises, concl)]


def semantics_layer(lt, rng, vars_queries, unary_queries, sweep) -> dict:
    eval_core_bits = lt["semantics"].eval_core_bits
    Algebra = lt["algebra"].Algebra
    out = {}
    for n, queries in ((3, vars_queries), (4, unary_queries)):
        total, homs = 0.0, 0
        for text in queries:
            formulas = _expanded(lt, text)
            alg = Algebra(n)
            variables = sorted(set().union(*(lt["syntax"].free_vars(f) for f in formulas)))
            envs = [{v: rng.getrandbits(1 << n) for v in variables} for _ in range(300)]
            elapsed, _ = _timed(lambda: [eval_core_bits(alg, env, f) for env in envs for f in formulas])
            total += elapsed
            homs += len(envs)
        out[f"semantics.eval_core_us.n{n}"] = total / homs * 1e6
    hv = lt["ptplus"].build_hv(2)
    cache: dict = {}
    evaluate = lt["semantics"].evaluate
    elapsed, _ = _timed(lambda: [evaluate(hv, f, cache=cache) for f in sweep])
    out["semantics.evaluate_us"] = elapsed / len(sweep) * 1e6
    return out


def entailment_layer(lt, vars_query, unary_query, refuted) -> tuple[dict, list[str]]:
    ent = lt["entailment"]
    syntax = lt["syntax"]
    failures = []
    out = {}
    premises, concl = syntax.parse_entailment_query(vars_query)
    homs = 0
    for n in range(4):
        out[f"entailment.decide_s.n{n}"], (ok, _) = _timed(ent.algebra_entails, n, premises, concl)
        homs += (1 << (1 << n)) ** 2
        if not ok:
            failures.append(f"battery.decide.n{n}: valid query refuted")
    premises, concl = syntax.parse_entailment_query(unary_query)
    t1, one = _timed(ent.algebra_entails, 4, premises, concl, jobs=1)
    t2, two = _timed(ent.algebra_entails, 4, premises, concl, jobs=2)
    homs += 1 << 16
    if not one[0]:
        failures.append("battery.decide.n4: valid query refuted")
    if _verdict(one) != _verdict(two):
        failures.append("battery.jobs2: --jobs 2 verdict differs from --jobs 1")
    out["entailment.decide_s.n4"] = t1
    out["entailment.homs_per_s.n3"] = (1 << 16) / out["entailment.decide_s.n3"]
    out["entailment.homs_per_s.n4"] = (1 << 16) / t1
    out["entailment.homs_decided"] = homs
    out["entailment.jobs2_speedup"] = t1 / t2
    replays = []
    for text in refuted:
        premises, concl = syntax.parse_entailment_query(text)
        report = ent.find_countermodel(premises, concl, max_n=2)
        elapsed, ok = _timed(ent.replay, report.countermodel, premises, concl)
        replays.append(elapsed)
        if not ok:
            failures.append("battery.replay: countermodel does not replay")
    out["entailment.replay_ms"] = statistics.median(replays) * 1e3
    return out, failures


def _verdict(result):
    ok, cm = result
    return ok, None if cm is None else cm.to_json_obj()


def proofcheck_layer(lt, rng, corpus_dir) -> tuple[dict, list[str]]:
    pc = lt["proofcheck"]
    syntax = lt["syntax"]
    failures = []
    path = os.path.join(corpus_dir, "fig1.json")
    derivation = pc.load_derivation(path)
    gamma = pc.load_assumptions(os.path.join(corpus_dir, "fig1.assumptions"))
    out = {
        "proofcheck.load_ms": _median_of(lambda: pc.load_derivation(path), 20) * 1e3,
        "proofcheck.check_ms": _median_of(lambda: pc.check(derivation, gamma), 20) * 1e3,
    }
    if not pc.check(derivation, gamma).ok:
        failures.append("battery.check: fig1 rejected")
    for m in TAUT_ATOMS:
        hyps, target = gen.taut_chain(rng, m, valid=True)
        hyps = [syntax.parse_label(gen.render(h)) for h in hyps]
        target = syntax.parse_label(gen.render(target))
        times = []
        for _ in range(TAUT_REPEATS[m]):
            elapsed, ok = _timed(pc.taut_oracle, hyps, target)
            times.append(elapsed)
            if not ok:
                failures.append(f"battery.taut.m{m}: valid chain rejected")
        out[f"proofcheck.taut_ms.m{m}"] = statistics.median(times) * 1e3
    return out, failures


def ptplus_cold_enumerate(lt) -> tuple:
    """Must run first on a freshly imported `lt`: the enumeration is cached."""
    elapsed, formulas = _timed(lt["ptplus"].enumerate_pt_formulas, 2, 3)
    return elapsed * 1e3, formulas


def ptplus_layer(lt, rng, sweep) -> dict:
    pt = lt["ptplus"]
    Homomorphism = lt["semantics"].Homomorphism
    Algebra = lt["algebra"].Algebra
    cache: dict = {}
    elapsed, _ = _timed(lambda: [pt.pt_eval(f, 2, cache) for f in sweep])
    times = []
    for _ in range(10):
        alg = Algebra(rng.choice((1, 2, 3)))
        hom = Homomorphism.from_bits(
            alg, {i: alg.principal_ideal(rng.randrange(alg.size)) for i in range(2)})
        times.append(_timed(pt.verify_f_representation, hom, 2, depth=3)[0])
    return {"ptplus.pt_eval_us": elapsed / len(sweep) * 1e6,
            "ptplus.verify_f_ms": statistics.median(times) * 1e3}


def cli_layer(lt, seed, tmp, corpus_dir, run_command) -> dict:
    cli = lt["cli"]
    out = {"cli.build_parser_ms": _median_of(cli.build_parser, 20) * 1e3}
    makers = {
        "parse": gen.k_parse,
        "expand": gen.k_expand,
        "eval": lambda r, nm: gen.k_eval(r, nm, 4),
        "entail": lambda r, nm: gen.k_chain(r, nm, max_n=2),
        "lentail": gen.k_lneg,
        "check-proof": lambda r, nm: gen.k_corpus(r, nm, tmp, corpus_dir, "and_comm"),
        "pt-eval": gen.k_pt_eval,
        "pt-entail": gen.k_pt_entail,
        "bridge-verify-f": lambda r, nm: gen.k_bridge(r, nm, tmp),
        "classes-principal-check": gen.k_classes,
    }
    for kind in CLI_KINDS:
        times = []
        for i in range(9):
            cmd = makers[kind](random.Random(f"layers/{seed}/{kind}/{i}"), f"layer.{kind}.{i}")
            for path, text in cmd.files.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            times.append(run_command(lt, cmd).seconds)
        out[f"cli.main_ms.{kind}"] = statistics.median(times) * 1e3
    return out
