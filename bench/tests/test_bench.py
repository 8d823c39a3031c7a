"""Self-tests of the benchmark: deterministic inputs, a reference that
agrees with the workbench, and checks that catch wrong verdicts.

    python3 -m pytest bench/tests -q
"""

import gc
import itertools
import json
import os
import random
import signal

import pytest

import gen
import hostspeed
import layers
import ref
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _signature(cmds):
    return [(c.name, c.argv, c.exit, sorted(c.files.values())) for c in cmds]


@pytest.mark.parametrize("workload", gen.WORKLOADS + gen.EXTRA_WORKLOADS)
def test_streams_are_deterministic_per_seed(workload, tmp_path):
    build = lambda seed, seconds: gen.build(workload, seed, seconds, str(tmp_path), run.CORPUS_DIR)
    first = _signature(build(7, 10))
    assert first == _signature(build(7, 10))
    assert first != _signature(build(8, 10))
    longer = _signature(build(7, 30))
    assert longer[: len(first)] == first  # a longer run extends the same stream


def test_commands_within_a_run_are_distinct(tmp_path):
    for workload in gen.WORKLOADS + gen.EXTRA_WORKLOADS:
        cmds = gen.build(workload, 3, 20, str(tmp_path), run.CORPUS_DIR)
        keys = [(tuple(c.argv or ()), tuple(sorted(c.files.values()))) for c in cmds]
        assert len(keys) == len(set(keys)), workload


def rand_label(rng, atoms, size):
    if size == 0:
        return ("p", rng.choice(atoms))
    op = rng.choice(("!", "&", "|"))
    if op == "!":
        return ("!", rand_label(rng, atoms, size - 1))
    left = rng.randrange(size)
    return (op, rand_label(rng, atoms, left), rand_label(rng, atoms, size - 1 - left))


def _lt():
    return run.load_lt()


def test_reference_agrees_with_evaluate_exhaustively_up_to_n2():
    lt = _lt()
    syntax, semantics, Algebra = lt["syntax"], lt["semantics"], lt["algebra"].Algebra
    rng = random.Random(11)
    ops = gen.UNARY + gen.BINARY
    for i in range(40):
        vs = [0, 1] if i % 2 else [0]
        f = gen.rand_formula(rng, vs, rng.randrange(1, 5), ops=ops)
        if i % 5 == 0:
            f = ("&", f, rng.choice((("top",), ("itop",), ("nb",), ("bot",), ("ibot",))))
        parsed = syntax.parse_formula(gen.render(f))
        for n in range(3):
            alg = Algebra(n)
            for values in itertools.product(range(1 << (1 << n)), repeat=len(vs)):
                hom = semantics.Homomorphism.from_bits(alg, dict(zip(vs, values)))
                want = ref.denote(f, n, {v: ref.members(b) for v, b in zip(vs, values)})
                assert semantics.evaluate(hom, parsed).bits == ref.to_bits(want), (f, n, values)


def test_reference_labels_and_teams_agree_with_lt():
    lt = _lt()
    syntax, semantics, pt = lt["syntax"], lt["semantics"], lt["ptplus"]
    Algebra = lt["algebra"].Algebra
    rng = random.Random(12)
    for _ in range(30):
        label = rand_label(rng, [0, 1, 2], 3)
        parsed = syntax.parse_label(gen.render(label))
        for n in range(3):
            alg = Algebra(n)
            for values in itertools.product(range(1 << n), repeat=3):
                lenv = dict(enumerate(values))
                got = semantics.eval_label(semantics.LabelValuation(alg, lenv), parsed)
                assert got == ref.label_value(label, n, lenv)
    for _ in range(60):
        k = rng.choice((1, 2))
        f = gen.rand_pt(rng, k, rng.randrange(4))
        want = ref.to_bits(ref.pt_denote(f, k))
        assert pt.pt_eval(syntax.parse_formula(gen.render(f)), k).bits == want, f


def test_reference_parser_reads_printed_formulas():
    lt = _lt()
    syntax = lt["syntax"]
    rng = random.Random(13)
    for _ in range(50):
        f = gen.rand_formula(rng, [0, 1, 2], 4, ops=gen.UNARY + gen.BINARY)
        core = syntax.expand(syntax.parse_formula(gen.render(f)))
        tree = ref.parse_ref(syntax.format_formula(core))
        env = {v: ref.members(rng.getrandbits(4)) for v in range(3)}
        assert ref.denote(tree, 2, env) == ref.denote(f, 2, env)
        assert gen.expanded_size(f) == layers._count(tree)


@pytest.mark.parametrize("kind", ["chain", "lchain", "inot", "lneg"])
def test_refuted_schemas_fail_first_where_stated(kind):
    rng = random.Random(kind)
    first = {"chain": 2, "lchain": 2, "inot": 1, "lneg": 1}[kind]
    for i in range(5):
        cmd = getattr(gen, f"k_{kind}")(rng, f"q{i}")
        ch = cmd.check
        if cmd.kind == "entail":
            least = lambda n: ref.least_entail_countermodel(ch["premises"], ch["concl"], n)
        else:
            least = lambda n: ref.least_lentail_countermodel(ch["gamma"], ch["concl"], n)
        assert all(least(n) is None for n in range(first))
        assert least(first) is not None


def _run_and_verify(cmds, tmp_path, mutate=None):
    lt = _lt()
    run.write_files(cmds)
    results = [run.run_command(lt, c) for c in cmds]
    if mutate:
        mutate(results)
    return run.verify(cmds, results, lt, {})


def test_verify_accepts_correct_verdicts(tmp_path):
    rng = random.Random(5)
    cmds = [gen.k_chain(rng, "chain"), gen.k_lchain(rng, "lchain"), gen.k_eval(rng, "eval", 3),
            gen.k_pt_entail(rng, "pt"), gen.k_bridge(rng, "bridge", str(tmp_path)),
            gen.k_classes(rng, "classes"), gen.k_expand(rng, "expand"),
            gen.k_malformed(rng, "bad", str(tmp_path))]
    failures, homs = _run_and_verify(cmds, tmp_path)
    assert failures == []
    assert homs[0] > 0 and homs[1] > 0


def test_a_tampered_countermodel_is_a_failure(tmp_path):
    cmds = [gen.k_chain(random.Random(1), "chain")]

    def tamper(results):
        obj = json.loads(results[0].out)
        obj["countermodel"]["witness"] = "00" if obj["countermodel"]["witness"] != "00" else "11"
        results[0].out = json.dumps(obj)

    failures, _ = _run_and_verify(cmds, tmp_path, tamper)
    assert [(name, cat) for name, cat, _ in failures] == [("chain", "verdict")]


def test_a_countermodel_that_is_not_the_least_is_a_failure(tmp_path):
    cmds = [gen.k_chain(random.Random(2), "chain")]

    def later(results):
        obj = json.loads(results[0].out)
        for name in obj["countermodel"]["assignment"]:
            obj["countermodel"]["assignment"][name] = ["01", "10", "11"] if name == min(
                obj["countermodel"]["assignment"]) else ["10"]
        results[0].out = json.dumps(obj)

    failures, _ = _run_and_verify(cmds, tmp_path, later)
    assert len(failures) == 1 and failures[0][1] == "verdict"


def test_a_wrong_exit_status_is_a_failure(tmp_path):
    cmds = [gen.k_chain(random.Random(3), "chain")]

    def flip(results):
        results[0].exit = 0

    failures, _ = _run_and_verify(cmds, tmp_path, flip)
    assert [(name, cat) for name, cat, _ in failures] == [("chain", "status")]


def _raise(results):
    results[0].exit, results[0].out, results[0].raised = None, "", "RuntimeError: early return"


def test_a_valid_query_that_raises_makes_the_run_incorrect(tmp_path):
    cmds = [gen.k_commute(random.Random(6), "commute", [0, 1], max_n=1)]
    assert run.correct(cmds, _run_and_verify(cmds, tmp_path)[0])
    failures, _ = _run_and_verify(cmds, tmp_path, _raise)
    assert [(name, cat) for name, cat, _ in failures] == [("commute", "raised")]
    assert not run.correct(cmds, failures)


def test_only_the_known_crash_inputs_may_raise(tmp_path):
    cmds = [gen.k_crash(random.Random(7), "crash", str(tmp_path), 5)]
    failures, _ = _run_and_verify(cmds, tmp_path, _raise)
    assert [(name, cat) for name, cat, _ in failures] == [("crash", "raised")]
    assert run.correct(cmds, failures)  # listed as failed, but no wrong verdict

    def wrong_status(results):
        results[0].exit, results[0].raised = 1, None

    failures, _ = _run_and_verify(cmds, tmp_path, wrong_status)
    assert not run.correct(cmds, failures)


def test_a_changed_default_seed_output_is_a_failure(tmp_path):
    lt = _lt()
    cmds = [gen.k_classes(random.Random(4), "classes")]
    results = [run.run_command(lt, c) for c in cmds]
    recorded = {"classes": [results[0].exit, "0" * 20]}
    failures, _ = run.verify(cmds, results, lt, recorded)
    assert failures and failures[0][1] == "verdict"


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS


def test_metrics_json_adds_to_benchmark_json_without_repeating_it():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(run.HERE, "metrics.json"), encoding="utf-8") as fh:
        notes = json.load(fh)
    gated = {m["name"] for m in spec["end_to_end"]}
    assert notes["workloads"]["gated"] == list(gen.WORKLOADS)
    assert list(notes["workloads"]["not_gated"]) == list(gen.EXTRA_WORKLOADS)
    for name, entry in notes["end_to_end"].items():
        if name in gated:  # unit, direction and bound live in BENCHMARK.json
            assert entry["gated"] and not {"unit", "better", "bound"} & set(entry), name
        else:
            assert not entry["gated"] and entry["why_not_gated"], name
    assert gated <= set(notes["end_to_end"])
    assert set(notes["per_layer_baseline"]) == set(layers.METRICS)
    for sets in notes["baseline"].values():
        assert all(set(s["metrics"]) == gated for s in sets)


def _clock(starts, durations):
    clock = hostspeed.SpeedClock()
    clock.starts, clock.durations = list(starts), list(durations)
    return clock


def test_reference_seconds_scale_by_the_probe_time_and_leave_probes_out():
    ref_s = hostspeed.PROBE_REF_S
    slow = _clock([0.1 * i for i in range(-5, 15)], [2 * ref_s] * 20)
    # [0, 1] holds the ten probes that start at 0.0 .. 0.9
    assert slow.reference_seconds(0.0, 1.0) == pytest.approx((1.0 - 20 * ref_s) / 2)
    fast = _clock(slow.starts, [ref_s / 2] * 20)
    assert fast.reference_seconds(0.05, 0.08) == pytest.approx(0.06)


def test_a_speed_change_inside_an_interval_scales_each_part():
    ref_s = hostspeed.PROBE_REF_S
    starts = [0.1 * i for i in range(-10, 30)]
    clock = _clock(starts, [ref_s if t < 1.0 else 2 * ref_s for t in starts])
    # a second at reference speed, then a second at half of it
    probes = 10 * ref_s + 10 * 2 * ref_s
    assert clock.reference_seconds(0.0, 2.0) == pytest.approx(1.5, abs=0.15 + probes)


def test_the_speed_clock_samples_while_running_and_restores_the_timer():
    before = signal.getsignal(signal.SIGPROF)
    with hostspeed.SpeedClock(interval=0.01) as clock:
        hostspeed.probe()
        sum(i * i for i in range(300_000))
    assert len(clock.starts) > 2 * hostspeed.MIN_PROBES
    assert clock.starts == sorted(clock.starts)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_a_probe_at_the_recursion_limit_leaves_the_collector_on():
    clock = hostspeed.SpeedClock()

    def deep():
        try:
            deep()
        except RecursionError:
            clock._on_timer(signal.SIGPROF, None)

    deep()
    assert gc.isenabled() and clock.starts == []
