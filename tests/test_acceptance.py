"""Acceptance suite: one test per release criterion, each at its stated
tolerance. The conftest hook prints a PASS or FAIL line per criterion."""

import io
import math
import random
import time

import numpy as np
import pytest

import smx
from smx.pairwise import MEASURES

from helpers import (
    brute_closure_map,
    brute_descendants,
    brute_ncca_from_map,
    brute_redundant_edges,
    brute_via_lca,
    random_taxonomy,
    taxonomy_from_pairs,
)
from scale_smoke import synth_graph_lines

GOLDEN_TOLERANCE = 1e-3


def stream(text):
    return io.BytesIO(text.encode("utf-8"))


# -- criterion 1 ---------------------------------------------------------


def test_criterion_01_golden_toy_values(toy, toy_graph, toy_seco):
    """Every derived golden value reproduces within 1e-3 in under 1 s.

    Expected numbers confirmed by scripts/reference_values.py, which
    recomputes them with independent brute-force code.
    """
    start = time.perf_counter()
    t, theta = toy, toy_seco
    e, d = t.node("E"), t.node("D")

    def pair(name, **kw):
        return smx.eval_pairwise(smx.pairwise_measure(name, **kw), t, e, d).value

    golden = {
        "rada": (pair("rada"), 3.0),
        "rada_sim": (pair("rada_sim"), 0.25),
        "wu_palmer": (pair("wu_palmer"), 0.4),
        "seco_root": (theta(t.node("root")), 0.0),
        "seco_A": (theta(t.node("A")), 0.2876),
        "seco_C": (theta(t.node("C")), 0.6438),
        "seco_E": (theta(t.node("E")), 1.0),
        "lin": (pair("lin", theta=theta), 0.2876),
        "jiang_conrath": (pair("jiang_conrath", theta=theta), 1.4248),
        "faith": (pair("faith", theta=theta), 0.1680),
        "leacock_chodorow": (pair("leacock_chodorow"), 0.405),
        "cmatch": (pair("cmatch"), 0.4),
    }
    group = lambda spec, U, V: smx.eval_groupwise(
        spec, t, {t.node(c) for c in U}, {t.node(c) for c in V}
    ).value
    golden["simui"] = (group(smx.groupwise_measure("simui"), ["E"], ["D"]), 0.4)
    golden["nto"] = (group(smx.groupwise_measure("nto"), ["E"], ["D"]), 0.6667)
    golden["simgic"] = (
        group(smx.groupwise_measure("simgic", theta=theta), ["E"], ["D"]),
        0.0981,
    )
    lin_spec = smx.pairwise_measure("lin", theta=theta)
    golden["bma"] = (
        group(smx.groupwise_measure("bma", inner=lin_spec), ["C", "D"], ["E"]),
        0.6594,
    )

    for name, (got, want) in golden.items():
        assert got == pytest.approx(want, abs=GOLDEN_TOLERANCE), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s"


# -- criterion 2 ---------------------------------------------------------


def test_criterion_02_brute_force_oracle_equivalence():
    """Closures, transitive reduction, NCCA and ViaLCA paths match
    brute-force oracles exactly on 200 random DAGs in under 30 s."""
    start = time.perf_counter()
    via = smx.AncestorConstraint.VIA_LCA
    for seed in range(200):
        rng = random.Random(seed)
        t, pairs = random_taxonomy(rng, max_nodes=50)
        closure = brute_closure_map(pairs)
        for c in t.class_ids:
            label = t.label(c)
            assert {t.label(a) for a in t.ancestors(c)} == closure[label]
            assert {t.label(a) for a in t.descendants(c)} == brute_descendants(
                pairs, label
            )
        _, report = smx.transitive_reduction(t)
        removed = {(r.subject, r.object) for r in report.removed_edges}
        assert removed == brute_redundant_edges(pairs)
        nodes = sorted(t.class_ids)
        for _ in range(12):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert {t.label(a) for a in t.ncca(u, v)} == brute_ncca_from_map(
                closure, t.label(u), t.label(v)
            )
            assert t.shortest_path(u, v, via) == brute_via_lca(
                pairs, t.label(u), t.label(v)
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"


# -- criterion 3 ---------------------------------------------------------


def test_criterion_03_unification_equivalences():
    """Abstract forms reproduce the concrete measures to 1e-12."""
    for seed in range(60):
        rng = random.Random(1000 + seed)
        t, _ = random_taxonomy(rng, max_nodes=50)
        theta = smx.seco_ic(t)
        lin = smx.pairwise_measure("lin", theta=theta)
        jc = smx.pairwise_measure("jiang_conrath", theta=theta)
        dice = smx.abstract_form("general_dice", theta=theta)
        adist = smx.abstract_form("abstract_dist", theta=theta)
        nodes = sorted(t.class_ids)
        for _ in range(15):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert (
                abs(
                    smx.eval_pairwise(lin, t, u, v).value
                    - smx.eval_abstract(dice, t, u, v).value
                )
                <= 1e-12
            )
            assert (
                abs(
                    smx.eval_pairwise(jc, t, u, v).value
                    - smx.eval_abstract(adist, t, u, v).value
                )
                <= 1e-12
            )

    for seed in range(60):
        rng = random.Random(2000 + seed)
        t, _ = random_taxonomy(rng, max_nodes=50, tree=True)
        depth = smx.depth_theta(t, normalized=False)
        rada = smx.pairwise_measure("rada")
        wp = smx.pairwise_measure("wu_palmer")
        dice = smx.abstract_form("general_dice", theta=depth)
        adist = smx.abstract_form("abstract_dist", theta=depth)
        nodes = sorted(t.class_ids)
        for _ in range(15):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert (
                abs(
                    smx.eval_pairwise(rada, t, u, v).value
                    - smx.eval_abstract(adist, t, u, v).value
                )
                <= 1e-12
            )
            wp_value = smx.eval_pairwise(wp, t, u, v)
            dice_value = smx.eval_abstract(dice, t, u, v)
            assert wp_value.degenerate == dice_value.degenerate
            assert abs(wp_value.value - dice_value.value) <= 1e-12


# -- criterion 4 ---------------------------------------------------------


def _audit_taxonomy():
    rng = random.Random(424242)
    while True:
        t, _ = random_taxonomy(rng, max_nodes=150, multi=0.35)
        if len(t.class_ids) >= 100:
            break
    t, _ = smx.transitive_reduction(t)
    # every class gets usage because every class subsumes some leaf
    assignments = {
        f"inst_{i}": frozenset({leaf})
        for i, leaf in enumerate(sorted(t.leaves))
    }
    extra = sorted(t.class_ids)
    for k in range(40):
        assignments[f"extra_{k}"] = frozenset({rng.choice(extra)})
    usage = smx.class_usage(t, smx.AnnotationSet(assignments=assignments))
    theta = smx.seco_ic(t)
    return t, theta, usage, rng


def _expected_self_value(name, info, t):
    if info.polarity is smx.Polarity.DISTANCE:
        return 0.0
    if info.normalized:
        return 1.0
    if name == "resnik_edge":
        return 2.0 * t.max_depth
    if name == "leacock_chodorow":
        return math.log(2.0 * t.max_depth)
    return None


def test_criterion_04_axiom_flag_audit():
    """Declared range, symmetry and identity flags hold on 10^4 pairs."""
    t, theta, usage, rng = _audit_taxonomy()
    nodes = sorted(t.class_ids)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(10_000)]
    selfs = rng.sample(nodes, 60)

    for name, info in sorted(MEASURES.items()):
        spec = smx.pairwise_measure(
            name,
            theta=theta if info.needs_theta else None,
            usage=usage if info.needs_usage else None,
        )
        assert smx.is_symmetric(spec), f"{name} default parameters must be symmetric"
        check_range = info.normalized or info.polarity is smx.Polarity.DISTANCE
        for u, v in pairs:
            forward = smx.eval_pairwise(spec, t, u, v)
            backward = smx.eval_pairwise(spec, t, v, u)
            assert abs(forward.value - backward.value) <= 1e-9, name
            if info.normalized:
                assert -1e-12 <= forward.value <= 1.0 + 1e-12, name
            elif info.polarity is smx.Polarity.DISTANCE:
                assert forward.value >= -1e-12, name
            if name == "resnik_edge":
                assert 0.0 <= forward.value <= 2.0 * t.max_depth
        if info.ioi:
            expected = _expected_self_value(name, info, t)
            for u in selfs:
                if info.root_degenerate and u == t.root:
                    continue
                got = smx.eval_pairwise(spec, t, u, u)
                assert not got.degenerate, name
                assert got.value == pytest.approx(expected, abs=1e-9), name

    # explicitly asymmetric parameterizations must produce a witness pair
    asymmetric = [
        smx.pairwise_measure("bulskov", alpha=0.9),
        smx.pairwise_measure("rodriguez_egenhofer", gamma=0.1),
        smx.pairwise_measure("tversky_ratio", alpha=2.0, beta=0.5),
        smx.pairwise_measure("tversky_contrast", alpha=2.0, beta=0.5),
    ]
    for spec in asymmetric:
        assert not smx.is_symmetric(spec)
        witness = any(
            abs(
                smx.eval_pairwise(spec, t, u, v).value
                - smx.eval_pairwise(spec, t, v, u).value
            )
            > 1e-9
            for u, v in pairs[:500]
        )
        assert witness, spec.name


# -- criterion 5 ---------------------------------------------------------


def test_criterion_05_estimator_monotonicity():
    """Every shipped estimator is monotone on the criterion-2 DAGs."""
    for seed in range(200):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=50)
        estimators = [
            smx.depth_theta(t),
            smx.depth_theta(t, normalized=False),
            smx.nonlinear_depth_theta(t),
            smx.seco_ic(t),
            smx.zhou_ic(t, k=0.6),
            smx.resnik_intrinsic_ic(t),
            smx.sanchez_leaves_ic(t),
            smx.sanchez_refined_ic(t),
        ]
        classes = sorted(t.class_ids)
        assignments = {
            f"i{k}": frozenset({rng.choice(classes)})
            for k in range(rng.randint(1, 10))
        }
        usage = smx.class_usage(t, smx.AnnotationSet(assignments=assignments))
        estimators.append(smx.resnik_extrinsic_ic(t, usage))
        estimators.append(smx.resnik_extrinsic_ic(t, usage, smooth=True))
        estimators.append(smx.idf_theta(t, usage))
        for est in estimators:
            assert smx.validate_monotonicity(est) == [], (seed, est.kind)


# -- criterion 6 ---------------------------------------------------------


def test_criterion_06_grasm_bound():
    """lin_grasm never exceeds lin across 10^4 multi-inheritance pairs."""
    checked = 0
    strict_cases = 0
    seed = 0
    while checked < 10_000:
        seed += 1
        rng = random.Random(3000 + seed)
        t, _ = random_taxonomy(rng, max_nodes=50, multi=0.5)
        theta = smx.seco_ic(t)
        lin = smx.pairwise_measure("lin", theta=theta)
        grasm = smx.pairwise_measure("lin_grasm", theta=theta)
        nodes = sorted(t.class_ids)
        for _ in range(200):
            u, v = rng.choice(nodes), rng.choice(nodes)
            a = smx.eval_pairwise(grasm, t, u, v).value
            b = smx.eval_pairwise(lin, t, u, v).value
            assert a <= b + 1e-12
            checked += 1
            omega = sorted(theta(c) for c in t.ncca(u, v))
            if len(omega) == 1 or omega[-1] > omega[-2] + 1e-12:
                strict_cases += 1
    assert strict_cases > 1000  # the bound was exercised on real cases


# -- criterion 7 ---------------------------------------------------------


def test_criterion_07_annotation_cleaning_effect(toy, toy_graph, toy_seco):
    """True-path reduction leaves direct groupwise scores untouched, and
    the redundant-edge hazard reproduces: distance 1 raw, 4 reduced."""
    ann = smx.parse_annotations(stream("g1\tE,C,root\ng2\tD,A\n"), toy_graph)
    reduced_ann, _ = smx.reduce_annotations(toy, ann)
    for name, theta in (("simui", None), ("nto", None), ("simgic", toy_seco)):
        spec = smx.groupwise_measure(name, theta=theta)
        raw = smx.eval_groupwise(
            spec, toy, ann.assignments["g1"], ann.assignments["g2"]
        )
        clean = smx.eval_groupwise(
            spec, toy, reduced_ann.assignments["g1"], reduced_ann.assignments["g2"]
        )
        assert raw.value == clean.value, name

    skip = taxonomy_from_pairs(
        [("c3", "c4"), ("c2", "c3"), ("c1", "c2"), ("c0", "c1"), ("c0", "c4")]
    )
    rada = smx.pairwise_measure("rada")
    c0, c4 = skip.node("c0"), skip.node("c4")
    assert smx.eval_pairwise(rada, skip, c0, c4, allow_unreduced=True).value == 1
    cleaned, _ = smx.transitive_reduction(skip)
    assert smx.eval_pairwise(rada, cleaned, c0, c4).value == 4


# -- criterion 8 ---------------------------------------------------------


def _vector_monte_carlo(model, u, v, walks, seed, cap=1_000_000):
    graph = model.graph
    targets = {}
    cums = {}
    for node in range(graph.n_nodes):
        transitions = model.transitions(node)
        if transitions:
            targets[node] = np.array([k for k, _ in transitions], dtype=np.int64)
            cums[node] = np.cumsum([p for _, p in transitions])
    rng = np.random.default_rng(seed)
    states = np.full(walks, u, dtype=np.int64)
    steps = np.zeros(walks, dtype=np.int64)
    active = states != v
    rounds = 0
    while active.any():
        rounds += 1
        assert rounds <= cap, "simulated walk did not absorb"
        acts = np.nonzero(active)[0]
        current = states[acts]
        draws = rng.random(len(acts))
        for node in np.unique(current):
            mask = current == node
            idx = np.searchsorted(cums[node], draws[mask], side="right")
            idx = np.minimum(idx, len(targets[node]) - 1)
            states[acts[mask]] = targets[node][idx]
        steps[acts] += 1
        active = states != v
    return float(steps.mean())


def test_criterion_08_relatedness_kernels():
    """Hitting times match simulation within 5 percent on 20 strongly
    connected graphs; simrank iterates grow monotonically and converge."""
    import test_relatedness as rel_tests

    for seed in range(20):
        rng = random.Random(5000 + seed)
        graph = rel_tests.random_strongly_connected(rng, max_nodes=15)
        model = smx.TransitionModel.from_graph(graph)
        nodes = list(range(graph.n_nodes))
        u, v = rng.sample(nodes, 2)
        exact = smx.hitting_time(model, u, v)
        simulated = _vector_monte_carlo(model, u, v, walks=100_000, seed=seed)
        assert abs(simulated - exact) / exact <= 0.05, (seed, exact, simulated)

        scores = smx.simrank(graph, decay=0.8, iterations=100, tol=0.0)
        deltas = scores.deltas
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
        assert min(deltas) < 1e-6
        table = scores.as_array()
        assert np.all(table >= -1e-12) and np.all(table <= 1.0 + 1e-12)
        previous = None
        for iterations in (1, 3, 9, 27):
            partial = smx.simrank(graph, decay=0.8, iterations=iterations).as_array()
            if previous is not None:
                assert np.all(partial >= previous - 1e-12)
            previous = partial


# -- criterion 9 ---------------------------------------------------------


def test_criterion_09_benchmark_harness(toy, toy_graph, toy_seco):
    """Known dataset cardinalities validate, and ratings that are an
    affine transform of lin scores correlate perfectly."""
    for kind, count in smx.KNOWN_DATASETS.items():
        text = "".join(f"a{i}\tb{i}\t{float(i % 9)}\n" for i in range(count))
        assert len(smx.load_rated_pairs(stream(text), kind=kind)) == count
        truncated = "".join(f"a{i}\tb{i}\t1\n" for i in range(count - 1))
        with pytest.raises(smx.ingest.ParseError):
            smx.load_rated_pairs(stream(truncated), kind=kind)
    assert smx.KNOWN_DATASETS == {
        "rg65": 65, "mc30": 30, "wordsim353": 353, "mturk771": 771,
    }

    words = {"w1": "E", "w2": "D", "w3": "F", "w4": "C", "w5": "B", "w6": "A"}
    mapping = smx.parse_word_mapping(
        stream("".join(f"{w}\t{c}\n" for w, c in words.items())), toy_graph
    ).words
    spec = smx.pairwise_measure("lin", theta=toy_seco)
    names = sorted(words)
    lines = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            value = smx.eval_pairwise(
                spec, toy, toy.node(words[a]), toy.node(words[b])
            ).value
            lines.append(f"{a}\t{b}\t{3.0 * value + 0.5}\n")
    dataset = smx.parse_rated_pairs(stream("".join(lines)), name="synthetic")
    run = smx.run_benchmark(dataset, mapping, [("lin", spec)], toy)
    row = run.rows[0]
    assert row.n_scored + row.n_skipped == len(dataset)
    assert row.n_skipped == 0
    assert abs(row.pearson - 1.0) <= 1e-9
    assert abs(row.spearman - 1.0) <= 1e-9


# -- criterion 10 --------------------------------------------------------


def test_criterion_10_scale_smoke():
    """100k lin evaluations on a 50k-class DAG in under 10 s once the
    closures and the estimator are precomputed."""
    rng = random.Random(20240210)
    graph = smx.parse_graph(synth_graph_lines(50_000, rng).encode())
    taxonomy = smx.taxonomic_reduction(graph)
    assert len(taxonomy.class_ids) == 50_000
    assert taxonomy.max_depth <= 15
    theta = smx.seco_ic(taxonomy)
    spec = smx.pairwise_measure("lin", theta=theta)
    classes = sorted(taxonomy.class_ids)
    pairs = [(rng.choice(classes), rng.choice(classes)) for _ in range(100_000)]

    start = time.perf_counter()
    total = 0.0
    for u, v in pairs:
        total += smx.eval_pairwise(spec, taxonomy, u, v).value
    elapsed = time.perf_counter() - start
    assert total > 0.0
    assert elapsed < 10.0, f"100k evaluations took {elapsed:.2f}s"
