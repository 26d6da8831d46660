import decimal
import functools
import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import smx
from smx.errors import ContractError, InfinityError, SmxError, UnknownNodeError
from smx.specificity import ESTIMATOR_KINDS, EXTRINSIC, build_estimator
from smx.unify import _power_mean

from helpers import random_annotations, random_taxonomy, taxonomy_from_pairs

APPROX12 = lambda x: pytest.approx(x, abs=1e-12)

# the canonical named instantiations; the aliases share their rows
NAMED = (
    "lin", "wu_palmer_tree", "faith", "jiang_conrath", "jaccard",
    "dice", "sokal_sneath", "simpson", "ochiai",
)
# the pair features that read theta at the MICA or summed over A(u) & A(v)
THETA_FEATURES = ("mica_theta", "shared_ancestor_salience")


def pairs_of(t, rng, count=12):
    nodes = sorted(t.class_ids)
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


class TestToyValues:
    def test_general_dice_with_depth_is_wu_palmer(self, toy):
        form = smx.abstract_form("general_dice", theta=smx.depth_theta(toy, normalized=False))
        got = smx.eval_abstract(form, toy, toy.node("E"), toy.node("D"))
        assert got.value == APPROX12(0.4)

    def test_general_dice_with_ic_is_lin(self, toy, toy_seco):
        form = smx.abstract_form("general_dice", theta=toy_seco)
        got = smx.eval_abstract(form, toy, toy.node("E"), toy.node("D"))
        assert got.value == pytest.approx(0.2875856258, abs=1e-9)

    def test_ratio_model_is_faith(self, toy, toy_seco):
        form = smx.abstract_form("ratio", alpha=1.0, beta=1.0, theta=toy_seco)
        got = smx.eval_abstract(form, toy, toy.node("E"), toy.node("D"))
        faith = smx.eval_pairwise(
            smx.pairwise_measure("faith", theta=toy_seco),
            toy,
            toy.node("E"),
            toy.node("D"),
        )
        assert got.value == APPROX12(faith.value)


class TestInstantiate:
    def test_named_parameter_bindings(self):
        assert dict(smx.instantiate("dice").params) == {"beta": 2.0}
        assert smx.instantiate("dice").name == "sigma_beta"
        assert dict(smx.instantiate("jaccard").params) == {"beta": 1.0}
        assert dict(smx.instantiate("sokal_sneath").params) == {"beta": 0.5}
        simpson = smx.instantiate("simpson")
        assert simpson.name == "sigma_alpha"
        assert dict(simpson.params)["alpha"] == -math.inf
        assert dict(smx.instantiate("ochiai").params)["alpha"] == 0.0
        assert smx.instantiate("lin").name == "general_dice"
        assert smx.instantiate("jiang_conrath").name == "abstract_dist"

    def test_aliases_match_their_canonical_rows(self):
        hints = {
            "lin": "ic", "wu_palmer_tree": "depth", "wupalmertree": "depth",
            "faith": "ic", "jiang_conrath": "ic", "jiangconrathdist": "ic",
            "jaccard": None, "dice": None, "sokal_sneath": None, "sokalsneath": None,
            "simpson": None, "ochiai": None,
        }
        aliases = {
            "wupalmertree": "wu_palmer_tree",
            "jiangconrathdist": "jiang_conrath",
            "sokalsneath": "sokal_sneath",
        }
        for name, hint in hints.items():
            assert smx.instantiate(name).theta_hint == hint, name
            assert smx.instantiate(name.upper()) == smx.instantiate(name), name
        for alias, name in aliases.items():
            assert smx.instantiate(alias) == smx.instantiate(name), alias

    def test_unknown_name(self):
        with pytest.raises(ContractError):
            smx.instantiate("nope")

    def test_simpson_evaluates_min_denominator(self, toy, toy_seco):
        form = smx.instantiate("simpson").with_theta(toy_seco)
        e, d = toy.node("E"), toy.node("D")
        got = smx.eval_abstract(form, toy, e, d)
        shared = toy_seco(toy.mica(toy_seco, e, d))
        assert got.value == APPROX12(shared / min(toy_seco(e), toy_seco(d)))

    def test_ochiai_evaluates_geometric_mean(self, toy, toy_seco):
        form = smx.instantiate("ochiai").with_theta(toy_seco)
        e, d = toy.node("E"), toy.node("D")
        got = smx.eval_abstract(form, toy, e, d)
        shared = toy_seco(toy.mica(toy_seco, e, d))
        assert got.value == APPROX12(
            shared / math.sqrt(toy_seco(e) * toy_seco(d))
        )


class TestEquivalences:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ic_equivalences_on_random_dags(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=40)
        theta = smx.seco_ic(t)
        lin = smx.pairwise_measure("lin", theta=theta)
        jc = smx.pairwise_measure("jiang_conrath", theta=theta)
        dice = smx.abstract_form("general_dice", theta=theta)
        adist = smx.abstract_form("abstract_dist", theta=theta)
        sbeta = smx.abstract_form("sigma_beta", beta=1.0, theta=theta)
        faith = smx.pairwise_measure("faith", theta=theta)
        for u, v in pairs_of(t, rng):
            lin_value = smx.eval_pairwise(lin, t, u, v)
            dice_value = smx.eval_abstract(dice, t, u, v)
            assert abs(lin_value.value - dice_value.value) <= 1e-12
            assert lin_value.degenerate == dice_value.degenerate
            assert (
                abs(
                    smx.eval_pairwise(jc, t, u, v).value
                    - smx.eval_abstract(adist, t, u, v).value
                )
                <= 1e-12
            )
            assert (
                abs(
                    smx.eval_pairwise(faith, t, u, v).value
                    - smx.eval_abstract(sbeta, t, u, v).value
                )
                <= 1e-12
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_named_forms_that_restate_a_row_equal_it(self, seed):
        # lin, faith and jiang_conrath as named forms score every pair as
        # their catalog rows do, under every shipped estimator, which is why
        # the CLI lets the catalog row answer them
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=15)
        usage = smx.class_usage(t, random_annotations(rng, t))
        classes = sorted(t.class_ids)

        def outcome(score, u, v):
            try:
                return score(u, v)
            except SmxError as exc:
                return type(exc), str(exc)

        for kind in ESTIMATOR_KINDS:
            smooth = {"smooth": 1.0} if kind in EXTRINSIC else {}
            theta = build_estimator(kind, t, usage=usage, **smooth)
            for name in ("lin", "faith", "jiang_conrath"):
                named = smx.instantiate(name).with_theta(theta)
                row = smx.pairwise_measure(name, theta=theta)
                scorers = [smx.pair_scorer(spec, t) for spec in (named, row)]
                for u in classes:
                    for v in classes:
                        expected = outcome(functools.partial(smx.eval_pairwise, row, t), u, v)
                        assert outcome(functools.partial(smx.eval_pairwise, named, t), u, v) == (
                            expected
                        ), (kind, name)
                        assert outcome(scorers[0], u, v) == outcome(scorers[1], u, v)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_depth_equivalences_on_random_trees(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=40, tree=True)
        depth = smx.depth_theta(t, normalized=False)
        rada = smx.pairwise_measure("rada")
        wp = smx.pairwise_measure("wu_palmer")
        dice = smx.abstract_form("general_dice", theta=depth)
        adist = smx.abstract_form("abstract_dist", theta=depth)
        for u, v in pairs_of(t, rng):
            assert (
                abs(
                    smx.eval_pairwise(rada, t, u, v).value
                    - smx.eval_abstract(adist, t, u, v).value
                )
                <= 1e-12
            )
            wp_value = smx.eval_pairwise(wp, t, u, v)
            dice_value = smx.eval_abstract(dice, t, u, v)
            if not wp_value.degenerate:
                assert abs(wp_value.value - dice_value.value) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cmatch_depth_identity_on_trees(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=40, tree=True)
        cmatch = smx.pairwise_measure("cmatch")
        for u, v in pairs_of(t, rng):
            lca = t.deepest_common_ancestor(u, v)
            shared = t.depth(lca) + 1
            expected = shared / (t.depth(u) + t.depth(v) + 2 - shared)
            assert smx.eval_pairwise(cmatch, t, u, v).value == APPROX12(expected)

    def test_salience_commonality_reproduces_ancestor_mass_measures(self, toy, toy_seco):
        e, d = toy.node("E"), toy.node("D")
        dice = smx.abstract_form(
            "general_dice",
            theta=toy_seco,
            feature="shared_ancestor_salience",
        )
        sim_dic = smx.pairwise_measure("sim_dic", theta=toy_seco)
        assert smx.eval_abstract(dice, toy, e, d).value == APPROX12(
            smx.eval_pairwise(sim_dic, toy, e, d).value
        )
        jac = smx.abstract_form(
            "sigma_beta",
            beta=1.0,
            theta=toy_seco,
            feature="shared_ancestor_salience",
        )
        jac_anc = smx.pairwise_measure("jac_anc", theta=toy_seco)
        assert smx.eval_abstract(jac, toy, e, d).value == APPROX12(
            smx.eval_pairwise(jac_anc, toy, e, d).value
        )


class TestSigmaAlphaLimits:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_large_negative_alpha_approaches_simpson(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=25)
        theta = smx.seco_ic(t)
        simpson = smx.instantiate("simpson").with_theta(theta)
        for u, v in pairs_of(t, rng, count=8):
            b = smx.eval_abstract(simpson, t, u, v).value
            previous_gap = None
            for alpha in (-10.0, -100.0, -1e6):
                form = smx.abstract_form("sigma_alpha", alpha=alpha, theta=theta)
                gap = abs(smx.eval_abstract(form, t, u, v).value - b)
                if previous_gap is not None:
                    assert gap <= previous_gap + 1e-12
                previous_gap = gap
            assert previous_gap <= 1e-5

    def test_alpha_zero_equals_explicit_geometric_mean(self, toy, toy_seco):
        zero = smx.abstract_form("sigma_alpha", alpha=0.0, theta=toy_seco)
        ochiai = smx.instantiate("ochiai").with_theta(toy_seco)
        e, d = toy.node("E"), toy.node("D")
        assert (
            smx.eval_abstract(zero, toy, e, d).value
            == smx.eval_abstract(ochiai, toy, e, d).value
        )


class TestContracts:
    def test_unbound_theta_rejected(self, toy):
        form = smx.abstract_form("general_dice")
        with pytest.raises(ContractError):
            smx.eval_abstract(form, toy, toy.node("E"), toy.node("D"))

    def test_non_monotone_theta_rejected(self, toy):
        table = {c: 1.0 for c in toy.class_ids}
        table[toy.node("root")] = 9.0
        bad = smx.ThetaEstimator.from_table(toy, table)
        form = smx.abstract_form("general_dice", theta=bad)
        with pytest.raises(ContractError):
            smx.eval_abstract(form, toy, toy.node("E"), toy.node("D"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "kind, key",
        [("sigma_beta", "beta"), ("ratio", "alpha"), ("ratio", "beta"),
         ("contrast", "gamma"), ("contrast", "alpha"), ("contrast", "beta")],
    )
    def test_non_finite_parameters_rejected(self, kind, key, value):
        with pytest.raises(ContractError, match=f"parameter {key} must not be"):
            smx.abstract_form(kind, **{key: value})

    def test_sigma_alpha_takes_infinite_orders_but_not_nan(self, toy, toy_seco):
        with pytest.raises(ContractError, match="parameter alpha must not be nan"):
            smx.abstract_form("sigma_alpha", alpha=math.nan)
        e, d = toy.node("E"), toy.node("D")
        for alpha, pick in ((-math.inf, min), (math.inf, max)):
            form = smx.abstract_form("sigma_alpha", alpha=alpha, theta=toy_seco)
            shared = toy_seco(toy.mica(toy_seco, e, d))
            assert smx.eval_abstract(form, toy, e, d).value == shared / pick(
                toy_seco(e), toy_seco(d)
            )

    @pytest.mark.parametrize("feature", THETA_FEATURES)
    @pytest.mark.parametrize("name", NAMED)
    def test_unknown_class_named_u_first(self, toy, toy_seco, name, feature):
        form = replace(smx.instantiate(name), feature=feature)
        e = toy.node("E")
        with pytest.raises(ContractError, match="no bound specificity estimator"):
            smx.eval_abstract(form, toy, 999, 998)
        form = form.with_theta(toy_seco)
        for u, v, named in ((999, e, 999), (e, 998, 998), (999, 998, 999)):
            with pytest.raises(UnknownNodeError) as caught:
                smx.eval_abstract(form, toy, u, v)
            assert str(caught.value) == f"node {named} is not a class of this taxonomy"

    def test_degenerate_root_pair(self, toy, toy_seco):
        form = smx.abstract_form("general_dice", theta=toy_seco)
        got = smx.eval_abstract(form, toy, toy.node("root"), toy.node("root"))
        assert got.value == 0.0 and got.degenerate


class TestNonFiniteValues:
    """A form value out of float range, or NaN, raises InfinityError naming
    the form and its features; it is never returned as a score."""

    @pytest.mark.parametrize(
        "kind, params, features, value",
        [
            ("abstract_dist", {}, (1.7e308, 1.7e308, 0.0), "inf"),
            ("general_dice", {}, (1.7e308, 1.7e308, 1.7e308), "nan"),
            ("sigma_alpha", {"alpha": 1.0}, (1e-300, 1e-300, 1e300), "inf"),
            ("sigma_beta", {"beta": 1e308}, (3.0, 3.0, 3.0), "nan"),
            ("ratio", {"alpha": 2.0, "beta": 2.0}, (1.7e308, -1.7e308, 0.0), "nan"),
            ("contrast", {"gamma": 1e308}, (3.0, 3.0, 3.0), "inf"),
        ],
    )
    def test_each_form_raises(self, kind, params, features, value):
        form = smx.abstract_form(kind, **params)
        with pytest.raises(InfinityError) as caught:
            form.kernel(*features, *form.args)
        shown = ", ".join(map(repr, features))
        assert str(caught.value) == f"{kind} of ({shown}) is {value}, not a finite number"

    def test_through_a_catalog_row_and_its_scorer(self, toy):
        # sim_dic is general_dice over summed theta: each sum is finite, but
        # f_u + f_v and 2 f_shared are not
        table = {c: 0.0 for c in toy.class_ids}
        table[toy.node("A")] = 0.9e308
        spec = smx.pairwise_measure("sim_dic", theta=smx.ThetaEstimator.from_table(toy, table))
        e, d = toy.node("E"), toy.node("D")
        message = "general_dice of (9e+307, 9e+307, 9e+307) is nan, not a finite number"
        for score in (functools.partial(smx.eval_pairwise, spec, toy), smx.pair_scorer(spec, toy)):
            with pytest.raises(InfinityError) as caught:
                score(e, d)
            assert str(caught.value) == message


class TestPowerMeanDomain:
    """sigma_alpha at a finite order is a power mean of theta(u) and
    theta(v), which a negative operand leaves undefined; the infinite
    orders are min and max of any two values."""

    @pytest.fixture()
    def chain(self):
        t = taxonomy_from_pairs([("Y", "X"), ("X", "root")])
        table = {t.node("root"): -2.0, t.node("X"): 0.5, t.node("Y"): 1.0}
        return t, smx.ThetaEstimator.from_table(t, table)

    def scorers(self, t, form):
        return functools.partial(smx.eval_abstract, form, t), smx.pair_scorer(form, t)

    @pytest.mark.parametrize("alpha", [0.5, 3.0, 0.0, -1.0])
    def test_a_finite_order_refuses_a_negative_operand(self, chain, alpha):
        t, theta = chain
        form = smx.abstract_form("sigma_alpha", alpha=alpha, theta=theta)
        for score in self.scorers(t, form):
            with pytest.raises(ContractError) as caught:
                score(t.node("root"), t.node("X"))
            assert str(caught.value) == (
                f"sigma_alpha of order {alpha!r} is not defined on a negative operand: "
                "(-2.0, 0.5, -2.0)"
            )

    @pytest.mark.parametrize("alpha, pick", [(-math.inf, min), (math.inf, max)])
    def test_the_infinite_orders_keep_min_and_max(self, chain, alpha, pick):
        t, theta = chain
        form = smx.abstract_form("sigma_alpha", alpha=alpha, theta=theta)
        for score in self.scorers(t, form):
            got = score(t.node("root"), t.node("X"))
            assert got == smx.MeasureValue(-2.0 / pick(-2.0, 0.5), smx.Polarity.SIMILARITY, True)


def _decimal_power_mean(a, b, alpha):
    """((a**alpha + b**alpha) / 2) ** (1 / alpha) for a, b > 0, in enough
    digits that a**alpha keeps 50 of its own beyond 1 + alpha log a."""
    digits = 50 + max(0, -math.floor(math.log10(abs(alpha))))
    with decimal.localcontext(decimal.Context(prec=digits, Emax=10**7, Emin=-(10**7))):
        order = decimal.Decimal(alpha)
        power = lambda x: (order * decimal.Decimal(x).ln()).exp()
        return float((((power(a) + power(b)) / 2).ln() / order).exp())


ORDERS = st.floats(min_value=1e-300, max_value=1e3).flatmap(
    lambda x: st.sampled_from((x, -x))
)
OPERANDS = st.floats(min_value=1e-300, max_value=1e300)


class TestPowerMeanAccuracy:
    """The power mean at a finite order against an exact decimal oracle:
    its error grows only with the size of the log of the result's scale,
    at most 745 for operands in [1e-300, 1e300], not with 1 / |alpha|."""

    @settings(max_examples=200, deadline=None)
    @given(a=OPERANDS, b=OPERANDS, alpha=ORDERS)
    @example(a=1.0, b=2.0, alpha=1e-12)
    @example(a=1.0, b=2.0, alpha=1e-300)
    @example(a=1e-300, b=1e300, alpha=-1e-3)
    @example(a=1e-300, b=1e300, alpha=1e3)
    def test_against_a_decimal_oracle(self, a, b, alpha):
        got, want = _power_mean(a, b, alpha), _decimal_power_mean(a, b, alpha)
        assert min(a, b) <= want <= max(a, b)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("alpha", [1e-320, 1e-300, 1e-12, 0.5, 3.0, 1e3])
    def test_a_zero_operand(self, alpha):
        assert _power_mean(0.0, 2.0, alpha) == pytest.approx(2.0 * 0.5 ** (1.0 / alpha), rel=1e-13)
        assert _power_mean(2.0, 0.0, -alpha) == 0.0

    def test_orders_near_zero_give_the_geometric_mean(self, toy, toy_seco):
        # sigma_alpha at order 0 is ochiai; below 1e-16 the two agree to the ulp
        c, d = toy.node("C"), toy.node("D")
        zero = smx.eval_abstract(smx.abstract_form("sigma_alpha", alpha=0.0, theta=toy_seco), toy, c, d)
        for alpha in (1e-320, -1e-320, 1e-17, 1e-12):
            form = smx.abstract_form("sigma_alpha", alpha=alpha, theta=toy_seco)
            assert smx.eval_abstract(form, toy, c, d).value == pytest.approx(zero.value, rel=1e-12)


# operands over the whole finite float range: negative, signed zero,
# subnormal, near +-max and ordinary values
_EDGES = (0.0, 5e-324, 1e-310, 1.0, 0.5, 3.0, 1e300, 8.98846567431158e307, sys.float_info.max)
ANY_OPERAND = st.one_of(
    st.sampled_from(_EDGES + tuple(-x for x in _EDGES)),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _legal_extremes(kind, key):
    """The extreme values that the form's parameter `key` admits."""
    candidates = (
        -math.inf, -sys.float_info.max, -800.0, -1.0, -1e-320, 0.0, 5e-324, 1e-320,
        0.5, 1.0, 2.0, 800.0, 1e308, sys.float_info.max, math.inf,
    )
    legal = []
    for x in candidates:
        try:
            smx.abstract_form(kind, **{key: x})
        except ContractError:
            continue
        legal.append(x)
    return legal


class TestFormDomain:
    """Every form kernel, at its parameters' legal extremes and on operands
    from the whole finite float range, returns a finite value or raises an
    SmxError: never TypeError, ValueError, ZeroDivisionError or
    OverflowError."""

    @pytest.mark.parametrize("kind", list(smx.unify.FORMS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_finite_value_or_smx_error(self, kind, data):
        params = {
            key: data.draw(st.sampled_from(_legal_extremes(kind, key)), label=key)
            for key in smx.unify.FORMS[kind].params
        }
        form = smx.abstract_form(kind, **params)
        features = data.draw(st.tuples(ANY_OPERAND, ANY_OPERAND, ANY_OPERAND), label="features")
        try:
            got = form.kernel(*features, *form.args)
        except SmxError:
            return
        assert isinstance(got, smx.MeasureValue) and math.isfinite(got.value)


def _outcome(call):
    """A call's value fields, NaN made comparable, or its error's type and
    message."""
    try:
        mv = call()
    except SmxError as exc:
        return type(exc), str(exc)
    return ("nan" if math.isnan(mv.value) else mv.value), *mv[1:]


def _monotone_tied_table(t, rng):
    """A theta that grows by 0, 1 or inf from a class's largest parent
    value down to the class: many ties, and inf below every inf class."""
    table = {}
    for c in sorted(t.class_ids, key=t.depth):
        base = max((table[p] for p in t.parents(c)), default=0.0)
        table[c] = base + rng.choice((0.0, 0.0, 1.0, math.inf))
    return smx.ThetaEstimator.from_table(t, table)


# every form kind at its defaults, and asymmetric and infinite parameters
SCORED_FORMS = [(kind, {}) for kind in smx.unify.FORMS] + [
    ("ratio", {"alpha": 0.25, "beta": 2.0}),
    ("contrast", {"gamma": 2.0, "alpha": 0.5, "beta": 0.0}),
    ("sigma_alpha", {"alpha": math.inf}),
    ("sigma_alpha", {"alpha": -3.0}),
]


class TestPairScorer:
    """A scorer bound to an abstract form equals eval_abstract on every pair,
    errors included; its theta check runs once, when it is bound."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        reduce=st.booleans(),
        theta_kind=st.sampled_from(
            ["tied", "random", "seco", "depth_raw", "depth", "zhou", "resnik"]
        ),
    )
    def test_equals_eval_abstract_errors_included(self, seed, reduce, theta_kind):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=20, multi=0.6)
        if reduce:
            t, _ = smx.transitive_reduction(t)
        classes = sorted(t.class_ids)
        if theta_kind == "tied":
            theta = _monotone_tied_table(t, rng)
        elif theta_kind == "random":  # most often not monotone
            values = (0.0, 1.0, 2.0, math.inf)
            theta = smx.ThetaEstimator.from_table(t, {c: rng.choice(values) for c in classes})
        elif theta_kind == "resnik":  # inf on every unused class
            assignments = {
                f"i{k}": frozenset(rng.sample(classes, rng.randint(1, 2)))
                for k in range(rng.randint(1, 4))
            }
            theta = smx.resnik_extrinsic_ic(t, smx.class_usage(t, smx.AnnotationSet(assignments)))
        else:
            theta = smx.build_estimator(theta_kind, t)
        pool = classes + [-1, max(classes) + 1]
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
        forms = [
            replace(smx.abstract_form(kind, **params), feature=feature)
            for kind, params in SCORED_FORMS
            for feature in THETA_FEATURES
        ] + [smx.instantiate(name) for name in NAMED]
        for form in forms:
            form = form.with_theta(theta)
            try:
                score = smx.pair_scorer(form, t)
            except ContractError as exc:
                bound = type(exc), str(exc)
                score = None
            for u, v in pairs:
                want = _outcome(lambda: smx.eval_abstract(form, t, u, v))
                got = bound if score is None else _outcome(lambda: score(u, v))
                assert got == want, (form, u, v)

    def test_binding_checks_theta(self, toy):
        with pytest.raises(ContractError, match="no bound specificity estimator"):
            smx.pair_scorer(smx.abstract_form("general_dice"), toy)
        table = {c: 1.0 for c in toy.class_ids}
        table[toy.node("root")] = 9.0
        bad = smx.ThetaEstimator.from_table(toy, table)
        with pytest.raises(ContractError, match="estimator is not monotone"):
            smx.pair_scorer(smx.instantiate("lin").with_theta(bad), toy)


class TestFormIsASpec:
    """An abstract form is a PairwiseMeasureSpec over a form row: one entry
    point scores it, and the form decides its flags."""

    def test_theta_errors_are_the_same_through_every_entry_point(self, toy):
        table = {c: 1.0 for c in toy.class_ids}
        table[toy.node("root")] = 9.0
        bad = smx.ThetaEstimator.from_table(toy, table)
        e, d = toy.node("E"), toy.node("D")
        for theta, message in (
            (None, "abstract form has no bound specificity estimator"),
            (bad, "bound specificity estimator is not monotone"),
        ):
            form = smx.abstract_form("general_dice", theta=theta)
            assert isinstance(form, smx.PairwiseMeasureSpec)
            for score in (
                lambda: smx.eval_pairwise(form, toy, e, d),
                lambda: smx.eval_abstract(form, toy, e, d),
                lambda: smx.pair_scorer(form, toy),
            ):
                with pytest.raises(ContractError) as caught:
                    score()
                assert str(caught.value) == message

    @pytest.mark.parametrize("feature", ["nope", "closure_theta", "closure_counts"])
    def test_a_feature_that_is_no_pair_feature_is_refused(self, feature):
        with pytest.raises(ContractError) as caught:
            smx.abstract_form("general_dice", feature=feature)
        assert str(caught.value) == (
            f"{feature!r} is not a pair feature; known: mica_theta, "
            "shared_ancestor_salience, ancestor_counts, depth_triple, ncca_mean"
        )

    def test_symmetry_follows_the_form(self):
        assert not smx.is_symmetric(smx.abstract_form("ratio", alpha=0.25, beta=2.0))
        assert smx.is_symmetric(smx.abstract_form("ratio", alpha=2.0, beta=2.0))
        assert not smx.is_symmetric(smx.abstract_form("contrast", alpha=0.0))
        assert smx.is_symmetric(smx.instantiate("simpson"))

    def test_a_form_over_a_feature_without_theta_equals_its_catalog_row(self, toy):
        # neither reads theta, so neither needs one
        rows = (
            (smx.abstract_form("general_dice", feature="depth_triple"), "wu_palmer"),
            (smx.abstract_form("sigma_beta", beta=1.0, feature="ancestor_counts"), "cmatch"),
        )
        for form, name in rows:
            spec = smx.pairwise_measure(name)
            score = smx.pair_scorer(form, toy)
            for u in sorted(toy.class_ids):
                for v in sorted(toy.class_ids):
                    want = smx.eval_pairwise(spec, toy, u, v)
                    assert smx.eval_abstract(form, toy, u, v) == score(u, v) == want


class TestMeasureValue:
    def test_fields_by_name_immutable_and_compared_as_four_fields(self):
        sim, dist = smx.Polarity.SIMILARITY, smx.Polarity.DISTANCE
        mv = smx.MeasureValue(0.25, sim, True)
        assert (mv.value, mv.polarity, mv.normalized, mv.degenerate) == (0.25, sim, True, False)
        for name in ("value", "polarity", "normalized", "degenerate"):
            with pytest.raises(AttributeError):
                setattr(mv, name, None)
        assert mv == smx.MeasureValue(0.25, sim, True, degenerate=False)
        for other in (
            smx.MeasureValue(0.5, sim, True),
            smx.MeasureValue(0.25, dist, True),
            smx.MeasureValue(0.25, sim, False),
            smx.MeasureValue(0.25, sim, True, degenerate=True),
        ):
            assert mv != other
        # a value is a tuple of its fields: it unpacks and equals that tuple
        value, polarity, normalized, degenerate = mv
        assert mv == (value, polarity, normalized, degenerate) == (0.25, sim, True, False)
