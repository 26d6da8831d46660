"""smx: semantic similarity and relatedness over taxonomy-structured
knowledge graphs.

Typical flow: parse a triple graph, reduce it to its taxonomy, bind a
specificity estimator, then evaluate pairwise or groupwise measures or
run the benchmark harness. The `smx` console command wires the same
steps together.
"""

from importlib import resources

from .graph import (
    AncestorConstraint,
    NodeId,
    SemanticGraph,
    TaxonomyView,
    SUBCLASS_OF,
    IS_A,
    VIRTUAL_ROOT,
)
from .ingest import (
    AnnotationSet,
    RatedPairSet,
    TripleRecord,
    WordMapping,
    parse_annotations,
    parse_graph,
    parse_rated_pairs,
    parse_weight_scheme,
    parse_word_mapping,
    serialize_graph,
)
from .preprocess import (
    ReductionReport,
    reduce_annotations,
    taxonomic_reduction,
    transitive_reduction,
)
from .specificity import (
    ClassUsage,
    ThetaEstimator,
    build_estimator,
    class_usage,
    depth_theta,
    idf_theta,
    nonlinear_depth_theta,
    resnik_extrinsic_ic,
    resnik_intrinsic_ic,
    sanchez_leaves_ic,
    sanchez_refined_ic,
    seco_ic,
    validate_monotonicity,
    zhou_ic,
)
from .pairwise import (
    ConversionRule,
    MEASURES,
    MeasureValue,
    PairwiseMeasureSpec,
    Polarity,
    abstract_form,
    convert,
    eval_abstract,
    eval_pairwise,
    instantiate,
    is_symmetric,
    pair_scorer,
    pairwise_measure,
)
from .groupwise import GroupwiseMeasureSpec, eval_groupwise, groupwise_measure
from .relatedness import (
    PredicateWeightScheme,
    SimRankScores,
    TransitionModel,
    commute_time,
    hitting_time,
    simrank,
    weighted_shortest_path,
)
from .bench import (
    BenchmarkRun,
    KNOWN_DATASETS,
    MeasureReport,
    ScoredPair,
    load_rated_pairs,
    pearson,
    run_benchmark,
    score_pairs,
    spearman,
    write_report_csv,
)

__version__ = "0.1.0"


def toy_taxonomy_path() -> str:
    """Path of the bundled seven-class golden taxonomy fixture."""
    return str(resources.files("smx").joinpath("data/toy_a.tsv"))
