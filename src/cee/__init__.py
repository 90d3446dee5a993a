"""Counterfactual edit evaluation over concept taxonomies.

Evaluates generative models by computing minimum-cost concept edit scripts
(replace / delete / insert over a knowledge taxonomy) between generated and
target concept sets, aggregating them into story and scene metrics, and
mining the scripts for global explanation rules.
"""

from .edits import (
    ARROW,
    BRUTE_FORCE_LIMIT,
    DELETE,
    INSERT,
    REPLACE,
    Census,
    ConceptMultiset,
    EditOp,
    EditScript,
    brute_force_csed,
    csed,
    format_cost,
    operation_census,
)
from .errors import (
    CeeError,
    CycleDetected,
    DanglingEdge,
    EmptyCorpus,
    EmptySource,
    EmptyStory,
    InstanceTooLarge,
    LengthMismatch,
    MalformedObject,
    MultipleRoots,
    SpecOutOfRange,
    TaxonomyError,
    UncategorizedConcept,
    UnknownConcept,
)
from .explain import (
    AssociationRule,
    Transaction,
    apriori,
    format_local,
    format_local_grouped,
    id_frequency_table,
    mine_rules,
    read_transactions,
    split_replace_token,
    write_transactions,
)
from .harness import (
    ATTR_DRIFT,
    ATTR_REPLACE,
    CORRUPTION_KINDS,
    OBJECT_ADD,
    OBJECT_DROP,
    VOCABULARY,
    CorruptionOp,
    CorruptionSpec,
    ExpectedImpact,
    corrupt,
    generate_story,
    golden_story_pair,
    leaf_fix_cost,
    random_multiset,
    random_object,
    random_scene_corpus,
    random_spec,
    random_taxonomy,
    recovery_mismatch,
)
from .scene import (
    CENSUS_HEADER,
    DetectionRecord,
    SceneSample,
    build_samples,
    census_csv,
    corpus_report,
    read_detections,
    read_targets,
    scene_csed,
    solve_thresholds,
)
from .story import (
    ATTRIBUTES,
    N_CONCEPTS,
    ClevrObject,
    GlobalMetrics,
    Story,
    StoryMetrics,
    consistency_loss,
    evaluate_story,
    frame_csed,
    global_aggregate,
    read_stories,
    semantic_loss_table,
    story_loss,
    validate_object,
    write_stories,
)
from .taxonomy import (
    COST_PROFILES,
    FLATTENED_CONFIG,
    PATH_CONFIG,
    REPLACE_DELETE_PLUS_INSERT,
    REPLACE_SHORTEST_PATH,
    CostConfig,
    Taxonomy,
    clevr_taxonomy,
    delete_cost,
    distance,
    insert_cost,
    is_replaceable,
    load_taxonomy,
    normalize_concept,
    replace_cost,
    resolve_taxonomy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
