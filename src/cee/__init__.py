"""Counterfactual edit evaluation over concept taxonomies.

Evaluates generative models by computing minimum-cost concept edit scripts
(replace / delete / insert over a knowledge taxonomy) between generated and
target concept sets, aggregating them into story and scene metrics, and
mining the scripts for global explanation rules.

The package exports a name when README documents it or it is an exception
type, which callers catch; ``ClevrObject`` is exported so library code can
build its own stories. Every other name stays in its module. ``__all__`` is
derived from the imports below.
"""

import types as _types

from .edits import ConceptMultiset, EditOp, EditScript, brute_force_csed, csed
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
from .explain import apriori, edit_set_counts, format_local
from .harness import corrupt, golden_story_pair, recovery_mismatch
from .scene import build_samples, read_detections, read_targets, solve_thresholds
from .story import (
    ClevrObject,
    Story,
    consistency_loss,
    evaluate_story,
    frame_csed,
    read_stories,
    story_loss,
    validate_object,
)
from .taxonomy import (
    FLATTENED_CONFIG,
    CostConfig,
    Taxonomy,
    clevr_taxonomy,
    delete_cost,
    distance,
    insert_cost,
    is_replaceable,
    load_taxonomy,
    replace_cost,
    resolve_taxonomy,
)

__version__ = "0.1.0"

# the imported names; the submodules the imports bind on the package are not exports
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
