"""pvml: machine learning with provenance built into every object.

Datasets, models and evaluations automatically record a complete,
hashable, serializable description of how they were created, and any data
loader or trainer can be re-instantiated from that record to reproduce the
model it produced.
"""

from ._version import __version__
from .core import (
    CATEGORICAL,
    REAL,
    UNKNOWN,
    CategoricalDomain,
    CategoricalOutput,
    Dataset,
    Example,
    FeatureDomain,
    FeatureValue,
    Model,
    Prediction,
    RealDomain,
    RealOutput,
    Trainer,
    argmax_label,
    build_dataset,
    make_example,
    predict,
    predict_chunked,
)
from .data import (
    ColumnarSchema,
    CsvDataSource,
    FieldProcessor,
    InMemoryDataSource,
    TransformSpec,
    TransformerMap,
    apply_transformers,
    featurize_row,
    fit_transformers,
    load_csv,
    recorded_transformers,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleModel,
    EnsembleTrainer,
    bootstrap_sample,
    combine,
    train_ensemble,
)
from .evaluate import (
    ClassificationEvaluation,
    RegressionEvaluation,
    evaluate_classification,
    evaluate_regression,
)
from .optimize import (
    Adam,
    AdaGrad,
    LinearSgdConfig,
    LinearSgdModel,
    LinearSgdTrainer,
    Sgd,
    logistic_objective,
    optimizer_step,
    squared_objective,
    train_linear_sgd,
)
from .persist import load_model, register_model_class, save_model
from .provenance import (
    ConfigRecord,
    ConfigRef,
    PBool,
    PFlt,
    PHash,
    PInt,
    PList,
    PMap,
    PObj,
    PStr,
    PTimestamp,
    ProvValue,
    canonical_encode,
    config_from_json,
    config_to_json,
    extract_configuration,
    object_provenance,
    parse_provenance,
    provenance_hash,
    redact,
    serialize_provenance,
)
from .repro import (
    diff_provenance,
    reconstruct_source,
    reconstruct_trainer,
    register_loader_class,
    register_trainer_class,
    reproduce_model,
)
from .trees import CartTrainer, TreeConfig, TreeModel, best_split, train_cart

__all__ = [name for name in dir() if not name.startswith("_")]
