"""Rebuild pipelines from provenance and reproduce trained models.

The registries are open-world: loader and trainer classes outside this
library can register themselves and then round-trip through configuration
extraction like the built-in ones.  Reproduction re-runs the recorded
pipeline (source, transformations, trainer) and fails loudly if the data
has changed or the resulting provenance hash differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import Dataset, Model, Trainer, build_dataset, config_from_properties
from .data import (
    CSV_SOURCE_CLASS,
    CsvDataSource,
    apply_transformers,
    fit_transformers,
    recorded_transformers,
    schema_from_properties,
)
from .ensemble import ENSEMBLE_TRAINER_CLASS, EnsembleConfig, EnsembleTrainer
from .errors import MissingProperty, ParseError, ReproductionMismatch, ResourceChanged, UnknownClass
from .optimize import LINEAR_TRAINER_CLASS, LinearSgdConfig, LinearSgdTrainer
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
    VOLATILE_INSTANCE_KEYS,
    config_fields,
    config_section,
    extract_configuration,
    instance_section,
    is_object_provenance,
    object_provenance,
    provenance_hash,
    rewrite,
)
from .trees import CART_TRAINER_CLASS, CartTrainer, TreeConfig

# ---------------------------------------------------------------------------
# The configuration carrier
# ---------------------------------------------------------------------------


class _Props:
    """One object's configuration, as registered builders read it; an object
    outside the config/instance convention reads its fields.  A recorded
    invocation count must be a non-negative int."""

    def __init__(self, obj: PObj):
        self.class_name = obj.class_name
        self.config = config_fields(obj)
        instance = instance_section(obj) if is_object_provenance(obj) else PMap()
        recorded = instance.get("invocation-count", PInt(0))
        if not (isinstance(recorded, PInt) and recorded.value >= 0):
            raise ParseError(f"the invocation-count of {obj.class_name!r} must be a non-negative int")
        self.invocation_count = recorded.value

    def raw(self, key: str) -> ProvValue:
        v = self.config.get(key)
        if v is None:
            raise MissingProperty(key)
        return v

    def value(self, key: str):
        v = self.raw(key)
        if isinstance(v, (PStr, PInt, PFlt, PBool)):
            return v.value
        return v

    def nested(self, key: str) -> "_Props":
        v = self.config.get(key)
        if not isinstance(v, PObj):
            raise MissingProperty(key)
        return _Props(v)

    def read(self, cls):
        """The config dataclass ``cls`` these properties record; see :func:`config_properties`."""
        return config_from_properties(cls, self.config, _trainer_from)


def _resolve(records: Sequence[ConfigRecord], registry: Mapping, kind: str) -> PObj:
    """The first record of a registered class as a config-only object, every
    :class:`ConfigRef` below it replaced by the object of the record it
    names.  A dangling reference raises :class:`MissingProperty`, a cycle
    :class:`ParseError`."""
    records = list(records)
    # a document extracted from a whole model starts at the model record;
    # the first registered class in visit order is the right root
    root = next((r for r in records if r.class_name in registry), None)
    if root is None:
        found = ", ".join(sorted({r.class_name for r in records})) or "an empty configuration"
        raise UnknownClass(f"no registered {kind} class among: {found}")
    by_name = {r.name: r for r in records}
    resolved: dict[str, PObj | None] = {}  # None while a record is being resolved

    def visit(node):
        if not isinstance(node, ConfigRef):
            return None
        if node.name not in by_name:
            raise MissingProperty(f"{node.name} (dangling reference)")
        return resolve(by_name[node.name])

    def resolve(record: ConfigRecord) -> PObj:
        if record.name not in resolved:
            resolved[record.name] = None
            config = {k: rewrite(v, visit) for k, v in record.properties.items()}
            resolved[record.name] = object_provenance(record.class_name, config=config)
        elif resolved[record.name] is None:
            raise ParseError(f"configuration record {record.name!r} refers back to itself")
        return resolved[record.name]

    return resolve(root)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------

_LOADER_BUILDERS: dict[str, Callable[[_Props], object]] = {}
_TRAINER_BUILDERS: dict[str, Callable[[_Props], Trainer]] = {}


def register_loader_class(class_name: str, builder: Callable) -> None:
    _LOADER_BUILDERS[class_name] = builder


def register_trainer_class(class_name: str, builder: Callable) -> None:
    """Make trainers of ``class_name`` rebuildable from their provenance.

    ``builder`` receives the recorded configuration (``class_name``,
    ``raw``, ``value``, ``nested`` and ``read``) and returns the trainer.
    A :class:`Trainer` subclass that keeps a frozen config dataclass in
    ``self.cfg`` declares its configuration once: the base class records
    the fields, and ``props.read(ConfigClass)`` rebuilds them, for example
    ``lambda props: StumpTrainer(props.read(StumpConfig))``.  See the README
    for the recording rules.
    """
    _TRAINER_BUILDERS[class_name] = builder


register_loader_class(
    CSV_SOURCE_CLASS,
    lambda props: CsvDataSource(props.value("path"), schema_from_properties(props.nested("schema").config)),
)
register_trainer_class(LINEAR_TRAINER_CLASS, lambda props: LinearSgdTrainer(**vars(props.read(LinearSgdConfig))))
register_trainer_class(CART_TRAINER_CLASS, lambda props: CartTrainer(props.read(TreeConfig)))
register_trainer_class(ENSEMBLE_TRAINER_CLASS, lambda props: EnsembleTrainer(props.read(EnsembleConfig)))


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def reconstruct_source(
    records: Sequence[ConfigRecord], expected_data_hash: str | None = None
):
    """Re-instantiate a data loader from extracted configuration records.

    The first record of a registered loader class is the loader itself;
    the records it refers to are its components (for example the columnar
    schema).  When ``expected_data_hash`` is given, the freshly loaded
    resource's SHA-256 must match it or :class:`ResourceChanged` is raised.
    """
    loader = _resolve(records, _LOADER_BUILDERS, "loader")
    source = _build(_LOADER_BUILDERS[loader.class_name], _Props(loader))
    if expected_data_hash is not None:
        actual = instance_section(source.provenance).get("data-hash")
        if not isinstance(actual, PHash) or actual.digest != expected_data_hash:
            got = actual.digest if isinstance(actual, PHash) else "<none>"
            raise ResourceChanged(
                f"data at the recorded location changed: expected sha256 "
                f"{expected_data_hash}, found {got}"
            )
    return source


def _build(builder: Callable, props: _Props):
    """Run a registered builder; a property of the wrong type or range is a ParseError."""
    try:
        return builder(props)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid configuration for {props.class_name!r}: {exc}") from exc


def _trainer_from(obj: PObj) -> Trainer:
    """The trainer ``obj`` configures, at the invocation count it records."""
    props = _Props(obj)
    builder = _TRAINER_BUILDERS.get(props.class_name)
    if builder is None:
        raise UnknownClass(f"trainer class {props.class_name!r} is not registered")
    trainer = _build(builder, props)
    trainer.set_invocation_count(props.invocation_count)
    return trainer


def reconstruct_trainer(spec: PObj | Sequence[ConfigRecord]) -> Trainer:
    """Rebuild a trainer from its provenance or from configuration records.

    From provenance, the invocation counter (including that of any nested
    base trainer) is advanced to the recorded train-time value so the
    reproduced call consumes the same random stream position.  From
    configuration records the counters start at zero.
    """
    if not isinstance(spec, PObj):
        spec = _resolve(spec, _TRAINER_BUILDERS, "trainer")
    return _trainer_from(spec)


def rebuild_dataset(data_prov: PObj) -> Dataset:
    """Source + recorded transformations -> the dataset a model trained on."""
    inst = instance_section(data_prov)
    source_prov = inst.get("source")
    if not isinstance(source_prov, PObj):
        raise MissingProperty("source")
    expected = instance_section(source_prov).get("data-hash")
    digest = expected.digest if isinstance(expected, PHash) else None
    source = reconstruct_source(extract_configuration(source_prov), expected_data_hash=digest)
    dataset = build_dataset(source)
    for recorded in recorded_transformers(data_prov):
        dataset = apply_transformers(dataset, fit_transformers(dataset, recorded.spec))
    return dataset


def reproduce_model(model_prov: PObj) -> Model:
    """Re-run the recorded pipeline and verify it lands on the same model.

    Raises :class:`ResourceChanged` when the training data differs from the
    recorded hash and :class:`ReproductionMismatch` when the rebuilt
    model's non-volatile provenance hash differs from the original's.
    """
    trainer_prov = config_section(model_prov).get("trainer")
    data_prov = instance_section(model_prov).get("data")
    if not isinstance(trainer_prov, PObj) or not isinstance(data_prov, PObj):
        raise MissingProperty("trainer/data")
    dataset = rebuild_dataset(data_prov)
    trainer = reconstruct_trainer(trainer_prov)
    model = trainer.train(dataset)
    original = provenance_hash(model_prov)
    rebuilt = provenance_hash(model.provenance)
    if original != rebuilt:
        raise ReproductionMismatch(
            f"reproduced model hash {rebuilt} differs from original {original}"
        )
    return model


# ---------------------------------------------------------------------------
# Provenance diff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffEntry:
    path: str
    left: ProvValue | None
    right: ProvValue | None
    volatile: bool


def diff_provenance(a: ProvValue, b: ProvValue) -> list[DiffEntry]:
    """Deterministic structural diff; volatile fields are tagged, not hidden."""
    entries: list[DiffEntry] = []

    def join(path: str, part: str) -> str:
        return f"{path}/{part}" if path else part

    def leaf_volatile(x, y) -> bool:
        return isinstance(x, PTimestamp) or isinstance(y, PTimestamp)

    def walk(x: ProvValue | None, y: ProvValue | None, path: str, volatile: bool) -> None:
        if x is None or y is None or type(x) is not type(y):
            if x != y:
                entries.append(DiffEntry(path, x, y, volatile or leaf_volatile(x, y)))
            return
        if isinstance(x, PObj):
            if x.class_name != y.class_name:
                entries.append(
                    DiffEntry(join(path, "class-name"), PStr(x.class_name), PStr(y.class_name), volatile)
                )
            if is_object_provenance(x) and is_object_provenance(y):
                walk(config_section(x), config_section(y), join(path, "config"), volatile)
                walk_instance(instance_section(x), instance_section(y), join(path, "instance"), volatile)
            else:
                walk(x.fields, y.fields, path, volatile)
            return
        if isinstance(x, PMap):
            for key in sorted(set(x.keys()) | set(y.keys())):
                walk(x.get(key), y.get(key), join(path, key), volatile)
            return
        if isinstance(x, PList):
            for i in range(max(len(x.items), len(y.items))):
                xi = x.items[i] if i < len(x.items) else None
                yi = y.items[i] if i < len(y.items) else None
                walk(xi, yi, join(path, str(i)), volatile)
            return
        if x != y:
            entries.append(DiffEntry(path, x, y, volatile or leaf_volatile(x, y)))

    def walk_instance(x: PMap, y: PMap, path: str, volatile: bool) -> None:
        for key in sorted(set(x.keys()) | set(y.keys())):
            child_volatile = volatile or key in VOLATILE_INSTANCE_KEYS
            walk(x.get(key), y.get(key), join(path, key), child_volatile)

    walk(a, b, "", False)
    return entries
