"""Pipeline configuration: flat key=value files with section prefixes.

The format is intentionally line-based and diffable; parsing is strict
(unknown keys are errors) and serialization is canonical, so the sha256 of
the canonical form identifies a configuration exactly. That hash is stamped
into every stage's artifacts for staleness checks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .autoencoder import LAYER_KEYS, TrainConfig
from .data import CLASS_IDS, CLASS_NAMES
from .errors import ConfigError
from .forest import ForestConfig
from .phantom import PhantomConfig
from .validation import BoundConfig

EMBED_METHODS = ("pca", "pls", "tsne", "umap")


def _refuse_duplicates(key: str, values: tuple[str, ...]) -> None:
    """A list-valued key names each entry once: a repeated one would repeat
    its rows in every table built from the list."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{key} lists {', '.join(repeated)} more than once")


@dataclass
class EmbedConfig:
    methods: tuple[str, ...] = EMBED_METHODS
    layers: tuple[str, ...] = ("L3",)
    components: int = 3
    perplexity: float = 30.0
    tsne_iters: int = 1000
    n_neighbors: int = 15
    min_dist: float = 0.1
    umap_epochs: int = 500

    def validate(self) -> None:
        for m in self.methods:
            if m not in EMBED_METHODS:
                raise ConfigError(f"unknown embedding method {m!r}")
        if not self.methods:
            raise ConfigError("at least one embedding method required")
        if not self.layers:
            raise ConfigError("at least one layer required")
        for layer in self.layers:
            if layer not in LAYER_KEYS:
                raise ConfigError(f"unknown layer {layer!r} (the encoder layers "
                                  f"are {', '.join(LAYER_KEYS)})")
        _refuse_duplicates("embed.methods", self.methods)
        _refuse_duplicates("embed.layers", self.layers)
        if self.components < 1:
            raise ConfigError("components must be >= 1")
        if self.n_neighbors < 1:
            raise ConfigError("n_neighbors must be >= 1")
        if not 0.0 < self.perplexity < math.inf:
            raise ConfigError("perplexity must be finite and > 0")
        if self.tsne_iters < 1 or self.umap_epochs < 1:
            raise ConfigError("tsne_iters and umap_epochs must be >= 1")
        # UMAP takes min_dist <= spread, and fit_ab fits with spread 1
        if not 0.0 <= self.min_dist <= 1.0:
            raise ConfigError("min_dist must be in [0,1]")


@dataclass
class PipelineConfig:
    phantom: PhantomConfig = field(default_factory=lambda: PhantomConfig(
        class_counts={0: 229, 1: 252, 2: 149, 3: 188}))
    train: TrainConfig = field(default_factory=TrainConfig)
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    bound: BoundConfig = field(default_factory=BoundConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    comparisons: tuple[str, ...] = ("NOR_AD", "NOR_MCI", "NOR_MCIc")
    top_n: int = 10
    stratify: bool = True
    quadratic: bool = False
    seed: int = 0
    out_dir: str = "runs/phantom"

    def validate(self) -> None:
        self.phantom.validate()
        self.train.validate()
        self.embed.validate()
        self.bound.validate()
        self.forest.validate()
        if self.top_n < 1:
            raise ConfigError("top_n must be >= 1")
        if not self.comparisons:
            raise ConfigError("at least one comparison required")
        _refuse_duplicates("comparisons", self.comparisons)
        for name in self.comparisons:
            pair = parse_comparison(name)
            for label in pair:
                if self.phantom.class_counts.get(label, 0) <= 0:
                    raise ConfigError(
                        f"comparison {name!r} references class "
                        f"{CLASS_NAMES[label]} absent from the phantom config")


# Ten regions shifted for the AD class, none for MCI: the ground truth of the
# reference study, (region, class, shift) as PhantomConfig.effect_spec takes it.
AD_EFFECTS = [(2, 3, 0.40), (5, 3, 0.30), (7, 3, 0.20), (11, 3, 0.35),
              (13, 3, 0.25), (17, 3, 0.40), (19, 3, 0.30), (23, 3, 0.20),
              (26, 3, 0.35), (29, 3, 0.25)]


def study_config(seed: int, out_dir: str | None = None) -> PipelineConfig:
    """The reference study: 120 subjects at 32^3 (40 NOR, 40 MCI, 40 AD) over
    32 regions with AD_EFFECTS planted, ten MSE epochs, all four embedding
    methods over L1-L3, NOR_AD and NOR_MCI; every seed is `seed`."""
    config = PipelineConfig(
        phantom=PhantomConfig(dims=(32, 32, 32), region_count=32,
                              class_counts={0: 40, 1: 40, 3: 40},
                              effect_spec=list(AD_EFFECTS),
                              noise_sigma=0.05, smoothness=2.0, seed=seed),
        train=TrainConfig(loss_kind="mse", max_epochs=10, patience=10,
                          batch_size=8, seed=seed),
        embed=EmbedConfig(layers=("L1", "L2", "L3"), components=3),
        comparisons=("NOR_AD", "NOR_MCI"),
        seed=seed,
    )
    if out_dir is not None:
        config.out_dir = out_dir
    return config


def parse_comparison(name: str) -> tuple[int, int]:
    """NOR_AD -> (0, 3). Only binary comparisons are supported."""
    parts = name.split("_")
    labels = []
    for part in parts:
        if part not in CLASS_IDS:
            raise ConfigError(f"unknown class {part!r} in comparison {name!r}")
        labels.append(CLASS_IDS[part])
    if len(labels) != 2:
        raise ConfigError(
            f"comparison {name!r} must name exactly two classes; "
            "multi-class groupings are not supported")
    if labels[0] == labels[1]:
        raise ConfigError(f"comparison {name!r} repeats a class")
    return (labels[0], labels[1])


def _parse_bool(value: str, key: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _parse_as(convert, what: str):
    def parse(value: str, key: str):
        try:
            return convert(value)
        except ValueError:
            raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    return parse


_parse_int = _parse_as(int, "an integer")
_parse_float = _parse_as(float, "a number")


def _parse_str(value: str, key: str) -> str:
    return value


def _parse_names(value: str, key: str) -> tuple[str, ...]:
    """Comma-separated items, stripped, empty ones dropped."""
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _parse_fixed(parse, count: int, what: str):
    """Parser for exactly `count` comma-separated values of one type."""
    def parse_fixed(value: str, key: str) -> tuple:
        parts = [parse(v, key) for v in value.split(",")]
        if len(parts) != count:
            raise ConfigError(f"{key} needs {what}, got {value!r}")
        return tuple(parts)
    return parse_fixed


def _parse_class(name: str, key: str) -> int:
    if name not in CLASS_IDS:
        raise ConfigError(f"{key}: unknown class {name!r}")
    return CLASS_IDS[name]


def _parse_class_counts(value: str, key: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for item in _parse_names(value, key):
        name, _, num = item.partition(":")
        label = _parse_class(name, key)
        counts[label] = _parse_int(num, key)
    if not counts:
        raise ConfigError(f"{key} must name at least one class")
    return counts


def _parse_effects(value: str, key: str) -> list[tuple[int, int, float]]:
    effects = []
    for item in _parse_names(value, key):
        fields = item.split(":")
        if len(fields) != 3:
            raise ConfigError(f"{key}: expected region:class:shift, got {item!r}")
        region = _parse_int(fields[0], key)
        effects.append((region, _parse_class(fields[1], key), _parse_float(fields[2], key)))
    return effects


def _fmt_float(v) -> str:
    return repr(float(v))


def _fmt_counts(counts: dict[int, int]) -> str:
    return ",".join(f"{CLASS_NAMES[k]}:{counts[k]}" for k in sorted(counts))


def _fmt_effects(effects) -> str:
    return ",".join(f"{r}:{CLASS_NAMES[c]}:{float(s)!r}" for r, c, s in effects)


_INT = (_parse_int, str)
_FLOAT = (_parse_float, _fmt_float)
_BOOL = (_parse_bool, lambda v: "true" if v else "false")
_NAMES = (_parse_names, ",".join)

# Every key of the config file, in canonical order: key -> (PipelineConfig
# section, or None for a top-level field; field name; parse(value, key);
# format(field value)). `out` is not here: the output directory is a runtime
# location, not configuration, and stays out of the hash.
KEYS = {
    "seed": (None, "seed", *_INT),
    "comparisons": (None, "comparisons", *_NAMES),
    "phantom.dims": ("phantom", "dims", _parse_fixed(_parse_int, 3, "three integers"),
                     lambda v: ",".join(map(str, v))),
    "phantom.region_count": ("phantom", "region_count", *_INT),
    "phantom.class_counts": ("phantom", "class_counts", _parse_class_counts, _fmt_counts),
    "phantom.effects": ("phantom", "effect_spec", _parse_effects, _fmt_effects),
    "phantom.noise_sigma": ("phantom", "noise_sigma", *_FLOAT),
    "phantom.smoothness": ("phantom", "smoothness", *_FLOAT),
    "phantom.template_range": ("phantom", "template_range",
                               _parse_fixed(_parse_float, 2, "two numbers"),
                               lambda v: ",".join(map(_fmt_float, v))),
    "train.loss": ("train", "loss_kind", _parse_str, str),
    "train.alpha": ("train", "alpha", *_FLOAT),
    "train.lr": ("train", "lr", *_FLOAT),
    "train.max_epochs": ("train", "max_epochs", *_INT),
    "train.patience": ("train", "patience", *_INT),
    "train.batch_size": ("train", "batch_size", *_INT),
    "embed.methods": ("embed", "methods", *_NAMES),
    "embed.layers": ("embed", "layers", *_NAMES),
    "embed.components": ("embed", "components", *_INT),
    "embed.perplexity": ("embed", "perplexity", *_FLOAT),
    "embed.tsne_iters": ("embed", "tsne_iters", *_INT),
    "embed.n_neighbors": ("embed", "n_neighbors", *_INT),
    "embed.min_dist": ("embed", "min_dist", *_FLOAT),
    "embed.umap_epochs": ("embed", "umap_epochs", *_INT),
    "bound.delta": ("bound", "delta", *_FLOAT),
    "bound.eta": ("bound", "eta", *_FLOAT),
    "shap.n_trees": ("forest", "n_trees", *_INT),
    "shap.max_depth": ("forest", "max_depth", *_INT),
    "shap.min_leaf": ("forest", "min_leaf", *_INT),
    "correlate.top_n": (None, "top_n", *_INT),
    "correlate.stratify": (None, "stratify", *_BOOL),
    "lrcp.quadratic": (None, "quadratic", *_BOOL),
}


def _owner(config: PipelineConfig, section: str | None):
    return config if section is None else getattr(config, section)


def canonical_lines(config: PipelineConfig) -> list[str]:
    """Deterministic serialization of everything that affects computation:
    one line per KEYS entry, in KEYS order."""
    return [f"{key}={fmt(getattr(_owner(config, section), name))}"
            for key, (section, name, _, fmt) in KEYS.items()]


def config_hash(config: PipelineConfig) -> str:
    text = "\n".join(canonical_lines(config)) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_config(config: PipelineConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(canonical_lines(config)) + "\n")


def parse_config_text(text: str) -> PipelineConfig:
    # PipelineConfig() builds fresh section objects, so fields are set in place
    config = PipelineConfig()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key == "out":
            config.out_dir = value
            continue
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, parse, _ = KEYS[key]
        setattr(_owner(config, section), name, parse(value, key))
    config.validate()
    return config


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, or not UTF-8 text
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)
