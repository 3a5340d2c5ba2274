"""Configuration parsing, canonical serialization, and hashing tests."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentscope.autoencoder import LAYER_KEYS, TrainConfig
from latentscope.config import (
    EMBED_METHODS,
    EmbedConfig,
    PipelineConfig,
    canonical_lines,
    config_hash,
    load_config,
    parse_comparison,
    parse_config_text,
    write_config,
)
from latentscope.data import CLASS_NAMES
from latentscope.errors import ConfigError
from latentscope.forest import ForestConfig
from latentscope.phantom import PhantomConfig
from latentscope.validation import BoundConfig


class TestParseComparison:
    def test_standard_pairs(self):
        assert parse_comparison("NOR_AD") == (0, 3)
        assert parse_comparison("NOR_MCI") == (0, 1)
        assert parse_comparison("NOR_MCIc") == (0, 2)
        assert parse_comparison("MCI_AD") == (1, 3)

    def test_unknown_class(self):
        with pytest.raises(ConfigError):
            parse_comparison("NOR_XYZ")

    def test_multi_class_rejected(self):
        with pytest.raises(ConfigError):
            parse_comparison("NOR_MCI_AD")
        with pytest.raises(ConfigError):
            parse_comparison("NOR")

    def test_repeated_class_rejected(self):
        with pytest.raises(ConfigError):
            parse_comparison("AD_AD")


class TestRoundTrip:
    def test_default_round_trip(self):
        config = PipelineConfig()
        text = "\n".join(canonical_lines(config)) + "\n"
        parsed = parse_config_text(text)
        assert canonical_lines(parsed) == canonical_lines(config)
        assert config_hash(parsed) == config_hash(config)

    def test_file_round_trip(self, tmp_path):
        config = PipelineConfig()
        config.seed = 42
        config.top_n = 7
        path = tmp_path / "run.cfg"
        write_config(config, path)
        loaded = load_config(path)
        assert loaded.seed == 42
        assert loaded.top_n == 7
        assert config_hash(loaded) == config_hash(config)

    def test_comments_and_blanks_ignored(self):
        text = (
            "# a comment line\n"
            "\n"
            "seed=9\n"
            "   \n"
            "# another\n"
            "correlate.top_n=4\n"
        )
        config = parse_config_text(text)
        assert config.seed == 9
        assert config.top_n == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("phantom.shape=1,2,3\n")

    def test_bound_complexity_rejected(self):
        # nothing reads a complexity constant: the SAR bound is fixed at C = 1
        with pytest.raises(ConfigError, match="unknown config key 'bound.complexity'"):
            parse_config_text("bound.complexity=1.0\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just some words\n")

    def test_typed_value_errors(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed=twelve\n")
        with pytest.raises(ConfigError):
            parse_config_text("train.lr=fast\n")
        with pytest.raises(ConfigError):
            parse_config_text("correlate.stratify=yes\n")

    def test_class_counts_parsing(self):
        config = parse_config_text(
            "phantom.class_counts=NOR:10,AD:5\ncomparisons=NOR_AD\n")
        assert config.phantom.class_counts == {0: 10, 3: 5}
        with pytest.raises(ConfigError):
            parse_config_text("phantom.class_counts=BAD:10\n")

    def test_effects_parsing(self):
        config = parse_config_text(
            "phantom.effects=5:AD:0.3,7:MCI:0.1\n"
            "phantom.class_counts=NOR:10,AD:5,MCI:5\n"
            "comparisons=NOR_AD\n")
        assert config.phantom.effect_spec == [(5, 3, 0.3), (7, 1, 0.1)]
        with pytest.raises(ConfigError):
            parse_config_text("phantom.effects=5:AD\n")

    @pytest.mark.parametrize("layer", ["L4", "L12", "L0", "l3"])
    def test_layer_outside_encoder_rejected(self, layer):
        # the encoder has three layers; a name outside them would fail only
        # later, inside the embed stage
        with pytest.raises(ConfigError, match=f"unknown layer '{layer}'"):
            parse_config_text(f"embed.layers={layer}\n")
        with pytest.raises(ConfigError, match="unknown layer"):
            EmbedConfig(layers=("L3", layer)).validate()

    @pytest.mark.parametrize("value", [0, -3])
    def test_neighbourless_umap_rejected(self, value):
        with pytest.raises(ConfigError, match="n_neighbors"):
            parse_config_text(f"embed.n_neighbors={value}\n")

    @pytest.mark.parametrize("line,match", [
        ("embed.perplexity=0.0", "perplexity"),
        ("embed.perplexity=-5.0", "perplexity"),
        ("embed.perplexity=nan", "perplexity"),
        ("embed.perplexity=inf", "perplexity"),
        ("embed.tsne_iters=0", "tsne_iters"),
        ("embed.umap_epochs=0", "umap_epochs"),
        ("embed.min_dist=-1.0", "min_dist"),
        ("embed.min_dist=1.5", "min_dist"),
        ("embed.min_dist=nan", "min_dist"),
    ])
    def test_embedding_parameter_out_of_range_rejected(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(line + "\n")

    @pytest.mark.parametrize("line", ["embed.min_dist=0.0", "embed.min_dist=1.0",
                                      "embed.perplexity=0.5", "embed.tsne_iters=1",
                                      "embed.umap_epochs=1"])
    def test_embedding_parameter_at_its_limit_accepted(self, line):
        parse_config_text(line + "\n")

    @pytest.mark.parametrize("text,key", [
        ("embed.methods=pca,pca\n", "embed.methods"),
        ("embed.methods=pca,tsne,pca\n", "embed.methods"),
        ("embed.layers=L3,L3\n", "embed.layers"),
        ("phantom.class_counts=NOR:10,AD:10\ncomparisons=NOR_AD,NOR_AD\n",
         "comparisons"),
    ])
    def test_repeated_list_entry_rejected(self, text, key):
        # a repeated method, layer or comparison used to repeat its rows in
        # correlations.csv, top_regions.csv and corrected_pvalue.csv
        with pytest.raises(ConfigError, match=f"{key} lists"):
            parse_config_text(text)

    def test_repeated_entries_rejected_by_validate(self):
        with pytest.raises(ConfigError, match="embed.methods"):
            EmbedConfig(methods=("pca", "pca")).validate()
        with pytest.raises(ConfigError, match="embed.layers"):
            EmbedConfig(layers=("L3", "L1", "L3")).validate()
        with pytest.raises(ConfigError, match="comparisons"):
            PipelineConfig(comparisons=("NOR_AD", "NOR_MCI", "NOR_AD")).validate()

    def test_comparison_against_absent_class(self):
        with pytest.raises(ConfigError, match="absent"):
            parse_config_text(
                "phantom.class_counts=NOR:10,AD:10\ncomparisons=NOR_MCI\n")

    def test_float_formatting_survives(self):
        # repr-based serialization must reproduce the exact float
        config = PipelineConfig()
        config.phantom.noise_sigma = 0.1 + 0.2  # 0.30000000000000004
        text = "\n".join(canonical_lines(config)) + "\n"
        parsed = parse_config_text(text)
        assert parsed.phantom.noise_sigma == config.phantom.noise_sigma


class TestHash:
    def test_stable_across_instances(self):
        assert config_hash(PipelineConfig()) == config_hash(PipelineConfig())

    def test_sensitive_to_computation_fields(self):
        a = PipelineConfig()
        b = PipelineConfig()
        b.seed = 1
        assert config_hash(a) != config_hash(b)
        c = PipelineConfig()
        c.embed.components = 2
        assert config_hash(a) != config_hash(c)

    def test_out_dir_excluded(self):
        # the output directory is a location, not an experiment parameter
        a = PipelineConfig()
        b = PipelineConfig()
        b.out_dir = "/somewhere/else"
        assert config_hash(a) == config_hash(b)
        assert not any("out" == line.split("=")[0]
                       for line in canonical_lines(a))

    def test_default_cohort_size(self):
        counts = PipelineConfig().phantom.class_counts
        assert sum(counts.values()) == 229 + 252 + 149 + 188

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_default_hash_pinned(self):
        # recorded when bound.complexity left the config
        assert config_hash(PipelineConfig()) == (
            "414de77e67ff59dae835e3f041a74a0dc1142fb5960d6d7610d5393a8f23d235")


def test_readme_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    config = parse_config_text(blocks[0])
    assert config.comparisons == ("NOR_AD", "NOR_MCI")


def _unit(lo=0.0, hi=1.0, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw)


_any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    labels = draw(st.lists(st.sampled_from(sorted(CLASS_NAMES)), min_size=2,
                           max_size=4, unique=True))
    counts = {label: draw(st.integers(1, 500)) for label in labels}
    for label in draw(st.lists(st.sampled_from(labels), max_size=2)):
        counts[label] = 0
    present = [label for label in labels if counts[label] > 0]
    if len(present) < 2:
        counts[labels[0]] = counts[labels[1]] = 1
        present = labels[:2]
    pairs = draw(st.lists(
        st.permutations(present).map(lambda p: tuple(p[:2])),
        min_size=1, max_size=3, unique=True))
    regions = draw(st.integers(2, 8))
    effects = draw(st.lists(st.tuples(st.integers(1, regions),
                                      st.sampled_from(sorted(CLASS_NAMES)),
                                      _unit(-1.0, 1.0)), max_size=4))
    lo = draw(_unit())
    phantom = PhantomConfig(
        dims=draw(st.tuples(*[st.integers(2, 12)] * 3)), region_count=regions,
        class_counts=counts, effect_spec=effects,
        noise_sigma=draw(_unit(0.0, 10.0)), smoothness=draw(_unit(0.0, 10.0)),
        template_range=(lo, draw(_unit(lo, 1.0))))
    train = TrainConfig(
        loss_kind=draw(st.sampled_from(["mse", "ssim", "combined"])),
        alpha=draw(_unit()), lr=draw(_any_float),
        max_epochs=draw(st.integers(1, 100)), patience=draw(st.integers(1, 100)),
        batch_size=draw(st.integers(1, 64)))
    embed = EmbedConfig(
        methods=tuple(draw(st.lists(st.sampled_from(EMBED_METHODS), min_size=1,
                                    max_size=4, unique=True))),
        layers=tuple(draw(st.lists(st.sampled_from(LAYER_KEYS),
                                   min_size=1, max_size=3, unique=True))),
        components=draw(st.integers(1, 10)),
        perplexity=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        tsne_iters=draw(st.integers(1, 5000)),
        n_neighbors=draw(st.integers(1, 100)), min_dist=draw(_unit()),
        umap_epochs=draw(st.integers(1, 5000)))
    bound = BoundConfig(delta=draw(_unit(exclude_min=True, exclude_max=True)),
                        eta=draw(_unit(exclude_max=True)))
    forest = ForestConfig(n_trees=draw(st.integers(1, 500)),
                          max_depth=draw(st.integers(1, 20)),
                          min_leaf=draw(st.integers(1, 20)))
    config = PipelineConfig(
        phantom=phantom, train=train, embed=embed, bound=bound, forest=forest,
        comparisons=tuple(f"{CLASS_NAMES[a]}_{CLASS_NAMES[b]}" for a, b in pairs),
        top_n=draw(st.integers(1, 50)), stratify=draw(st.booleans()),
        quadratic=draw(st.booleans()), seed=draw(st.integers(0, 2**64 - 1)),
        out_dir=draw(st.text("abc/_.", min_size=1, max_size=12)))
    config.validate()
    return config


@settings(max_examples=60, deadline=None)
@given(valid_configs(), st.randoms(use_true_random=False))
def test_parse_inverts_canonical_lines(config, rnd):
    """Any line order, surrounding blanks, comments and an `out` line parse
    back to the same canonical form."""
    lines = [f" {key} = {value} " for key, _, value in
             (line.partition("=") for line in canonical_lines(config))]
    lines += ["", "# comment", f"out={config.out_dir}"]
    rnd.shuffle(lines)
    parsed = parse_config_text("\n".join(lines) + "\n")
    assert canonical_lines(parsed) == canonical_lines(config)
    assert config_hash(parsed) == config_hash(config)
    assert parsed.out_dir == config.out_dir


_DEFAULT_LINES = [line.encode() for line in canonical_lines(PipelineConfig())]


@st.composite
def config_bytes(draw):
    """Arbitrary bytes, or default config lines whose values are replaced by
    arbitrary text or bytes, so that every key's value parser is reached."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    lines = []
    for line in draw(st.lists(st.sampled_from(_DEFAULT_LINES), min_size=1,
                              max_size=6)):
        key, _, value = line.partition(b"=")
        value = draw(st.one_of(st.just(value), st.binary(max_size=24),
                               st.text(max_size=24).map(str.encode)))
        lines.append(key + b"=" + value)
    return b"\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(data=config_bytes())
def test_load_config_returns_config_or_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(data)
    try:
        config = load_config(path)
    except ConfigError:
        return
    assert isinstance(config, PipelineConfig)
