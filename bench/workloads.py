"""Workload definitions for the latentscope benchmark.

A workload is a plain dict, so bench/run.py can read it without importing
latentscope; `build_config` turns one into a `PipelineConfig` inside the
child process. Class ids follow `latentscope.data`: NOR=0, MCI=1, AD=3.

Every workload keeps the ten planted AD regions of
`tests/conftest.py::AD_EFFECTS`. Relative to the configurations they were
taken from, only `max_epochs` is cut on `study` (10 to 1) and `large-volume`
(2 to 1), so that every run fits the benchmark's time budget (see
bench/README.md).
"""

AD_EFFECTS = [(2, 3, 0.40), (5, 3, 0.30), (7, 3, 0.20), (11, 3, 0.35),
              (13, 3, 0.25), (17, 3, 0.40), (19, 3, 0.30), (23, 3, 0.20),
              (26, 3, 0.35), (29, 3, 0.25)]

ALL_METHODS = ("pca", "pls", "tsne", "umap")

WORKLOADS = {
    # tests/conftest.py::study_config, the reference run; conv kernels dominate.
    "study": dict(dims=(32, 32, 32), regions=32,
                  class_counts={0: 40, 1: 40, 3: 40}, loss="mse", epochs=1,
                  methods=ALL_METHODS, comparisons=("NOR_AD", "NOR_MCI"),
                  lrcp_gate=True),
    # Many small volumes: the analysis layers (t-SNE, UMAP, forest + SHAP,
    # LRCP over 64 regions) dominate and nn is bound by per-call overhead.
    "cohort-analysis": dict(dims=(16, 16, 16), regions=64,
                            class_counts={0: 120, 1: 120, 3: 120}, loss="mse",
                            epochs=2, methods=ALL_METHODS,
                            comparisons=("NOR_AD", "NOR_MCI"), lrcp_gate=True),
    # Few large volumes: conv working set far beyond L2, SSIM in the loss,
    # and every stage reloads 64^3 volumes.
    "large-volume": dict(dims=(64, 64, 64), regions=32,
                         class_counts={0: 12, 3: 12}, loss="combined",
                         epochs=1, methods=("pca", "pls"),
                         comparisons=("NOR_AD",), lrcp_gate=False),
    # Seconds-long configuration used only by bench/selftest.py.
    "tiny": dict(dims=(16, 16, 16), regions=32,
                 class_counts={0: 8, 1: 8, 3: 8}, loss="combined", epochs=1,
                 methods=ALL_METHODS, comparisons=("NOR_AD", "NOR_MCI"),
                 lrcp_gate=False),
}

BATCH_SIZE = 8
CLASS_IDS = {"NOR": 0, "MCI": 1, "MCIc": 2, "AD": 3}


def voxels(spec) -> int:
    x, y, z = spec["dims"]
    return x * y * z


def subjects_trained(spec) -> dict[str, int]:
    """Training-set size per comparison: the balanced subset of its pair."""
    out = {}
    for name in spec["comparisons"]:
        a, b = (CLASS_IDS[c] for c in name.split("_"))
        out[name] = 2 * min(spec["class_counts"][a], spec["class_counts"][b])
    return out


def working_set_mb(spec) -> dict[str, float]:
    """Computed sizes: the float64 cohort array the trainer stacks, and the
    largest single conv layer's input plus output at one training batch."""
    n = sum(spec["class_counts"].values())
    chain = [spec["dims"]]
    for _ in range(3):
        chain.append(tuple((d - 1) // 2 + 1 for d in chain[-1]))
    channels = (1, 16, 32, 64)

    def size(level):
        x, y, z = chain[level]
        return channels[level] * x * y * z

    layer = max(size(i) + size(i + 1) for i in range(3))
    return {"cohort_f64_mb": round(n * voxels(spec) * 8 / 2**20, 2),
            "conv_layer_batch_mb": round(BATCH_SIZE * layer * 8 / 2**20, 2)}


def build_config(spec, seed: int):
    """The `PipelineConfig` of a workload; every seed derives from `seed`."""
    from latentscope.autoencoder import TrainConfig
    from latentscope.config import EmbedConfig, PipelineConfig
    from latentscope.phantom import PhantomConfig

    return PipelineConfig(
        phantom=PhantomConfig(dims=spec["dims"], region_count=spec["regions"],
                              class_counts=dict(spec["class_counts"]),
                              effect_spec=list(AD_EFFECTS),
                              noise_sigma=0.05, smoothness=2.0, seed=seed),
        train=TrainConfig(loss_kind=spec["loss"], max_epochs=spec["epochs"],
                          patience=10, batch_size=BATCH_SIZE, seed=seed),
        embed=EmbedConfig(methods=spec["methods"], layers=("L1", "L2", "L3"),
                          components=3),
        comparisons=spec["comparisons"],
        seed=seed,
    )
