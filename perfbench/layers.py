"""Per-layer metrics: names, units, the workloads each is defined on, and
their values from the spans of one traced round.

`.ms` is the inclusive time of a span name in one round, `.calls` its count
in one round. Per-sample metrics divide by the round's samples: training
samples times epochs on the training workloads, evaluated test samples plus
orientation samples on infer-orient. `<layer>.self_ms_per_sample` is a
layer's span time minus the time of its child spans.
"""

from __future__ import annotations

from hooks import LAYERS

TRAIN_DENSE, TRAIN_CVR, INFER = "train-dense", "train-cvr", "infer-orient"
ALL = {TRAIN_DENSE, TRAIN_CVR, INFER}
TRAIN = {TRAIN_DENSE, TRAIN_CVR}
DENSE = {TRAIN_DENSE, INFER}

# The autodiff ops production code calls, and the workloads that call them.
OPS = {
    "conv2d": ALL,
    "upsample2": DENSE,
    "matmul": ALL,
    "add": ALL,
    "mul": TRAIN,
    "stack": ALL,
    "reshape": ALL,
    "relu": ALL,
    "bias_channels": ALL,
    "channel_max": ALL,
    "crop_spatial": DENSE,
    "slice_index": DENSE,
    "cosine_sim": DENSE,
    "concat_channels": DENSE,
    "transpose_axes": DENSE,
    "softmax_flat": DENSE,
    "logsumexp": {TRAIN_DENSE},
    "t_sum": TRAIN,
    "linear": {TRAIN_CVR},
    "tanh": {TRAIN_CVR},
    "concat_vec": {TRAIN_CVR},
}
# Ops whose output no loss depends on: their backward never runs.
NO_BACKWARD = {"softmax_flat"}

# Spans that only set-up runs; their metrics come from the traced set-up.
SETUP_SPANS = ("synthdata.gen_world", "synthdata.sample_pair", "synthdata.write_dataset")


def decoder_keys(stages: int):
    return [f"up{t}" for t in range(stages)] + [f"conv{t}" for t in range(stages)] + ["out"]


def per_layer_spec(stages: int):
    """[(name, unit, workloads where it must be non-zero)], in report order."""
    spec = [
        ("autodiff.backward.ms_per_sample", "ms", TRAIN),
        ("autodiff.adam_step.ms", "ms", TRAIN),
        ("autodiff.adam_step.calls_per_epoch", "count", TRAIN),
        ("autodiff.ops_per_sample", "count", TRAIN),
    ]
    for op, on in OPS.items():
        spec.append((f"autodiff.{op}.calls", "count", on))
        spec.append((f"autodiff.{op}.ms", "ms", on))
        spec.append((f"autodiff.{op}.backward_ms", "ms", set() if op in NO_BACKWARD else on & TRAIN))
    spec += [
        ("model.encode_satellite.ms", "ms", ALL),
        ("model.encode_ground.ms", "ms", ALL),
        ("model.safa_aggregate.ms", "ms", ALL),
        ("model.split_descriptors.ms", "ms", DENSE),
        ("model.matching_map.ms", "ms", DENSE),
        ("model.fuse_bottleneck.ms", "ms", DENSE),
        ("model.decode_heatmap.ms", "ms", DENSE),
    ]
    spec += [(f"model.decode_heatmap.{k}.ms", "ms", DENSE) for k in decoder_keys(stages)]
    spec += [
        ("losses.total_loss.ms", "ms", {TRAIN_DENSE}),
        ("losses.gaussian_target.ms", "ms", {TRAIN_DENSE}),
        ("baseline.descriptor_pair.ms", "ms", {TRAIN_CVR}),
        ("baseline.cvr_forward.ms", "ms", {TRAIN_CVR}),
        ("baseline.cvr_loss.ms", "ms", {TRAIN_CVR}),
        ("baseline.calibrate_input_stats.ms", "ms", {TRAIN_CVR}),
        ("evaluation.evaluate_heatmap_model.ms", "ms", {INFER}),
        ("evaluation.classify_orientation.ms_per_call", "ms", {INFER}),
        ("evaluation.orientation_perturb.ms_per_call", "ms", {INFER}),
        ("synthdata.gen_world.ms", "ms", ALL),
        ("synthdata.sample_pair.ms", "ms", ALL),
        ("synthdata.write_dataset.ms", "ms", ALL),
        ("synthdata.read_dataset.ms", "ms", ALL),
        ("synthdata.shift_panorama.calls", "count", {INFER}),
        ("checkpoint.save_params.ms", "ms", TRAIN),
        ("checkpoint.save_params.calls", "count", TRAIN),
        ("checkpoint.save_params.bytes", "B", TRAIN),
    ]
    self_on = {"losses": {TRAIN_DENSE}, "baseline": {TRAIN_CVR}, "evaluation": {INFER}}
    spec += [(f"{layer}.self_ms_per_sample", "ms", self_on.get(layer, ALL)) for layer in LAYERS]
    spec += [
        ("trace.wall_ms", "ms", ALL),
        ("trace.untraced_ms", "ms", set()),
        ("trace.overhead_ms", "ms", set()),
    ]
    return spec


def per_layer_values(summary, setup_summary, rnd) -> dict:
    """Metric values of one traced round (`trace.overhead_ms` is left to the
    caller, which also times the untraced rounds)."""

    def ms(name, s=summary):
        return s.total_s.get(name, 0.0) * 1e3

    def per(x, n):
        return x / n if n else 0.0

    calls = summary.calls
    fb = rnd.fb_samples
    v = {
        "autodiff.backward.ms_per_sample": per(ms("autodiff.backward"), fb),
        "autodiff.adam_step.ms": ms("autodiff.adam_step"),
        "autodiff.adam_step.calls_per_epoch": per(calls.get("autodiff.adam_step", 0), rnd.epochs),
        "autodiff.ops_per_sample": per(summary.tape_nodes, fb),
    }
    for op in OPS:
        v[f"autodiff.{op}.calls"] = calls.get(f"autodiff.{op}", 0)
        v[f"autodiff.{op}.ms"] = ms(f"autodiff.{op}")
        v[f"autodiff.{op}.backward_ms"] = ms(f"autodiff.{op}:backward")
    v["model.encode_satellite.ms"] = ms("model.encode_image[s_enc]")
    v["model.encode_ground.ms"] = ms("model.encode_image[g_enc]")
    for fn in ("safa_aggregate", "split_descriptors", "matching_map", "fuse_bottleneck", "decode_heatmap"):
        v[f"model.{fn}.ms"] = ms(f"model.{fn}")
    for key in decoder_keys(summary.stages):
        v[f"model.decode_heatmap.{key}.ms"] = ms(f"decoder.{key}")
    for name in (
        "losses.total_loss",
        "losses.gaussian_target",
        "baseline.descriptor_pair",
        "baseline.cvr_forward",
        "baseline.cvr_loss",
        "baseline.calibrate_input_stats",
        "evaluation.evaluate_heatmap_model",
        "synthdata.read_dataset",
        "checkpoint.save_params",
    ):
        v[f"{name}.ms"] = ms(name)
    for name in ("evaluation.classify_orientation", "evaluation.orientation_perturb"):
        v[f"{name}.ms_per_call"] = per(ms(name), calls.get(name, 0))
    for name in SETUP_SPANS:
        v[f"{name}.ms"] = ms(name, setup_summary)
    v["synthdata.shift_panorama.calls"] = calls.get("synthdata.shift_panorama", 0)
    v["checkpoint.save_params.calls"] = calls.get("checkpoint.save_params", 0)
    v["checkpoint.save_params.bytes"] = summary.saved_bytes
    for layer in LAYERS:
        v[f"{layer}.self_ms_per_sample"] = per(summary.self_s.get(layer, 0.0) * 1e3, rnd.samples)
    v["trace.wall_ms"] = summary.wall_s * 1e3
    v["trace.untraced_ms"] = summary.untraced_s * 1e3
    return v
