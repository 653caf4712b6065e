"""Command-line front end.

Commands cover the whole pipeline: synthesize data, train, predict,
evaluate relations and rationales, induce rules, run rule sets, and
inspect single-instance explanations.  File-producing commands leave a
manifest next to their primary output.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import __version__
from .attribution import METHODS, AttributionError, attribute
from .corpus import (
    CorpusError,
    NO_RELATION,
    load_corpus,
    save_corpus,
)
from .evalmetrics import (
    EvalError,
    ec_overlap,
    load_annotations,
    plausibility,
    rc_micro,
)
from .io import (
    IOFormatError,
    RunManifest,
    load_predictions,
    load_train_config,
    save_predictions,
)
from .neural.model import (
    ABLATE_GATE,
    ABLATE_RATIONALE,
    CheckpointError,
    Model,
    Prediction,
    SequenceTooLongError,
)
from .rulegen import (
    GenConfig,
    RuleGenError,
    TEST_PREDICTED,
    TRAIN_GOLD,
    generate_ruleset,
    merge_rulesets,
)
from .rules import RuleError, annotate_explanations, first_match, load_rules, save_rules
from .synth import GeneratorError, GeneratorSpec, gen_synthetic, load_generator_spec, seed_rules
from .trainer import TrainConfig, TrainingError, train as run_training

_DOMAIN_ERRORS = (
    CorpusError,
    RuleError,
    TrainingError,
    EvalError,
    GeneratorError,
    RuleGenError,
    AttributionError,
    CheckpointError,
    SequenceTooLongError,
    IOFormatError,
    OSError,
)


def _wrap_errors(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _DOMAIN_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc
    return inner


def _split_option():
    return click.option(
        "--split", default="test", show_default=True,
        type=click.Choice(["train", "dev", "test"]), help="Corpus split to use.",
    )


def _load_split(data: str, split: str):
    corpus = load_corpus(data)
    instances = corpus.split(split)
    if not instances:
        raise click.ClickException(f"split {split!r} in {data} is empty")
    return list(instances)


@click.group()
@click.version_option(version=__version__, prog_name="rexl")
def main() -> None:
    """Relation extraction with faithful token-level explanations."""


@main.command("gen-data")
@click.option("--out", required=True, type=click.Path(file_okay=False),
              help="Output directory for the split files.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="YAML generator spec; defaults apply when omitted.")
@click.option("--seed", default=13, show_default=True, type=int)
@click.option("--rules-out", type=click.Path(dir_okay=False),
              help="Where to write the seed rules (default: OUT/manual_rules.txt).")
@_wrap_errors
def gen_data(out: str, config_path: Optional[str], seed: int,
             rules_out: Optional[str]) -> None:
    """Generate a synthetic corpus plus its seed rule file."""
    spec = load_generator_spec(config_path) if config_path else GeneratorSpec()
    manifest = RunManifest(command="gen-data", seed=seed, config={
        "relations": list(spec.relations),
        "train_size": spec.train_size,
        "dev_size": spec.dev_size,
        "test_size": spec.test_size,
        "rule_coverage": spec.rule_coverage,
        "negative_fraction": spec.negative_fraction,
    })
    if config_path:
        manifest.inputs.append(config_path)
    corpus = gen_synthetic(spec, seed)
    save_corpus(corpus, out)
    rules_path = Path(rules_out) if rules_out else Path(out) / "manual_rules.txt"
    rules_path.parent.mkdir(parents=True, exist_ok=True)
    save_rules(seed_rules(spec), rules_path)
    manifest.outputs += [str(Path(out) / f"{s}.jsonl") for s in ("train", "dev", "test")]
    manifest.outputs.append(str(rules_path))
    manifest.write(Path(out))
    click.echo(
        f"wrote {len(corpus.train)}/{len(corpus.dev)}/{len(corpus.test)} "
        f"instances and {len(seed_rules(spec))} rules to {out}"
    )


@main.command("train")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Checkpoint path to write.")
@click.option("--rules", "rules_path", type=click.Path(exists=True, dir_okay=False),
              help="Manual rule file supplying rationale supervision.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="YAML training config; defaults apply when omitted.")
@click.option("--ablate", type=click.Choice([ABLATE_GATE, ABLATE_RATIONALE]),
              help="Drop the gate head (nrc) or the rationale head (ec).")
@click.option("--log", "log_path", type=click.Path(dir_okay=False),
              help="Epoch log path (default: OUT.log.jsonl).")
@_wrap_errors
def train_cmd(data: str, out: str, rules_path: Optional[str],
              config_path: Optional[str], ablate: Optional[str],
              log_path: Optional[str]) -> None:
    """Train a model; rule matches on the train split become supervision."""
    config = load_train_config(config_path) if config_path else TrainConfig()
    corpus = load_corpus(data)
    annotations = {}
    if rules_path:
        annotations = annotate_explanations(load_rules(rules_path), corpus.train)
    manifest = RunManifest(command="train", seed=config.model.seed,
                           config=config.to_dict())
    manifest.inputs.append(data)
    if rules_path:
        manifest.inputs.append(rules_path)
    if config_path:
        manifest.inputs.append(config_path)
    model, log = run_training(corpus, annotations, config, ablate=ablate)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    model.save(out)
    log_file = Path(log_path) if log_path else Path(out + ".log.jsonl")
    log.save(log_file)
    manifest.outputs += [out, str(log_file)]
    manifest.write(Path(out))
    last = log.records[-1]
    click.echo(
        f"trained {last.epoch} epochs on {len(corpus.train)} instances "
        f"({len(annotations)} rule-annotated); dev F1 {last.dev_f1:.4f}; "
        f"checkpoint {out}"
    )


@main.command("predict")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@_split_option()
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--threshold", default=0.5, show_default=True, type=float,
              help="Gate probability needed to call a relation present.")
@_wrap_errors
def predict_cmd(data: str, split: str, model_path: str, out: str,
                threshold: float) -> None:
    """Write model predictions for a split as JSON lines."""
    instances = _load_split(data, split)
    model = Model.load(model_path)
    manifest = RunManifest(command="predict", seed=model.config.seed,
                           config={"split": split, "threshold": threshold})
    manifest.inputs += [data, model_path]
    predictions = model.predict_batch(instances, nrc_threshold=threshold)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    save_predictions(out, predictions)
    manifest.outputs.append(out)
    manifest.write(Path(out))
    positive = sum(1 for p in predictions if p.label != NO_RELATION)
    click.echo(f"wrote {len(predictions)} predictions ({positive} positive) to {out}")


def _report_out(report, out: Optional[str], manifest: RunManifest) -> None:
    click.echo(report.to_text())
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        manifest.outputs.append(out)
        manifest.write(Path(out))


@main.command("eval-rc")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@_split_option()
@click.option("--pred", "pred_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False),
              help="Optional JSON report path.")
@_wrap_errors
def eval_rc(data: str, split: str, pred_path: str, out: Optional[str]) -> None:
    """Micro precision/recall/F1 over relation labels."""
    instances = _load_split(data, split)
    preds = load_predictions(pred_path)
    gold = {inst.id: inst.gold_relation for inst in instances}
    predicted = {iid: rec["label"] for iid, rec in preds.items()}
    report = rc_micro(predicted, gold)
    manifest = RunManifest(command="eval-rc", config={"split": split})
    manifest.inputs += [data, pred_path]
    _report_out(report, out, manifest)


@main.command("eval-ec")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@_split_option()
@click.option("--pred", "pred_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--rules", "rules_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Rule file whose matches define gold rationales.")
@click.option("--out", type=click.Path(dir_okay=False))
@_wrap_errors
def eval_ec(data: str, split: str, pred_path: str, rules_path: str,
            out: Optional[str]) -> None:
    """Rationale overlap against rule-derived gold rationales.

    Only instances where some rule agrees with the gold label are scored.
    """
    instances = _load_split(data, split)
    preds = load_predictions(pred_path)
    rules = load_rules(rules_path)
    gold_expl = annotate_explanations(rules, instances)
    gold = {iid: sorted(expl.ones()) for iid, expl in gold_expl.items()}
    predicted = {iid: rec["rationale"] for iid, rec in preds.items()}
    report = ec_overlap(predicted, gold)
    manifest = RunManifest(command="eval-ec", config={"split": split})
    manifest.inputs += [data, pred_path, rules_path]
    _report_out(report, out, manifest)


@main.command("eval-plausibility")
@click.option("--pred", "pred_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--annotations", "ann_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON lines with two annotator token sets per instance.")
@click.option("--out", type=click.Path(dir_okay=False))
@_wrap_errors
def eval_plausibility(pred_path: str, ann_path: str, out: Optional[str]) -> None:
    """Best-of-two-annotators rationale agreement."""
    preds = load_predictions(pred_path)
    annotations = load_annotations(ann_path)
    predicted = {iid: rec["rationale"] for iid, rec in preds.items()}
    report = plausibility(predicted, annotations)
    manifest = RunManifest(command="eval-plausibility", config={})
    manifest.inputs += [pred_path, ann_path]
    _report_out(report, out, manifest)


@main.command("gen-rules")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--split", type=click.Choice(["train", "dev", "test"]),
              help="Defaults to train for gold mode, test for predicted mode.")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", required=True, type=click.Choice(["gold", "predicted"]),
              help="gold: gold labels on the source split; predicted: model labels.")
@click.option("--manual", "manual_path", type=click.Path(exists=True, dir_okay=False),
              help="Manual rules; instances they match are skipped in gold mode.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--threshold", default=0.5, show_default=True, type=float)
@_wrap_errors
def gen_rules(data: str, split: Optional[str], model_path: str, mode: str,
              manual_path: Optional[str], out: str, threshold: float) -> None:
    """Induce syntactic rules from model rationales."""
    source = TRAIN_GOLD if mode == "gold" else TEST_PREDICTED
    if split is None:
        split = "train" if mode == "gold" else "test"
    instances = _load_split(data, split)
    model = Model.load(model_path)
    manual = load_rules(manual_path) if manual_path else None
    ruleset = generate_ruleset(
        model, instances, manual, GenConfig(source=source),
        nrc_threshold=threshold,
    )
    manifest = RunManifest(command="gen-rules",
                           config={"mode": mode, "split": split,
                                   "threshold": threshold})
    manifest.inputs += [data, model_path]
    if manual_path:
        manifest.inputs.append(manual_path)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    save_rules(ruleset, out)
    manifest.outputs.append(out)
    manifest.write(Path(out))
    click.echo(f"induced {len(ruleset)} rules from {len(instances)} instances -> {out}")


@main.command("run-rules")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@_split_option()
@click.option("--rules", "rules_paths", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Rule files; repeat to merge, earlier files take priority.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--merged-out", type=click.Path(dir_okay=False),
              help="Optional path for the merged rule set.")
@_wrap_errors
def run_rules(data: str, split: str, rules_paths: tuple[str, ...], out: str,
              merged_out: Optional[str]) -> None:
    """Predict a split with rule sets merged in argument order."""
    instances = _load_split(data, split)
    merged = merge_rulesets([load_rules(p) for p in rules_paths])
    manifest = RunManifest(command="run-rules", config={"split": split})
    manifest.inputs += [data, *rules_paths]
    predictions = []
    for inst in instances:
        first = first_match(merged, inst)
        if first is not None:
            predictions.append(Prediction(
                instance_id=inst.id,
                label=first.label,
                rationale=tuple(sorted(first.trigger_tokens)),
                gate_prob=None,
            ))
        else:
            predictions.append(Prediction(
                instance_id=inst.id, label=NO_RELATION, rationale=(), gate_prob=None,
            ))
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    save_predictions(out, predictions)
    manifest.outputs.append(out)
    if merged_out:
        save_rules(merged, merged_out)
        manifest.outputs.append(merged_out)
    manifest.write(Path(out))
    matched = sum(1 for p in predictions if p.label != NO_RELATION)
    click.echo(
        f"{len(merged)} merged rules matched {matched}/{len(predictions)} "
        f"instances -> {out}"
    )


@main.command("explain")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False))
@_split_option()
@click.option("--id", "instance_id", required=True, help="Instance id to explain.")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--method", default="ours", show_default=True,
              type=click.Choice(["ours", *METHODS]))
@click.option("--topn", default=5, show_default=True, type=int,
              help="Tokens to keep for the baseline methods.")
@click.option("--out", type=click.Path(dir_okay=False),
              help="Optional JSON output path.")
@_wrap_errors
def explain(data: str, split: str, instance_id: str, model_path: str,
            method: str, topn: int, out: Optional[str]) -> None:
    """Show which tokens drive the prediction for one instance."""
    instances = _load_split(data, split)
    by_id = {inst.id: inst for inst in instances}
    if instance_id not in by_id:
        raise click.ClickException(f"no instance {instance_id!r} in split {split!r}")
    inst = by_id[instance_id]
    model = Model.load(model_path)
    if method == "ours":
        pred = model.predict(inst)
        label = pred.label
        selected = sorted(pred.rationale)
        extra = "" if pred.gate_prob is None else f" (gate {pred.gate_prob:.3f})"
    else:
        probs = model.all_context_distribution(inst)
        label = model.class_labels[int(np.argmax(probs))]
        selected = sorted(attribute(method, model, inst, n=topn))
        extra = f" (p {float(np.max(probs)):.3f})"

    chosen = set(selected)
    shown = []
    for i, form in enumerate(inst.forms()):
        if i in inst.subj_indices:
            form = f"[S:{form}]"
        elif i in inst.obj_indices:
            form = f"[O:{form}]"
        if i in chosen:
            form = f"*{form}*"
        shown.append(form)
    click.echo(f"{inst.id}: {label}{extra} [{method}]")
    click.echo(" ".join(shown))
    if out:
        record = {
            "id": inst.id,
            "method": method,
            "label": label,
            "selected": selected,
            "tokens": list(inst.forms()),
        }
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
        manifest = RunManifest(command="explain",
                               config={"method": method, "topn": topn})
        manifest.inputs += [data, model_path]
        manifest.outputs.append(out)
        manifest.write(Path(out))


if __name__ == "__main__":
    main(prog_name="rexl")
