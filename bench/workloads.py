"""The two workloads of the rexl benchmark and the runner that drives them.

A run sets up (``gen-data``, plus ``train`` on ``serve``), trains on
``acceptance``, then repeats whole rounds of the rest of the README
pipeline until the rounds have taken ``seconds`` and at least two have
run.  Every ``rexl`` subcommand runs in-process through the click entry
point; attribution runs through ``rexl.attribution.attribute``.  A traced
run does its training step and its rounds twice, the first copy untraced
and the second traced: their difference is the tracing overhead, and the
traced copy must write the same bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

import yaml

import checks
from spans import Tracer, install, summarize

EXPLAIN_IDS = ("test-00000", "test-00007", "test-00042")
ATTRIBUTION_METHODS = ("attention", "saliency", "occlusion", "greedy")
# the first test instances, in file order; each of a round's three timings
# of a method takes the next third, so every round attributes all of them
ATTRIBUTION_SAMPLE = 192
ATTRIBUTION_SLICE = ATTRIBUTION_SAMPLE // len(EXPLAIN_IDS)
ATTRIBUTION_TOPN = 5
# passes over a slice per timing, so that each timing lasts 0.15 s or more
ATTRIBUTION_REPEATS = {"attention": 6, "saliency": 2, "occlusion": 1, "greedy": 1}
# induced rules in the timed merged run-rules stage: the first of gen_train
# then gen_test, half from each where both have enough.  The program
# induces 35 to 78 rules depending on the seed, and the stage's time grows
# with the count, so a fixed count keeps the seed out of the figure; the
# quality gates use a separate run with every induced rule.
INDUCED_RULES = 24
SEARCH_ORACLE_SAMPLE = 8  # the first unannotated positives of the train split
MIN_ROUNDS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    train_size: int
    dev_size: int
    test_size: int
    burn_in_epochs: int
    total_epochs: int
    setups: int
    train_in_setup: bool
    quality_floors: bool


WORKLOADS = {
    w.name: w
    for w in (
        # the README pipeline at its default size and training; the loss and
        # gradient step does most of the training work, latent search a quarter
        Workload(
            name="acceptance", train_size=2000, dev_size=400, test_size=500,
            burn_in_epochs=3, total_epochs=10, setups=5, train_in_setup=False,
            quality_floors=True,
        ),
        # a model trained briefly in set-up, then inference, the rule engine
        # and corpus loading at 5000 test instances, with no backward pass.
        # One set-up: it trains for about 15 s, long enough to be steady
        # alone; a traced run adds a second, traced copy.
        Workload(
            name="serve", train_size=2000, dev_size=400, test_size=5000,
            burn_in_epochs=3, total_epochs=5, setups=1, train_in_setup=True,
            quality_floors=False,
        ),
    )
}


class Runner:
    """Runs operations, counts them, and collects failed checks."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        from rexl.cli import main

        self._main = main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    @contextlib.contextmanager
    def tracing(self, on: bool):
        if self.tracer is None or not on:
            yield
            return
        self.tracer.enabled = True
        try:
            yield
        finally:
            self.tracer.enabled = False

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, stage: str, args: list[str]) -> Optional[float]:
        """One rexl subcommand in-process; its wall time, or None if it failed."""
        self.attempted += 1
        gc.collect()
        with self.span(f"op.{stage}"), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                self._main.main(args=args, prog_name="rexl", standalone_mode=False)
            except Exception as exc:  # one failed operation must not end the run
                self.failed += 1
                self.note(f"FAILED rexl {' '.join(args)}: {exc!r}")
                return None
            seconds = time.perf_counter() - start
        self.note(f"{stage:10s} {seconds:8.3f} s")
        return seconds

    def check(self, what: str, fn, *args):
        """``fn(*args)``, or None with a recorded problem if it raised: a
        check that fails, or an output that an earlier failed stage left
        missing or unreadable."""
        try:
            return fn(*args)
        except Exception as exc:
            self.problems.append(f"{what}: {exc!r}")
            self.note(f"CHECK FAILED {what}: {exc!r}")
            return None


def _rate(count: float, seconds: list[Optional[float]]) -> float:
    """Median work per second over the samples that succeeded; 0.0 when
    none did.  A median, because a slow spell of the machine now and then
    lands on one sample of a sub-second stage."""
    done = [count / t for t in seconds if t]
    return statistics.median(done) if done else 0.0


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, out: Path) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = out
        self.tracer = Tracer() if trace else None
        if self.tracer:
            install(self.tracer)
        self.r = Runner(self.tracer)
        self.data = out / "setup-0" / "data"
        self.manual = out / "setup-0" / "manual_rules.txt"

    # ------------------------------------------------------------------
    # inputs

    def write_configs(self) -> None:
        cfg = self.out / "config"
        cfg.mkdir(parents=True)
        (cfg / "gen.yaml").write_text(yaml.safe_dump({
            "train_size": self.w.train_size,
            "dev_size": self.w.dev_size,
            "test_size": self.w.test_size,
        }))
        (cfg / "train.yaml").write_text(yaml.safe_dump({
            "burn_in_epochs": self.w.burn_in_epochs,
            "total_epochs": self.w.total_epochs,
            "model": {"seed": self.seed},
        }))

    def setup(self, root: Path) -> tuple[Optional[float], Optional[float]]:
        """gen-data, plus training on serve; (set-up seconds, train seconds)."""
        gen = self.r.cli("gen-data", [
            "gen-data", "--out", str(root / "data"),
            "--config", str(self.out / "config" / "gen.yaml"), "--seed", str(self.seed),
            "--rules-out", str(root / "manual_rules.txt"),
        ])
        if not self.w.train_in_setup:
            return gen, None
        train = self.train(root / "data", root / "manual_rules.txt", root)
        if gen is None or train is None:
            return None, train
        return gen + train, train

    def train(self, data: Path, rules: Path, root: Path) -> Optional[float]:
        root.mkdir(exist_ok=True)
        return self.r.cli("train", [
            "train", "--data", str(data), "--out", str(root / "model.ckpt"),
            "--rules", str(rules), "--config", str(self.out / "config" / "train.yaml"),
        ])

    # ------------------------------------------------------------------
    # one round of the README pipeline after training

    def round(self, root: Path, ckpt: Path) -> dict:
        """Each stage once, with the three explain calls and the three timings
        of each attribution method spread through the round, so that a slow
        spell of the machine does not land on all samples of one metric."""
        from rexl.corpus import load_instances
        from rexl.neural import Model

        root.mkdir(parents=True)
        data, manual, model_path = str(self.data), str(self.manual), str(ckpt)
        o = {name: str(root / name) for name in (
            "preds.jsonl", "ec.json", "gen_train.txt", "gen_test.txt", "gen_train_head.txt",
            "gen_test_head.txt", "rules_manual.jsonl", "merged_manual.txt",
            "rules_merged.jsonl", "merged.txt",
        )}
        # None if an earlier stage failed; each attribution then fails and counts
        model = self.r.check("load checkpoint", Model.load, ckpt)
        sample = self.r.check("load attribution sample", lambda: load_instances(
            self.data / "test.jsonl")[:ATTRIBUTION_SAMPLE])
        cli = self.r.cli
        t: dict = {"explain": [], "attribution": {m: [] for m in ATTRIBUTION_METHODS}}

        def explain_and_attribute(i: int) -> None:
            iid = EXPLAIN_IDS[i]
            t["explain"].append(cli("explain", [
                "explain", "--data", data, "--split", "test", "--id", iid,
                "--model", model_path, "--out", str(root / f"explain-{iid}.json")]))
            part = sample and sample[i * ATTRIBUTION_SLICE:(i + 1) * ATTRIBUTION_SLICE]
            for method in ATTRIBUTION_METHODS:
                t["attribution"][method].append(
                    self.attribute(method, model, part, root / f"attr-{method}-{i}.json"))

        t["predict"] = cli("predict", ["predict", "--data", data, "--split", "test",
                                       "--model", model_path, "--out", o["preds.jsonl"]])
        t["eval_ec"] = cli("eval-ec", ["eval-ec", "--data", data, "--split", "test",
                                       "--pred", o["preds.jsonl"], "--rules", manual,
                                       "--out", o["ec.json"]])
        explain_and_attribute(0)
        t["gen_gold"] = cli("gen-rules", ["gen-rules", "--data", data, "--model", model_path,
                                          "--mode", "gold", "--manual", manual,
                                          "--out", o["gen_train.txt"]])
        t["run_manual"] = cli("run-rules", ["run-rules", "--data", data, "--split", "test",
                                            "--rules", manual, "--out", o["rules_manual.jsonl"],
                                            "--merged-out", o["merged_manual.txt"]])
        explain_and_attribute(1)
        t["gen_predicted"] = cli("gen-rules", ["gen-rules", "--data", data,
                                               "--model", model_path, "--mode", "predicted",
                                               "--out", o["gen_test.txt"]])
        # a missing rule file makes the run-rules stage below fail and count
        self.r.check("cut induced rules", cut_induced_rules, root)
        t["run_merged"] = cli("run-rules", ["run-rules", "--data", data, "--split", "test",
                                            "--rules", manual, "--rules", o["gen_train_head.txt"],
                                            "--rules", o["gen_test_head.txt"],
                                            "--out", o["rules_merged.jsonl"],
                                            "--merged-out", o["merged.txt"]])
        explain_and_attribute(2)
        return t

    def attribute(self, method: str, model, sample, out: Path) -> tuple[Optional[float], int]:
        """One timing of ``method`` over the sample: its wall time, or None if
        it failed, and the number of attributions.  The results are written
        to ``out`` for checking."""
        from rexl.attribution import attribute

        self.r.attempted += 1
        gc.collect()
        with self.r.span(f"op.attribute-{method}"):
            start = time.perf_counter()
            try:
                if model is None or sample is None:
                    raise RuntimeError("no checkpoint or no sample to attribute")
                for _ in range(ATTRIBUTION_REPEATS[method]):
                    picked = [attribute(method, model, inst, ATTRIBUTION_TOPN) for inst in sample]
            except Exception as exc:  # counted like a failed CLI stage
                self.r.failed += 1
                self.r.note(f"FAILED attribute {method}: {exc!r}")
                return None, 0
            seconds = time.perf_counter() - start
        self.r.note(f"{'attr-' + method:14s} {seconds:8.3f} s")
        out.write_text(json.dumps(
            {inst.id: list(map(int, idx)) for inst, idx in zip(sample, picked)}, sort_keys=True))
        return seconds, len(sample) * ATTRIBUTION_REPEATS[method]

    # ------------------------------------------------------------------

    def execute(self) -> dict:
        w, r, out = self.w, self.r, self.out
        self.write_configs()
        setup_s: list[Optional[float]] = []
        train_s: list[Optional[float]] = []
        # (untraced, traced) seconds of the steps a traced run does twice
        pairs: list[tuple[Optional[float], Optional[float]]] = []
        setups = w.setups
        if self.trace and w.train_in_setup:
            setups += 1  # the traced copy of the set-up that trains
        for i in range(setups):
            # a traced run traces its last set-up only
            with r.tracing(i == setups - 1):
                s, t = self.setup(out / f"setup-{i}")
            setup_s.append(s)
            train_s.append(t)
        if self.trace and w.train_in_setup:
            pairs.append((setup_s[-2], setup_s[-1]))

        ckpt = out / "setup-0" / "model.ckpt"
        if not w.train_in_setup:
            ckpt = out / "train-0" / "model.ckpt"
            train_s = [self.train(self.data, self.manual, out / "train-0")]
            if self.trace:
                with r.tracing(True):
                    pairs.append((train_s[0], self.train(self.data, self.manual, out / "train-1")))

        rounds = []
        started = time.perf_counter()
        while True:
            with r.tracing(len(rounds) == 1):
                rounds.append(self.round(out / f"round-{len(rounds)}", ckpt))
            if len(rounds) < MIN_ROUNDS:
                continue
            if self.trace or time.perf_counter() - started >= self.seconds:
                break

        # before the checks, which hold the test split twice and predict it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.verify(ckpt, len(rounds))

        if self.trace:
            metrics = summarize(self.tracer, w.burn_in_epochs)
            pairs.append((_round_seconds(rounds[0]), _round_seconds(rounds[1])))
            untraced = sum(a for a, b in pairs if a and b)
            traced = sum(b for a, b in pairs if a and b)
            metrics["trace.untraced_s"] = untraced
            metrics["trace.traced_s"] = traced
            metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced if untraced else 0.0
            self.tracer.restore()
            self.tracer.write(out.parent / f"trace-{w.name}-s{self.seed}.json")
            return metrics
        return self.end_to_end(setup_s, train_s, rounds, peak_rss_mb)

    def end_to_end(self, setup_s, train_s, rounds, peak_rss_mb: float) -> dict:
        """Each throughput is the median over rounds of one round's work over
        its time; every round does the same work."""
        w = self.w
        n_test, n_train = w.test_size, w.train_size

        def over_rounds(key: str) -> list[Optional[float]]:
            return [rd[key] for rd in rounds]

        rulegen = [g + p for g, p in zip(over_rounds("gen_gold"), over_rounds("gen_predicted"))
                   if g and p]
        explain = [s for rd in rounds for s in rd["explain"] if s]
        metrics = {
            "setup_s": statistics.median([s for s in setup_s if s] or [0.0]),
            "peak_rss_mb": peak_rss_mb,
            "train_inst_per_s": _rate(n_train * w.total_epochs, train_s),
            "predict_inst_per_s": _rate(n_test, over_rounds("predict")),
            "eval_ec_inst_per_s": _rate(n_test, over_rounds("eval_ec")),
            "rulegen_inst_per_s": _rate(n_train + n_test, rulegen),
            "run_rules_manual_inst_per_s": _rate(n_test, over_rounds("run_manual")),
            "run_rules_merged_inst_per_s": _rate(n_test, over_rounds("run_merged")),
            "explain_s": statistics.median(explain or [0.0]),
        }
        for method in ATTRIBUTION_METHODS:
            # a round's three timings together cover the whole sample once
            per_round = [rd["attribution"][method] for rd in rounds]
            metrics[f"attr_{method}_inst_per_s"] = statistics.median([
                sum(n for s, n in timings) / sum(s for s, n in timings)
                for timings in per_round if all(s for s, n in timings)] or [0.0])
        return metrics

    # ------------------------------------------------------------------

    def verify(self, ckpt: Path, n_rounds: int) -> None:
        """Every check on the outputs.  A check whose inputs an earlier failed
        stage left missing records a problem instead of ending the run."""
        from rexl.corpus import load_instances
        from rexl.neural import Model

        w, r, out = self.w, self.r, self.out
        round0 = out / "round-0"

        for i in range(1, len(list(out.glob("setup-*")))):
            r.check(f"setup-{i} outputs", checks.check_identical, out / "setup-0", out / f"setup-{i}")
        for i in range(1, n_rounds):
            r.check(f"round-{i} outputs", checks.check_identical, round0, out / f"round-{i}")
        if (out / "train-1").exists():
            r.check("traced training outputs", checks.check_identical,
                    out / "train-0", out / "train-1")
        r.check("training log", checks.check_train_log, Path(str(ckpt) + ".log.jsonl"),
                w.total_epochs, w.burn_in_epochs)

        test_records = r.check("read test split", checks.read_jsonl, self.data / "test.jsonl")
        test = r.check("load test split", load_instances, self.data / "test.jsonl")
        if test_records is None or test is None:
            return
        by_id = {rec["id"]: rec for rec in test_records}

        # every induced rule, for the quality gates
        induced = [round0 / "gen_train.txt", round0 / "gen_test.txt"]
        r.cli("run-rules", ["run-rules", "--data", str(self.data), "--split", "test",
                            "--rules", str(self.manual), "--rules", str(induced[0]),
                            "--rules", str(induced[1]), "--out", str(out / "rules_all.jsonl")])
        # eval-rc reports, recomputed from the prediction files
        scores = {}
        for name, pred in (("preds", round0 / "preds.jsonl"),
                           ("rules_manual", round0 / "rules_manual.jsonl"),
                           ("rules_all", out / "rules_all.jsonl")):
            report = out / f"rc-{name}.json"
            r.cli("eval-rc", ["eval-rc", "--data", str(self.data), "--split", "test",
                              "--pred", str(pred), "--out", str(report)])
            scores[name] = r.check(f"eval-rc on {name}", checks.check_rc_report,
                                   pred, test_records, report)

        r.check("predictions", checks.check_predictions, round0 / "preds.jsonl", test_records)
        # the rule files in run-rules argument order, not the program's merge
        r.check("manual rules first match", lambda: checks.check_first_match(
            round0 / "rules_manual.jsonl", checks.rules_in_order([self.manual]), test))
        for name, pred, files in (
                ("merged", round0 / "rules_merged.jsonl",
                 [round0 / "gen_train_head.txt", round0 / "gen_test_head.txt"]),
                ("all", out / "rules_all.jsonl", induced)):
            rules = r.check(f"read {name} rules", checks.rules_in_order, [self.manual, *files])
            if rules is not None:
                r.note(f"{name} rules: {len(rules)}")
                r.check(f"{name} rules first match", checks.check_first_match, pred, rules, test)
        for iid in EXPLAIN_IDS:
            r.check(f"explain {iid}", lambda i: checks.check_explain(
                round0 / f"explain-{i}.json", by_id[i]), iid)
        for method in ATTRIBUTION_METHODS:
            for i in range(len(EXPLAIN_IDS)):
                r.check(f"attribution {method}", lambda p: checks.check_attribution(
                    [(by_id[iid], idx) for iid, idx in json.loads(p.read_text()).items()],
                    ATTRIBUTION_TOPN), round0 / f"attr-{method}-{i}.json")

        neural, manual, merged = scores["preds"], scores["rules_manual"], scores["rules_all"]
        if w.quality_floors and neural:
            r.check("test F1", checks.check_at_least, "test F1", neural[2], 0.90)
            ec = r.check("eval-ec report", lambda p: json.loads(p.read_text())["f1"],
                         round0 / "ec.json")
            if ec is not None:
                r.check("EC overlap", checks.check_at_least, "EC overlap", ec, 0.90)
        if neural and manual and merged:
            r.note(f"F1 neural {neural[2]:.4f} manual-rule {manual[2]:.4f} merged-rule "
                   f"{merged[2]:.4f}; recall manual-rule {manual[1]:.4f} merged-rule {merged[1]:.4f}")
            r.check("merged-rule recall", checks.check_merged_recall, manual[1], merged[1])
            # The program misses this gate on some corpus seeds and not on
            # others (CHANGES.md, FOUND), so a miss is reported here and
            # left out of ``correct``, which must not depend on the seed.
            try:
                checks.check_rule_f1_gap(merged[2], neural[2])
            except checks.CheckError as exc:
                r.note(f"KNOWN DEFECT, not counted in correct: {exc}")

        model = r.check("load checkpoint", Model.load, ckpt)
        if model is None:
            return
        gc.collect()
        with r.tracing(True), r.span("bench.predict_b256"):
            b256 = r.check("predict_batch(256)", lambda: model.predict_batch(test, batch_size=256))
        if b256 is not None:
            r.check("predict vs predict_batch(256)", checks.check_same_labels,
                    round0 / "preds.jsonl", b256)
        # the widest thresholds make every context token ambiguous, so each
        # instance has up to 64 candidates however confident the model is
        r.check("select_candidate oracle", lambda: checks.check_search_oracle(
            model, self.search_sample(), 0.0, 1.0, 64))

    def search_sample(self) -> list:
        """The first unannotated positives of the train split."""
        from rexl.corpus import NO_RELATION, load_instances
        from rexl.rules import annotate_explanations, load_rules

        train = load_instances(self.data / "train.jsonl")
        annotated = annotate_explanations(load_rules(self.manual), train)
        sample = [inst for inst in train
                  if inst.gold_relation != NO_RELATION and inst.id not in annotated]
        return sample[:SEARCH_ORACLE_SAMPLE]


def cut_induced_rules(root: Path) -> None:
    """Write the first ``INDUCED_RULES`` induced rules of a round as
    ``gen_train_head.txt`` and ``gen_test_head.txt``."""
    from rexl.rules import RuleSet, load_rules, save_rules

    train, test = load_rules(root / "gen_train.txt"), load_rules(root / "gen_test.txt")
    a = min(len(train), max(INDUCED_RULES - len(test), INDUCED_RULES // 2))
    b = min(len(test), INDUCED_RULES - a)
    save_rules(RuleSet(train.rules[:a]), root / "gen_train_head.txt")
    save_rules(RuleSet(test.rules[:b]), root / "gen_test_head.txt")


def _round_seconds(rd: dict) -> float:
    total = sum(s for key in ("predict", "eval_ec", "gen_gold", "gen_predicted",
                              "run_manual", "run_merged") if (s := rd[key]))
    total += sum(s for s in rd["explain"] if s)
    total += sum(s for times in rd["attribution"].values() for s, n in times if s)
    return total
