"""Spans around the public functions of each rexl layer, kept in memory.

The tracer patches a function wherever a loaded ``rexl`` module binds it,
because modules import each other's functions by name (``rexl.neural.model``
calls its own ``encoder_forward``, not ``rexl.neural.net.encoder_forward``).
A span records its name, start, end and the span that was open when it
began; spans that share a root belong to one benchmark operation.  Timed
runs never install the wrappers; in a traced run a paused tracer costs
each wrapped call one flag test.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Optional

# categories an ancestor span can put a span in, as bit flags
IN_TRAIN = 1
IN_ATTRIBUTE = 2
IN_MATCH = 4
IN_CANDIDATES = 8
IN_B256 = 16
IN_PREDICT_OP = 32

_CATEGORY = {
    "trainer.train": IN_TRAIN,
    "attribution.attribute": IN_ATTRIBUTE,
    "rules.match_rule": IN_MATCH,
    "rules.match_all": IN_MATCH,
    "model.candidate_scores": IN_CANDIDATES,
    "bench.predict_b256": IN_B256,
    "op.predict": IN_PREDICT_OP,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.notes.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI stage."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.notes[idx] = note(args, kwargs, out)
            return out
        return traced

    # ------------------------------------------------------------------
    # patching

    def patch_function(self, fn: Callable, name: str,
                       note: Optional[Callable] = None) -> None:
        """Replace ``fn`` under every name a loaded rexl module binds it to."""
        wrapper = self.wrap(name, fn, note)
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rexl" or mod_name.startswith("rexl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"{name}: no rexl module binds {fn!r}")

    def patch_method(self, cls: type, attr: str, name: str,
                     note: Optional[Callable] = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, note))
        else:
            replacement = self.wrap(name, raw, note)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent, note], in open order."""
        rows = [
            [n, s, e, p, note]
            for n, s, e, p, note in zip(self.names, self.starts, self.ends,
                                        self.parents, self.notes)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")),
                        encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every rexl layer the benchmark reports."""
    # importing the CLI first binds every name it imports, so the scan in
    # patch_function finds those bindings too
    import rexl.cli  # noqa: F401
    from rexl import attribution, corpus, io, rulegen, rules, trainer
    from rexl.neural import model, net, optim

    def real_slots(args, kwargs, _out):
        mask = kwargs["mask"] if "mask" in kwargs else args[4]
        return [float(mask.sum()), int(mask.size)]

    def candidate_count(args, kwargs, out):
        scores = list(args[0])
        t_low = kwargs.get("t_low", args[1] if len(args) > 1 else None)
        t_up = kwargs.get("t_up", args[2] if len(args) > 2 else None)
        cap = kwargs.get("cap", args[3] if len(args) > 3 else 256)
        ambiguous = sum(1 for s in scores if t_low <= s <= t_up)
        return [len(out), 2 ** ambiguous > cap]

    def not_none(_args, _kwargs, out):
        return out is not None

    def row_count(args, kwargs, _out):
        return len(kwargs["candidates"] if "candidates" in kwargs else args[2])

    fn = tracer.patch_function
    fn(corpus.load_corpus, "corpus.load_corpus")
    fn(corpus.mask_entities, "corpus.mask_entities")
    fn(corpus.shortest_dep_path, "corpus.shortest_dep_path")
    fn(rules.match_rule, "rules.match_rule", not_none)
    fn(rules.match_all, "rules.match_all")
    fn(rulegen.generate_rule, "rulegen.generate_rule", not_none)
    fn(trainer.train, "trainer.train")
    fn(trainer.generate_candidates, "trainer.generate_candidates", candidate_count)
    fn(trainer.select_candidate, "trainer.select_candidate")
    fn(attribution.attribute, "attribution.attribute")
    fn(io.save_predictions, "io.save_predictions")
    fn(io.load_predictions, "io.load_predictions")
    fn(net.encoder_forward, "net.encoder_forward", real_slots)
    fn(net.encoder_backward, "net.encoder_backward")
    fn(net.layer_norm_forward, "net.layer_norm_forward")
    fn(net.layer_norm_backward, "net.layer_norm_backward")
    fn(net.gelu_forward, "net.gelu_forward")
    fn(net.gelu_backward, "net.gelu_backward")
    fn(net.softmax, "net.softmax")
    method = tracer.patch_method
    method(corpus.TokenVocab, "build", "corpus.TokenVocab.build")
    method(model.Model, "encode", "model.encode")
    method(model.Model, "rationale_scores", "model.rationale_scores")
    method(model.Model, "candidate_scores", "model.candidate_scores", row_count)
    method(model.Model, "relation_probs", "model.relation_probs")
    method(model.Model, "loss_and_grads", "model.loss_and_grads")
    method(model.Model, "predict_batch", "model.predict_batch")
    method(model.Model, "save", "model.save")
    method(model.Model, "load", "model.load")
    method(optim.AdamW, "step", "optim.step")


def summarize(tracer: Tracer, burn_in_epochs: int) -> dict[str, float]:
    """Per-layer totals over every span recorded so far.

    Spans under ``bench.predict_b256`` (the batch-256 comparison) count
    only towards the ``*_b256`` figures.  ``burn_in_epochs`` tells the
    epoch phases apart inside each traced training run.
    """
    names, starts, ends, parents, notes = (
        tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.notes,
    )
    n = len(names)
    ctx = [0] * n
    child_s = [0.0] * n
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    fwd_in_candidates = 0.0
    candidate_rows = 0
    search_s = 0.0
    searched = candidates = cap_hits = 0
    match_hits = rules_induced = vocab_builds = relation_probs_calls = 0
    real = slots = real_b256 = slots_b256 = real_b32 = slots_b32 = 0.0
    fwd_b256_s = fwd_b32_s = predict_b32_s = 0.0
    epoch_ends: dict[int, list[float]] = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            ctx[i] = ctx[p] | _CATEGORY.get(names[p], 0)
        dur = ends[i] - starts[i]
        if p >= 0:
            child_s[p] += dur
        name = names[i]
        c = ctx[i]
        if name == "model.predict_batch" and p >= 0 and names[p] == "trainer.train":
            epoch_ends.setdefault(p, []).append(ends[i])
        if c & IN_B256:
            if name == "net.encoder_forward":
                fwd_b256_s += dur
                real_b256 += notes[i][0]
                slots_b256 += notes[i][1]
            continue
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        if name == "net.encoder_forward":
            real += notes[i][0]
            slots += notes[i][1]
            if c & IN_CANDIDATES:
                fwd_in_candidates += dur
            if c & IN_PREDICT_OP:
                fwd_b32_s += dur
                real_b32 += notes[i][0]
                slots_b32 += notes[i][1]
        elif name == "model.candidate_scores":
            candidate_rows += notes[i]
        elif name == "model.predict_batch" and c & IN_PREDICT_OP:
            predict_b32_s += dur
        elif name == "rules.match_rule":
            match_hits += bool(notes[i])
        elif name == "rulegen.generate_rule":
            rules_induced += bool(notes[i])
        elif name == "corpus.TokenVocab.build" and c & IN_MATCH:
            vocab_builds += 1
        elif name == "model.relation_probs" and c & IN_ATTRIBUTE:
            relation_probs_calls += 1
        if c & IN_TRAIN and name in ("model.encode", "model.rationale_scores",
                                     "trainer.generate_candidates",
                                     "trainer.select_candidate"):
            search_s += dur
            if name == "trainer.select_candidate":
                searched += 1
            elif name == "trainer.generate_candidates":
                candidates += notes[i][0]
                cap_hits += bool(notes[i][1])

    burn_in_epochs_s: list[float] = []
    ssl_epochs_s: list[float] = []
    for train_idx, marks in epoch_ends.items():
        previous = starts[train_idx]
        for epoch, end in enumerate(marks, start=1):
            (burn_in_epochs_s if epoch <= burn_in_epochs else ssl_epochs_s).append(end - previous)
            previous = end

    self_fwd = 0.0
    for i in range(n):
        if names[i] == "net.encoder_forward" and not ctx[i] & IN_B256:
            self_fwd += ends[i] - starts[i] - child_s[i]

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    cand_s = t("model.candidate_scores")
    return {
        "corpus.load_s": t("corpus.load_corpus"),
        "corpus.mask_calls": count.get("corpus.mask_entities", 0),
        "corpus.mask_s": t("corpus.mask_entities"),
        "corpus.dep_path_calls": count.get("corpus.shortest_dep_path", 0),
        "corpus.dep_path_s": t("corpus.shortest_dep_path"),
        "rules.match_calls": count.get("rules.match_rule", 0),
        "rules.match_hits": match_hits,
        "rules.match_hit_ratio": match_hits / count["rules.match_rule"]
        if count.get("rules.match_rule") else 0.0,
        "rules.match_s": t("rules.match_rule"),
        "rules.vocab_builds": vocab_builds,
        "rulegen.rule_calls": count.get("rulegen.generate_rule", 0),
        "rulegen.rule_s": t("rulegen.generate_rule"),
        "rulegen.rules_induced": rules_induced,
        "trainer.search_s": search_s,
        "trainer.searched": searched,
        "trainer.candidates": candidates,
        "trainer.cap_hits": cap_hits,
        "trainer.burn_in_epoch_s": mean(burn_in_epochs_s),
        "trainer.ssl_epoch_s": mean(ssl_epochs_s),
        "model.step_s": t("model.loss_and_grads"),
        "model.candidate_rows_per_s": candidate_rows / cand_s if cand_s else 0.0,
        "model.candidate_overhead_s": cand_s - fwd_in_candidates,
        "model.predict_s": t("model.predict_batch"),
        "model.predict_b32_s": predict_b32_s,
        "model.predict_b256_s": t("bench.predict_b256"),
        "model.save_s": t("model.save"),
        "model.load_s": t("model.load"),
        "net.fwd_calls": count.get("net.encoder_forward", 0),
        "net.fwd_s": t("net.encoder_forward"),
        "net.fwd_self_s": self_fwd,
        "net.bwd_s": t("net.encoder_backward"),
        "net.layer_norm_s": t("net.layer_norm_forward"),
        "net.gelu_s": t("net.gelu_forward"),
        "net.softmax_s": t("net.softmax"),
        "net.layer_norm_bwd_s": t("net.layer_norm_backward"),
        "net.gelu_bwd_s": t("net.gelu_backward"),
        "net.pad_efficiency": real / slots if slots else 0.0,
        "net.pad_efficiency_b32": real_b32 / slots_b32 if slots_b32 else 0.0,
        "net.pad_efficiency_b256": real_b256 / slots_b256 if slots_b256 else 0.0,
        "net.fwd_b32_s": fwd_b32_s,
        "net.fwd_b256_s": fwd_b256_s,
        "optim.step_s": t("optim.step"),
        "attribution.relation_probs_calls": relation_probs_calls,
        "io.save_predictions_s": t("io.save_predictions"),
        "io.load_predictions_s": t("io.load_predictions"),
        "trace.spans": n,
    }
