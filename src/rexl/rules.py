"""Rule language for labelling relations, plus matching and annotation.

Two rule kinds share one file format.  A file is a sequence of blocks
separated by blank lines; lines starting with ``#`` are comments.  Each
block is a set of ``key: value`` lines.

Surface rules state a token pattern over the entity-masked sequence::

    id: manual-03
    kind: surface
    label: per:city_of_birth
    pattern: SUBJ-PERSON was born in * OBJ-CITY

``SUBJ-<TYPE>`` / ``OBJ-<TYPE>`` bind the typed entity placeholders, ``*``
is a gap matching any (possibly empty) token run, and every other element
is a literal that must equal the masked symbol at that position.

Syntactic rules state a trigger plus dependency paths from the trigger to
each entity::

    id: manual-07
    kind: syntactic
    label: per:children
    trigger: word=daughter|son
    subject: SUBJ_PERSON = >nmod:poss
    object: OBJ_PERSON = >appos

The trigger matches on ``word`` (case-sensitive) or ``lemma``
(case-insensitive), with ``|``-separated alternatives that may be
multi-word.  Path steps are ``<deprel`` (towards the root), ``>deprel``
(away from the root), with a ``?`` suffix marking the step optional.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .corpus import (
    DOWN,
    UP,
    DepPath,
    ExplanationLabels,
    MaskedSequence,
    NO_RELATION,
    PathStep,
    RelationInstance,
    SOURCE_RULE,
    shortest_dep_path,
    token_depth,
)

MANUAL = "manual"
GEN_TRAIN = "gen_train"
GEN_TEST = "gen_test"
_PROVENANCES = (MANUAL, GEN_TRAIN, GEN_TEST)

# surface pattern element kinds
LITERAL = "literal"
GAP = "gap"
SUBJ_SLOT = "subj"
OBJ_SLOT = "obj"


class RuleError(Exception):
    """Raised for unparseable or invalid rules."""


@dataclass(frozen=True)
class PatternElement:
    kind: str
    value: str = ""  # literal form, or entity type for the slots


@dataclass(frozen=True)
class SurfaceRule:
    id: str
    label: str
    elements: tuple[PatternElement, ...]
    provenance: str = MANUAL

    @property
    def kind(self) -> str:
        return "surface"

    @property
    def subj_type(self) -> str:
        return next(e.value for e in self.elements if e.kind == SUBJ_SLOT)

    @property
    def obj_type(self) -> str:
        return next(e.value for e in self.elements if e.kind == OBJ_SLOT)

    def validate(self) -> None:
        kinds = [e.kind for e in self.elements]
        if kinds.count(SUBJ_SLOT) != 1 or kinds.count(OBJ_SLOT) != 1:
            raise RuleError(f"rule {self.id}: pattern needs exactly one SUBJ and one OBJ slot")
        if LITERAL not in kinds:
            raise RuleError(f"rule {self.id}: pattern needs at least one literal element")
        for a, b in zip(kinds, kinds[1:]):
            if a == GAP and b == GAP:
                raise RuleError(f"rule {self.id}: adjacent gaps are redundant")
        if self.provenance not in _PROVENANCES:
            raise RuleError(f"rule {self.id}: unknown provenance {self.provenance!r}")
        if self.label == NO_RELATION:
            raise RuleError(f"rule {self.id}: rules must carry a positive label")


@dataclass(frozen=True)
class SyntacticRule:
    id: str
    label: str
    trigger_field: str  # "word" or "lemma"
    trigger_alternatives: tuple[tuple[str, ...], ...]
    subj_type: str
    subj_path: DepPath
    obj_type: str
    obj_path: DepPath
    provenance: str = MANUAL

    @property
    def kind(self) -> str:
        return "syntactic"

    def validate(self) -> None:
        if self.trigger_field not in ("word", "lemma"):
            raise RuleError(f"rule {self.id}: trigger field must be word or lemma")
        if not self.trigger_alternatives:
            raise RuleError(f"rule {self.id}: trigger needs at least one alternative")
        for alt in self.trigger_alternatives:
            if not alt or any(not w for w in alt):
                raise RuleError(f"rule {self.id}: empty trigger alternative")
        if not self.subj_path.steps or not self.obj_path.steps:
            raise RuleError(f"rule {self.id}: both argument paths need at least one step")
        if self.provenance not in _PROVENANCES:
            raise RuleError(f"rule {self.id}: unknown provenance {self.provenance!r}")
        if self.label == NO_RELATION:
            raise RuleError(f"rule {self.id}: rules must carry a positive label")


Rule = SurfaceRule | SyntacticRule


@dataclass(frozen=True)
class RuleMatch:
    rule_id: str
    instance_id: str
    label: str
    trigger_tokens: frozenset[int]  # original token indices, never entity positions


class RuleSet:
    """Ordered rule collection; earlier rules win when predictions conflict."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = tuple(rules)
        seen: set[str] = set()
        for rule in self.rules:
            rule.validate()
            if rule.id in seen:
                raise RuleError(f"duplicate rule id {rule.id!r}")
            seen.add(rule.id)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __getitem__(self, i: int) -> Rule:
        return self.rules[i]


# ---------------------------------------------------------------------------
# parsing and formatting


def _parse_pattern(text: str, rule_id: str) -> tuple[PatternElement, ...]:
    elements = []
    for piece in text.split():
        if piece == "*":
            elements.append(PatternElement(GAP))
        elif piece.startswith("SUBJ-") and len(piece) > 5:
            elements.append(PatternElement(SUBJ_SLOT, piece[5:].upper()))
        elif piece.startswith("OBJ-") and len(piece) > 4:
            elements.append(PatternElement(OBJ_SLOT, piece[4:].upper()))
        else:
            elements.append(PatternElement(LITERAL, piece))
    if not elements:
        raise RuleError(f"rule {rule_id}: empty pattern")
    return tuple(elements)


def _format_pattern(elements: Iterable[PatternElement]) -> str:
    out = []
    for e in elements:
        if e.kind == GAP:
            out.append("*")
        elif e.kind == SUBJ_SLOT:
            out.append(f"SUBJ-{e.value}")
        elif e.kind == OBJ_SLOT:
            out.append(f"OBJ-{e.value}")
        else:
            out.append(e.value)
    return " ".join(out)


def _parse_trigger(text: str, rule_id: str) -> tuple[str, tuple[tuple[str, ...], ...]]:
    if "=" not in text:
        raise RuleError(f"rule {rule_id}: trigger must look like word=... or lemma=...")
    field, _, rest = text.partition("=")
    field = field.strip()
    alternatives = []
    for alt in rest.split("|"):
        words = tuple(alt.split())
        if words:
            alternatives.append(words)
    return field, tuple(alternatives)


def _format_trigger(field: str, alternatives: Iterable[tuple[str, ...]]) -> str:
    return f"{field}=" + "|".join(" ".join(alt) for alt in alternatives)


_STEP_RE = re.compile(r"^([<>])(.+?)(\?)?$")


def parse_path(text: str, rule_id: str = "?") -> DepPath:
    """Parse a path expression like ``<acl? <nsubj`` into steps."""
    steps = []
    for piece in text.split():
        m = _STEP_RE.match(piece)
        if not m:
            raise RuleError(
                f"rule {rule_id}: path step {piece!r} must be <deprel or >deprel, optionally with ?"
            )
        direction = UP if m.group(1) == "<" else DOWN
        steps.append(PathStep(direction, m.group(2), optional=m.group(3) is not None))
    return DepPath(tuple(steps))


def format_path(path: DepPath) -> str:
    out = []
    for s in path.steps:
        marker = "<" if s.direction == UP else ">"
        out.append(f"{marker}{s.deprel}" + ("?" if s.optional else ""))
    return " ".join(out)


def _parse_argument(text: str, prefix: str, rule_id: str) -> tuple[str, DepPath]:
    if "=" not in text:
        raise RuleError(f"rule {rule_id}: argument must look like {prefix}TYPE = path")
    head, _, rest = text.partition("=")
    name = head.strip()
    if not name.startswith(prefix) or len(name) <= len(prefix):
        raise RuleError(f"rule {rule_id}: argument name {name!r} must start with {prefix}")
    path = parse_path(rest.strip(), rule_id)
    if not path.steps:
        raise RuleError(f"rule {rule_id}: argument path must have at least one step")
    return name[len(prefix):].upper(), path


_SURFACE_KEYS = {"id", "kind", "label", "pattern", "provenance"}
_SYNTACTIC_KEYS = {"id", "kind", "label", "trigger", "subject", "object", "provenance"}


def parse_rules(text: str) -> RuleSet:
    """Parse rule file content into an ordered RuleSet."""
    blocks: list[tuple[int, dict[str, str]]] = []
    current: dict[str, str] = {}
    current_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if current:
                blocks.append((current_line, current))
                current = {}
            continue
        if line.startswith("#"):
            continue
        if ":" not in line:
            raise RuleError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not current:
            current_line = lineno
        if key in current:
            raise RuleError(f"line {lineno}: duplicate key {key!r} in rule block")
        current[key] = value
    if current:
        blocks.append((current_line, current))

    rules: list[Rule] = []
    for lineno, block in blocks:
        where = f"block at line {lineno}"
        for required in ("id", "kind", "label"):
            if required not in block:
                raise RuleError(f"{where}: missing key {required!r}")
        rule_id = block["id"]
        kind = block["kind"]
        label = block["label"]
        provenance = block.get("provenance", MANUAL)
        if kind == "surface":
            extra = set(block) - _SURFACE_KEYS
            if extra:
                raise RuleError(f"{where}: unexpected keys {sorted(extra)} for a surface rule")
            if "pattern" not in block:
                raise RuleError(f"{where}: surface rule needs a pattern")
            rule: Rule = SurfaceRule(
                id=rule_id,
                label=label,
                elements=_parse_pattern(block["pattern"], rule_id),
                provenance=provenance,
            )
        elif kind == "syntactic":
            extra = set(block) - _SYNTACTIC_KEYS
            if extra:
                raise RuleError(f"{where}: unexpected keys {sorted(extra)} for a syntactic rule")
            for required in ("trigger", "subject", "object"):
                if required not in block:
                    raise RuleError(f"{where}: syntactic rule needs {required!r}")
            field, alternatives = _parse_trigger(block["trigger"], rule_id)
            subj_type, subj_path = _parse_argument(block["subject"], "SUBJ_", rule_id)
            obj_type, obj_path = _parse_argument(block["object"], "OBJ_", rule_id)
            rule = SyntacticRule(
                id=rule_id,
                label=label,
                trigger_field=field,
                trigger_alternatives=alternatives,
                subj_type=subj_type,
                subj_path=subj_path,
                obj_type=obj_type,
                obj_path=obj_path,
                provenance=provenance,
            )
        else:
            raise RuleError(f"{where}: unknown rule kind {kind!r}")
        rules.append(rule)
    return RuleSet(rules)


def load_rules(path: str | Path) -> RuleSet:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RuleError(f"cannot read rule file {path}: {exc}") from exc
    return parse_rules(text)


def format_rules(rules: RuleSet) -> str:
    blocks = []
    for rule in rules:
        lines = [f"id: {rule.id}", f"kind: {rule.kind}", f"provenance: {rule.provenance}",
                 f"label: {rule.label}"]
        if isinstance(rule, SurfaceRule):
            lines.append(f"pattern: {_format_pattern(rule.elements)}")
        else:
            lines.append(f"trigger: {_format_trigger(rule.trigger_field, rule.trigger_alternatives)}")
            lines.append(f"subject: SUBJ_{rule.subj_type} = {format_path(rule.subj_path)}")
            lines.append(f"object: OBJ_{rule.obj_type} = {format_path(rule.obj_path)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def save_rules(rules: RuleSet, path: str | Path) -> None:
    Path(path).write_text(format_rules(rules), encoding="utf-8")


# ---------------------------------------------------------------------------
# matching


def _match_surface(rule: SurfaceRule, inst: RelationInstance,
                   seq: Optional[MaskedSequence]) -> Optional[RuleMatch]:
    if rule.subj_type != inst.subj_type.upper() or rule.obj_type != inst.obj_type.upper():
        return None
    symbols = inst.masked_symbols if seq is None else seq.symbols
    n = len(symbols)
    subj_lo = inst.subj_span[0] + 1  # +1 for [CLS]
    subj_hi = inst.subj_span[1] + 1
    obj_lo = inst.obj_span[0] + 1
    obj_hi = inst.obj_span[1] + 1
    elements = rule.elements

    def match_from(ei: int, pos: int) -> Optional[list[int]]:
        """Return literal positions if elements[ei:] match starting at pos."""
        if ei == len(elements):
            return []
        e = elements[ei]
        if e.kind == LITERAL:
            if pos < n and symbols[pos] == e.value:
                rest = match_from(ei + 1, pos + 1)
                if rest is not None:
                    return [pos] + rest
            return None
        if e.kind == SUBJ_SLOT:
            if pos == subj_lo:
                return match_from(ei + 1, subj_hi + 1)
            return None
        if e.kind == OBJ_SLOT:
            if pos == obj_lo:
                return match_from(ei + 1, obj_hi + 1)
            return None
        # gap: shortest match first
        for skip in range(n - pos + 1):
            rest = match_from(ei + 1, pos + skip)
            if rest is not None:
                return rest
        return None

    for start in range(1, n + 1):  # [CLS] at 0 never participates
        literal_positions = match_from(0, start)
        if literal_positions is not None:
            # masked position p holds original token p - 1
            trigger = frozenset(p - 1 for p in literal_positions)
            return RuleMatch(rule.id, inst.id, rule.label, trigger)
    return None


def _path_matches(pattern: DepPath, actual: DepPath) -> bool:
    psteps = pattern.steps
    asteps = actual.steps

    def rec(pi: int, ai: int) -> bool:
        if pi == len(psteps):
            return ai == len(asteps)
        st = psteps[pi]
        if (
            ai < len(asteps)
            and asteps[ai].direction == st.direction
            and asteps[ai].deprel == st.deprel
            and rec(pi + 1, ai + 1)
        ):
            return True
        if st.optional and rec(pi + 1, ai):
            return True
        return False

    return rec(0, 0)


def _trigger_occurrences(rule: SyntacticRule, inst: RelationInstance) -> list[tuple[int, int]]:
    """(start, length) spans where some trigger alternative occurs, in start order."""
    entity = inst.entity_indices
    if rule.trigger_field == "word":
        values = [t.form for t in inst.tokens]
        alternatives = rule.trigger_alternatives
    else:
        values = [t.lemma.lower() for t in inst.tokens]
        alternatives = tuple(tuple(w.lower() for w in alt) for alt in rule.trigger_alternatives)
    found = []
    n = len(values)
    for start in range(n):
        for alt in alternatives:
            end = start + len(alt)
            if end > n:
                continue
            if any(i in entity for i in range(start, end)):
                continue
            if tuple(values[start:end]) == alt:
                found.append((start, len(alt)))
                break
    return found


def _match_syntactic(rule: SyntacticRule, inst: RelationInstance) -> Optional[RuleMatch]:
    if rule.subj_type != inst.subj_type.upper() or rule.obj_type != inst.obj_type.upper():
        return None
    for start, length in _trigger_occurrences(rule, inst):
        span = list(range(start, start + length))
        # anchor on the shallowest token of the occurrence, leftmost on ties
        anchor = min(span, key=lambda i: (token_depth(inst, i), i))
        subj_actual, _ = shortest_dep_path(inst, {anchor}, inst.subj_indices)
        if not _path_matches(rule.subj_path, subj_actual):
            continue
        obj_actual, _ = shortest_dep_path(inst, {anchor}, inst.obj_indices)
        if not _path_matches(rule.obj_path, obj_actual):
            continue
        return RuleMatch(rule.id, inst.id, rule.label, frozenset(span))
    return None


def match_rule(rule: Rule, inst: RelationInstance,
               seq: Optional[MaskedSequence] = None) -> Optional[RuleMatch]:
    """Match one rule against one instance.

    Surface rules work on the masked symbols; pass ``seq`` to reuse a
    masked sequence.  When a rule matches in several places only the first
    match (smallest trigger position) is reported.
    """
    if isinstance(rule, SurfaceRule):
        return _match_surface(rule, inst, seq)
    return _match_syntactic(rule, inst)


def _matches(rules: RuleSet, inst: RelationInstance) -> Iterator[RuleMatch]:
    for rule in rules:
        m = match_rule(rule, inst)
        if m is not None:
            yield m


def first_match(rules: RuleSet, inst: RelationInstance) -> Optional[RuleMatch]:
    """The match of the first rule in rule-set order that matches, if any;
    no later rule is tried."""
    return next(_matches(rules, inst), None)


def match_all(rules: RuleSet, inst: RelationInstance) -> list[RuleMatch]:
    """All matching rules for an instance, in rule-set order."""
    return list(_matches(rules, inst))


def predict_with_rules(rules: RuleSet, inst: RelationInstance) -> str:
    """Label from the first matching rule, NO_RELATION when none match."""
    m = first_match(rules, inst)
    return NO_RELATION if m is None else m.label


def annotate_explanations(rules: RuleSet, instances: Iterable[RelationInstance],
                          ) -> dict[str, ExplanationLabels]:
    """Rule-derived rationales for instances whose gold label some rule agrees with.

    The rationale for an instance is the union of trigger tokens over all
    matching rules whose label equals the instance's gold relation.
    Instances without such a match are absent from the result.
    """
    out: dict[str, ExplanationLabels] = {}
    for inst in instances:
        if inst.gold_relation == NO_RELATION:
            continue
        marked: set[int] = set()
        hit = False
        for m in match_all(rules, inst):
            if m.label == inst.gold_relation:
                hit = True
                marked |= m.trigger_tokens
        if not hit:
            continue
        bits = tuple(1 if i in marked else 0 for i in range(len(inst.tokens)))
        out[inst.id] = ExplanationLabels(bits=bits, source=SOURCE_RULE)
    return out
