"""Synthetic relation corpus generator with controllable rule coverage.

Sentences come from hand-built templates carrying full dependency trees.
Relations are grouped so that each entity-type signature is shared by two
relations, which makes the label depend on context words rather than
entity types alone.  Per relation, a subset of templates is "covered":
exactly those match the seed rules returned by :func:`seed_rules`.  The
covered fraction of positive instances is hit exactly (per-relation
rounding aside), so requesting 25% coverage lands within a point of it.

Uncovered templates are built never to match a seed rule, but several
reuse covered trigger words in different constructions, leaving a lexical
trail from the annotated to the unannotated portion of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, NO_RELATION, RelationInstance, Token
from .io import check_config, read_yaml_config
from .rules import RuleSet, parse_rules

PERSON = "PERSON"
CITY = "CITY"
ORG = "ORGANIZATION"


class GeneratorError(Exception):
    pass


@dataclass(frozen=True)
class Element:
    kind: str  # "subj", "obj" or "word"
    forms: tuple[str, ...]
    head: int  # element index, -1 for root
    deprel: str
    pos: str
    ner: str = "O"


def _w(forms: str, head: int, deprel: str, pos: str, ner: str = "O") -> Element:
    return Element("word", tuple(forms.split("|")), head, deprel, pos, ner)


def _subj(head: int, deprel: str) -> Element:
    return Element("subj", (), head, deprel, "NNP")


def _obj(head: int, deprel: str) -> Element:
    return Element("obj", (), head, deprel, "NNP")


@dataclass(frozen=True)
class Template:
    name: str
    relation: str
    subj_type: str
    obj_type: str
    covered: bool
    elements: tuple[Element, ...]


_LEMMAS = {
    "was": "be", "is": "be", "born": "bear", "died": "die", "works": "work",
    "serves": "serve", "married": "marry", "graduated": "graduate",
    "founded": "found", "started": "start", "studied": "study",
    "attended": "attend", "employed": "employ", "passed": "pass",
    "likes": "like", "enjoys": "enjoy", "writes": "write", "paints": "paint",
    "sings": "sing", "gave": "give", "met": "meet", "visited": "visit",
    "toured": "tour", "criticized": "criticize", "praised": "praise",
    "invited": "invite", "hosted": "host", "thanked": "thank",
    "congratulated": "congratulate", "mentioned": "mention",
    "discussed": "discuss", "appointed": "appoint", "resigned": "resign",
    "retired": "retire", "spoke": "speak", "left": "leave",
    "expanded": "expand", "grew": "grow", "thrived": "thrive",
    "teaches": "teach", "travels": "travel", "greeted": "greet",
}


def _lemma(form: str) -> str:
    return _LEMMAS.get(form, form.lower())


_FIRST_NAMES = (
    "Alice", "Marco", "Yuki", "Priya", "Samuel", "Ingrid", "Tomas", "Leila",
    "Viktor", "Amara", "Noor", "Jonas", "Elena", "Farid", "Greta", "Hassan",
    "Irene", "Kenji", "Lucia", "Mateo",
)
_LAST_NAMES = (
    "Navarro", "Okafor", "Lindgren", "Tanaka", "Petrov", "Alvarez", "Kaur",
    "Bauer", "Ito", "Moreau", "Silva", "Novak",
)
_CITIES = (
    "Lisbon", "Osaka", "Tallinn", "Cusco", "Valencia", "Tunis", "Bergen",
    "Adelaide", "Quito", "Sapporo", "Gdansk", "Leipzig", "Marseille", "Brno",
)
_ORG_BASES = (
    "Zenith", "Novatek", "Brightline", "Corex", "Sunward", "Veltra",
    "Maplewood", "Quanta", "Halcyon", "Ridgeport",
)
_ORG_SUFFIXES = ("Industries", "University", "Institute", "College", "Group", "Systems")


RELATIONS = (
    "per:city_of_birth",
    "per:city_of_death",
    "per:children",
    "per:spouse",
    "per:employee_of",
    "per:schools_attended",
    "org:founded_by",
    "org:top_members",
)


def _templates() -> tuple[Template, ...]:
    t = []

    def add(name, relation, subj_type, obj_type, covered, elements):
        t.append(Template(name, relation, subj_type, obj_type, covered, tuple(elements)))

    # per:city_of_birth (PERSON, CITY)
    add("birth_plain", "per:city_of_birth", PERSON, CITY, True, [
        _subj(2, "nsubj"), _w("was", 2, "aux", "VBD"), _w("born", -1, "root", "VBN"),
        _w("in", 4, "case", "IN"), _obj(2, "obl"), _w(".", 2, "punct", "."),
    ])
    add("birth_city_of", "per:city_of_birth", PERSON, CITY, True, [
        _subj(2, "nsubj"), _w("was", 2, "aux", "VBD"), _w("born", -1, "root", "VBN"),
        _w("in", 5, "case", "IN"), _w("the", 5, "det", "DT"), _w("city", 2, "obl", "NN"),
        _w("of", 7, "case", "IN"), _obj(5, "nmod"), _w(".", 2, "punct", "."),
    ])
    add("birth_apposed", "per:city_of_birth", PERSON, CITY, False, [
        _subj(6, "nsubj"), _w(",", 2, "punct", ","), _w("born", 0, "acl", "VBN"),
        _w("in", 4, "case", "IN"), _obj(2, "obl"), _w(",", 2, "punct", ","),
        _w("writes|paints|sings", -1, "root", "VBZ"),
        _w("novels|portraits|ballads", 6, "obj", "NNS"), _w(".", 6, "punct", "."),
    ])
    add("birth_native", "per:city_of_birth", PERSON, CITY, False, [
        _subj(3, "nsubj"), _w("is", 3, "cop", "VBZ"), _w("a", 3, "det", "DT"),
        _w("native", -1, "root", "NN"), _w("of", 5, "case", "IN"), _obj(3, "nmod"),
        _w(".", 3, "punct", "."),
    ])

    # per:city_of_death (PERSON, CITY)
    add("death_adv", "per:city_of_death", PERSON, CITY, True, [
        _subj(1, "nsubj"), _w("died", -1, "root", "VBD"),
        _w("peacefully|unexpectedly|suddenly", 1, "advmod", "RB"),
        _w("in", 4, "case", "IN"), _obj(1, "obl"), _w(".", 1, "punct", "."),
    ])
    add("death_plain", "per:city_of_death", PERSON, CITY, True, [
        _subj(1, "nsubj"), _w("died", -1, "root", "VBD"), _w("in", 3, "case", "IN"),
        _obj(1, "obl"), _w(".", 1, "punct", "."),
    ])
    add("death_relative", "per:city_of_death", PERSON, CITY, False, [
        _subj(7, "nsubj"), _w(",", 3, "punct", ","), _w("who", 3, "nsubj", "WP"),
        _w("died", 0, "acl:relcl", "VBD"), _w("in", 5, "case", "IN"), _obj(3, "obl"),
        _w(",", 3, "punct", ","), _w("left", -1, "root", "VBD"), _w("a", 9, "det", "DT"),
        _w("fortune", 7, "obj", "NN"), _w(".", 7, "punct", "."),
    ])
    add("death_passed", "per:city_of_death", PERSON, CITY, False, [
        _subj(1, "nsubj"), _w("passed", -1, "root", "VBD"), _w("away", 1, "advmod", "RB"),
        _w("in", 4, "case", "IN"), _obj(1, "obl"), _w(".", 1, "punct", "."),
    ])

    # per:children (PERSON, PERSON); subject is the parent
    add("child_poss", "per:children", PERSON, PERSON, True, [
        _subj(2, "nmod:poss"), _w("'s", 0, "case", "POS"),
        _w("daughter|son", 6, "nsubj", "NN"), _w(",", 4, "punct", ","),
        _obj(2, "appos"), _w(",", 4, "punct", ","),
        _w("likes|enjoys", -1, "root", "VBZ"),
        _w("swimming|chess|painting", 6, "obj", "NN"), _w(".", 6, "punct", "."),
    ])
    add("child_copular", "per:children", PERSON, PERSON, False, [
        _obj(3, "nsubj"), _w("is", 3, "cop", "VBZ"), _w("the", 3, "det", "DT"),
        _w("daughter|son", -1, "root", "NN"), _w("of", 5, "case", "IN"),
        _subj(3, "nmod"), _w(".", 3, "punct", "."),
    ])
    add("child_parent", "per:children", PERSON, PERSON, False, [
        _subj(4, "nsubj"), _w("is", 4, "cop", "VBZ"), _w("the", 4, "det", "DT"),
        _w("proud", 4, "amod", "JJ"), _w("father|mother", -1, "root", "NN"),
        _w("of", 6, "case", "IN"), _obj(4, "nmod"), _w(".", 4, "punct", "."),
    ])

    # per:spouse (PERSON, PERSON)
    add("spouse_poss", "per:spouse", PERSON, PERSON, True, [
        _subj(2, "nmod:poss"), _w("'s", 0, "case", "POS"),
        _w("wife|husband", 6, "nsubj", "NN"), _w(",", 4, "punct", ","),
        _obj(2, "appos"), _w(",", 4, "punct", ","),
        _w("teaches|paints|travels", -1, "root", "VBZ"),
        _w("abroad|locally|daily", 6, "advmod", "RB"), _w(".", 6, "punct", "."),
    ])
    add("spouse_copular", "per:spouse", PERSON, PERSON, False, [
        _obj(3, "nsubj"), _w("is", 3, "cop", "VBZ"), _w("the", 3, "det", "DT"),
        _w("wife|husband", -1, "root", "NN"), _w("of", 5, "case", "IN"),
        _subj(3, "nmod"), _w(".", 3, "punct", "."),
    ])
    add("spouse_married", "per:spouse", PERSON, PERSON, False, [
        _subj(1, "nsubj"), _w("married", -1, "root", "VBD"), _obj(1, "obj"),
        _w("in", 4, "case", "IN"), _w("1990|1995|2003|2011", 1, "obl", "CD", "DATE"),
        _w(".", 1, "punct", "."),
    ])

    # per:employee_of (PERSON, ORGANIZATION)
    add("emp_verb", "per:employee_of", PERSON, ORG, True, [
        _subj(1, "nsubj"), _w("works|serves", -1, "root", "VBZ"),
        _w("for|at", 3, "case", "IN"), _obj(1, "obl"), _w(".", 1, "punct", "."),
    ])
    add("emp_adv", "per:employee_of", PERSON, ORG, True, [
        _subj(2, "nsubj"), _w("currently|still|now", 2, "advmod", "RB"),
        _w("works", -1, "root", "VBZ"), _w("for", 4, "case", "IN"), _obj(2, "obl"),
        _w(".", 2, "punct", "."),
    ])
    add("emp_hq", "per:employee_of", PERSON, ORG, False, [
        _subj(1, "nsubj"), _w("works", -1, "root", "VBZ"), _w("at", 4, "case", "IN"),
        _w("the", 4, "det", "DT"), _w("headquarters|offices", 1, "obl", "NN"),
        _w("of", 6, "case", "IN"), _obj(4, "nmod"), _w(".", 1, "punct", "."),
    ])
    add("emp_passive", "per:employee_of", PERSON, ORG, False, [
        _subj(2, "nsubj"), _w("is", 2, "aux", "VBZ"), _w("employed", -1, "root", "VBN"),
        _w("by", 4, "case", "IN"), _obj(2, "obl"), _w(".", 2, "punct", "."),
    ])

    # per:schools_attended (PERSON, ORGANIZATION)
    add("school_plain", "per:schools_attended", PERSON, ORG, True, [
        _subj(1, "nsubj"), _w("graduated", -1, "root", "VBD"), _w("from", 3, "case", "IN"),
        _obj(1, "obl"), _w(".", 1, "punct", "."),
    ])
    add("school_adv", "per:schools_attended", PERSON, ORG, True, [
        _subj(2, "nsubj"), _w("recently|eventually|finally", 2, "advmod", "RB"),
        _w("graduated", -1, "root", "VBD"), _w("from", 4, "case", "IN"), _obj(2, "obl"),
        _w(".", 2, "punct", "."),
    ])
    add("school_studied", "per:schools_attended", PERSON, ORG, False, [
        _subj(1, "nsubj"), _w("studied", -1, "root", "VBD"),
        _w("physics|law|history|biology", 1, "obj", "NN"), _w("at", 4, "case", "IN"),
        _obj(1, "obl"), _w(".", 1, "punct", "."),
    ])
    add("school_attended", "per:schools_attended", PERSON, ORG, False, [
        _subj(1, "nsubj"), _w("attended", -1, "root", "VBD"), _obj(1, "obj"),
        _w("for", 5, "case", "IN"), _w("two|three|four", 5, "nummod", "CD"),
        _w("years", 1, "obl", "NNS"), _w(".", 1, "punct", "."),
    ])

    # org:founded_by (ORGANIZATION, PERSON)
    add("found_plain", "org:founded_by", ORG, PERSON, True, [
        _subj(2, "nsubj"), _w("was", 2, "aux", "VBD"), _w("founded", -1, "root", "VBN"),
        _w("by", 4, "case", "IN"), _obj(2, "obl"), _w(".", 2, "punct", "."),
    ])
    add("found_year", "org:founded_by", ORG, PERSON, True, [
        _subj(2, "nsubj"), _w("was", 2, "aux", "VBD"), _w("founded", -1, "root", "VBN"),
        _w("in", 4, "case", "IN"), _w("1987|1994|2005|2012", 2, "obl", "CD", "DATE"),
        _w("by", 6, "case", "IN"), _obj(2, "obl"), _w(".", 2, "punct", "."),
    ])
    add("found_apposed", "org:founded_by", ORG, PERSON, False, [
        _subj(6, "nsubj"), _w(",", 2, "punct", ","), _w("founded", 0, "acl", "VBN"),
        _w("by", 4, "case", "IN"), _obj(2, "obl"), _w(",", 2, "punct", ","),
        _w("expanded|grew|thrived", -1, "root", "VBD"),
        _w("quickly|steadily|overseas", 6, "advmod", "RB"), _w(".", 6, "punct", "."),
    ])
    add("found_started", "org:founded_by", ORG, PERSON, False, [
        _obj(1, "nsubj"), _w("started", -1, "root", "VBD"), _subj(1, "obj"),
        _w("in", 4, "case", "IN"), _w("1983|1999|2008", 1, "obl", "CD", "DATE"),
        _w(".", 1, "punct", "."),
    ])

    # org:top_members (ORGANIZATION, PERSON); object leads the sentence
    add("top_apposed", "org:top_members", ORG, PERSON, True, [
        _obj(7, "nsubj"), _w(",", 3, "punct", ","), _w("the", 3, "det", "DT"),
        _w("president|chairman", 0, "appos", "NN"), _w("of", 5, "case", "IN"),
        _subj(3, "nmod"), _w(",", 3, "punct", ","),
        _w("resigned|retired|spoke", -1, "root", "VBD"),
        _w("yesterday|today|recently", 7, "advmod", "RB"), _w(".", 7, "punct", "."),
    ])
    add("top_copular", "org:top_members", ORG, PERSON, False, [
        _obj(3, "nsubj"), _w("is", 3, "cop", "VBZ"), _w("the", 3, "det", "DT"),
        _w("president|chairman", -1, "root", "NN"), _w("of", 5, "case", "IN"),
        _subj(3, "nmod"), _w(".", 3, "punct", "."),
    ])
    add("top_appointed", "org:top_members", ORG, PERSON, False, [
        _subj(1, "nsubj"), _w("appointed", -1, "root", "VBD"), _obj(1, "obj"),
        _w("as", 5, "case", "IN"), _w("chief|deputy", 5, "amod", "JJ"),
        _w("executive|director", 1, "obl", "NN"), _w(".", 1, "punct", "."),
    ])

    # distractors
    add("dist_meet", NO_RELATION, PERSON, PERSON, False, [
        _subj(1, "nsubj"), _w("met|greeted|thanked", -1, "root", "VBD"), _obj(1, "obj"),
        _w("at", 5, "case", "IN"), _w("a", 5, "det", "DT"),
        _w("conference|ceremony|reception", 1, "obl", "NN"), _w(".", 1, "punct", "."),
    ])
    add("dist_visit", NO_RELATION, PERSON, CITY, False, [
        _subj(1, "nsubj"), _w("visited|toured", -1, "root", "VBD"), _obj(1, "obj"),
        _w("last", 4, "amod", "JJ"), _w("summer|spring|month", 1, "obl", "NN"),
        _w(".", 1, "punct", "."),
    ])
    add("dist_speech", NO_RELATION, PERSON, CITY, False, [
        _subj(1, "nsubj"), _w("gave", -1, "root", "VBD"), _w("a", 3, "det", "DT"),
        _w("speech|lecture", 1, "obj", "NN"), _w("in", 5, "case", "IN"), _obj(1, "obl"),
        _w(".", 1, "punct", "."),
    ])
    add("dist_critic", NO_RELATION, PERSON, ORG, False, [
        _subj(1, "nsubj"), _w("criticized|praised", -1, "root", "VBD"), _obj(1, "obj"),
        _w("in", 5, "case", "IN"), _w("an", 5, "det", "DT"),
        _w("interview", 1, "obl", "NN"), _w(".", 1, "punct", "."),
    ])
    add("dist_mention", NO_RELATION, PERSON, ORG, False, [
        _subj(1, "nsubj"), _w("mentioned|discussed", -1, "root", "VBD"), _obj(1, "obj"),
        _w("on", 4, "case", "IN"), _w("television", 1, "obl", "NN"),
        _w(".", 1, "punct", "."),
    ])
    add("dist_invite", NO_RELATION, ORG, PERSON, False, [
        _subj(1, "nsubj"), _w("invited|hosted", -1, "root", "VBD"), _obj(1, "obj"),
        _w("to", 5, "case", "IN"), _w("a", 5, "det", "DT"),
        _w("ceremony|gala", 1, "obl", "NN"), _w(".", 1, "punct", "."),
    ])
    add("dist_congrat", NO_RELATION, ORG, PERSON, False, [
        _subj(1, "nsubj"), _w("thanked|congratulated", -1, "root", "VBD"), _obj(1, "obj"),
        _w("during", 5, "case", "IN"), _w("the", 5, "det", "DT"),
        _w("meeting", 1, "obl", "NN"), _w(".", 1, "punct", "."),
    ])
    return tuple(t)


TEMPLATES = _templates()

_SEED_RULES = {
    "per:city_of_birth": (
        "kind: surface\n"
        "label: per:city_of_birth\n"
        "pattern: SUBJ-PERSON was born in * OBJ-CITY"
    ),
    "per:city_of_death": (
        "kind: surface\n"
        "label: per:city_of_death\n"
        "pattern: SUBJ-PERSON died * in OBJ-CITY"
    ),
    "per:children": (
        "kind: syntactic\n"
        "label: per:children\n"
        "trigger: word=daughter|son\n"
        "subject: SUBJ_PERSON = >nmod:poss\n"
        "object: OBJ_PERSON = >appos"
    ),
    "per:spouse": (
        "kind: syntactic\n"
        "label: per:spouse\n"
        "trigger: word=wife|husband\n"
        "subject: SUBJ_PERSON = >nmod:poss\n"
        "object: OBJ_PERSON = >appos"
    ),
    "per:employee_of": (
        "kind: syntactic\n"
        "label: per:employee_of\n"
        "trigger: lemma=work|serve\n"
        "subject: SUBJ_PERSON = >nsubj\n"
        "object: OBJ_ORGANIZATION = >obl"
    ),
    "per:schools_attended": (
        "kind: surface\n"
        "label: per:schools_attended\n"
        "pattern: SUBJ-PERSON * graduated from OBJ-ORGANIZATION"
    ),
    "org:founded_by": (
        "kind: surface\n"
        "label: org:founded_by\n"
        "pattern: SUBJ-ORGANIZATION was founded * by OBJ-PERSON"
    ),
    "org:top_members": (
        "kind: syntactic\n"
        "label: org:top_members\n"
        "trigger: word=president|chairman\n"
        "subject: SUBJ_ORGANIZATION = >nmod\n"
        "object: OBJ_PERSON = <appos"
    ),
}


@dataclass(frozen=True)
class GeneratorSpec:
    relations: tuple[str, ...] = RELATIONS
    train_size: int = 2000
    dev_size: int = 400
    test_size: int = 500
    rule_coverage: float = 0.25
    negative_fraction: float = 0.4

    def __post_init__(self) -> None:
        if not self.relations:
            raise GeneratorError("need at least one relation")
        for r in self.relations:
            if r not in RELATIONS:
                raise GeneratorError(
                    f"unknown relation {r!r}; available: {', '.join(RELATIONS)}"
                )
            if not any(t.relation == r and t.covered for t in TEMPLATES):
                raise GeneratorError(f"relation {r!r} has no covered template")
        if len(set(self.relations)) != len(self.relations):
            raise GeneratorError("duplicate relations in spec")
        for name in ("train_size", "dev_size", "test_size"):
            if getattr(self, name) < 0:
                raise GeneratorError(f"{name} must be non-negative")
        if not (0.0 <= self.rule_coverage <= 1.0):
            raise GeneratorError("rule_coverage must be in [0, 1]")
        if not (0.0 <= self.negative_fraction < 1.0):
            raise GeneratorError("negative_fraction must be in [0, 1)")

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        data = dict(check_config(data, cls, "generator spec", GeneratorError))
        relations = data.pop("relations", None)
        if relations is None:
            rel_tuple = RELATIONS
        elif type(relations) is int:
            if not (1 <= relations <= len(RELATIONS)):
                raise GeneratorError(
                    f"relations count must be in 1..{len(RELATIONS)}"
                )
            rel_tuple = RELATIONS[:relations]
        elif isinstance(relations, (list, tuple)):
            rel_tuple = tuple(str(r) for r in relations)
        else:
            raise GeneratorError(
                f"relations must be a count or a list of names, got {relations!r}"
            )
        return cls(relations=rel_tuple, **data)


def load_generator_spec(path: str | Path) -> GeneratorSpec:
    """Read a YAML generator spec; every error names the file."""
    return read_yaml_config(path, GeneratorSpec.from_dict, GeneratorError)


def seed_rules(spec: GeneratorSpec) -> RuleSet:
    """The manual rules matching the covered templates of the chosen relations."""
    blocks = []
    for i, relation in enumerate(spec.relations, start=1):
        blocks.append(f"id: manual-{i:02d}\n{_SEED_RULES[relation]}")
    return parse_rules("\n\n".join(blocks) + "\n")


def _draw_entity(etype: str, rng: np.random.Generator) -> tuple[str, ...]:
    if etype == PERSON:
        first = _FIRST_NAMES[rng.integers(len(_FIRST_NAMES))]
        if rng.random() < 0.4:
            last = _LAST_NAMES[rng.integers(len(_LAST_NAMES))]
            return (first, last)
        return (first,)
    if etype == CITY:
        return (_CITIES[rng.integers(len(_CITIES))],)
    base = _ORG_BASES[rng.integers(len(_ORG_BASES))]
    if rng.random() < 0.5:
        suffix = _ORG_SUFFIXES[rng.integers(len(_ORG_SUFFIXES))]
        return (base, suffix)
    return (base,)


def _instantiate(template: Template, rng: np.random.Generator) -> RelationInstance:
    subj_tokens = _draw_entity(template.subj_type, rng)
    obj_tokens = _draw_entity(template.obj_type, rng)
    while obj_tokens == subj_tokens:
        obj_tokens = _draw_entity(template.obj_type, rng)

    expanded: list[tuple[str, str, str, int, str]] = []  # form,pos,ner,head_elem,deprel
    starts: list[int] = []
    subj_span = obj_span = (0, 0)
    for e in template.elements:
        starts.append(len(expanded))
        if e.kind == "word":
            form = e.forms[rng.integers(len(e.forms))] if len(e.forms) > 1 else e.forms[0]
            expanded.append((form, e.pos, e.ner, e.head, e.deprel))
        else:
            etype = template.subj_type if e.kind == "subj" else template.obj_type
            parts = subj_tokens if e.kind == "subj" else obj_tokens
            lo = len(expanded)
            expanded.append((parts[0], "NNP", etype, e.head, e.deprel))
            for part in parts[1:]:
                # extra entity tokens attach flat to the span head, this element's start
                expanded.append((part, "NNP", etype, len(starts) - 1, "flat"))
            span = (lo, len(expanded) - 1)
            if e.kind == "subj":
                subj_span = span
            else:
                obj_span = span

    tokens = tuple(
        Token(form=form, lemma=_lemma(form), pos=pos, ner=ner,
              head=None if head_elem == -1 else starts[head_elem], deprel=deprel)
        for form, pos, ner, head_elem, deprel in expanded)
    return RelationInstance(
        id="pending",
        tokens=tokens,
        subj_span=subj_span,
        obj_span=obj_span,
        subj_type=template.subj_type,
        obj_type=template.obj_type,
        gold_relation=template.relation,
    )


def _round_half_up(x: float) -> int:
    # round() would send 0.5 to the even side and starve small quotas
    return int(np.floor(x + 0.5))


def _split_instances(
    spec: GeneratorSpec,
    size: int,
    split: str,
    rng: np.random.Generator,
) -> list[RelationInstance]:
    relations = spec.relations
    n_neg = _round_half_up(size * spec.negative_fraction)
    n_pos = size - n_neg
    counts = {r: n_pos // len(relations) for r in relations}
    for r in relations[: n_pos % len(relations)]:
        counts[r] += 1

    type_pairs = {
        (t.subj_type, t.obj_type) for t in TEMPLATES
        if t.relation in relations
    }
    distractors = [
        t for t in TEMPLATES
        if t.relation == NO_RELATION and (t.subj_type, t.obj_type) in type_pairs
    ]
    if n_neg > 0 and not distractors:  # pragma: no cover - all pairs have one
        raise GeneratorError("no distractor templates for the chosen relations")

    out: list[RelationInstance] = []
    for relation in relations:
        covered = [t for t in TEMPLATES if t.relation == relation and t.covered]
        uncovered = [t for t in TEMPLATES if t.relation == relation and not t.covered]
        total = counts[relation]
        n_cov = _round_half_up(spec.rule_coverage * total)
        for k in range(total):
            pool = covered if k < n_cov else (uncovered or covered)
            template = pool[rng.integers(len(pool))]
            out.append(_instantiate(template, rng))
    for _ in range(n_neg):
        template = distractors[rng.integers(len(distractors))]
        out.append(_instantiate(template, rng))

    order = rng.permutation(len(out))
    shuffled = [out[i] for i in order]
    final = []
    for i, inst in enumerate(shuffled):
        final.append(RelationInstance(
            id=f"{split}-{i:05d}",
            tokens=inst.tokens,
            subj_span=inst.subj_span,
            obj_span=inst.obj_span,
            subj_type=inst.subj_type,
            obj_type=inst.obj_type,
            gold_relation=inst.gold_relation,
        ))
    return final


def gen_synthetic(spec: GeneratorSpec, seed: int) -> Corpus:
    """Deterministic synthetic corpus for the given spec and seed."""
    rng = np.random.default_rng(seed)
    train = _split_instances(spec, spec.train_size, "train", rng)
    dev = _split_instances(spec, spec.dev_size, "dev", rng)
    test = _split_instances(spec, spec.test_size, "test", rng)
    return Corpus.build(train, dev, test)
