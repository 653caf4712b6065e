"""Data model for annotated relation-extraction corpora.

A corpus is a set of JSON-lines files (train/dev/test), one record per
sentence, each carrying token-level annotation (POS, NER, dependency head
and label) plus a subject span, an object span and a gold relation label.
Spans are inclusive token-index pairs.  Heads are stored 1-based in the
files with 0 meaning the root; in memory they are 0-based with None for
the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .io import read_jsonl, write_jsonl

NO_RELATION = "no_relation"

PAD = "[PAD]"
CLS = "[CLS]"
UNK = "[UNK]"

UP = "up"
DOWN = "down"

# provenance values for explanation labels
SOURCE_RULE = "rule"
SOURCE_LATENT = "latent"

SPLITS = ("train", "dev", "test")

_REQUIRED_KEYS = (
    "id",
    "token",
    "subj_start",
    "subj_end",
    "obj_start",
    "obj_end",
    "subj_type",
    "obj_type",
    "stanford_pos",
    "stanford_ner",
    "stanford_head",
    "stanford_deprel",
    "relation",
)
_SPAN_KEYS = ("subj_start", "subj_end", "obj_start", "obj_end")
_COLUMN_KEYS = ("stanford_pos", "stanford_ner", "stanford_head", "stanford_deprel")
_COLUMN_KEYS_WITH_LEMMA = _COLUMN_KEYS + ("stanford_lemma",)
_STRING_KEYS = ("subj_type", "obj_type", "relation")
_TEXT_COLUMNS = ("token", "stanford_pos", "stanford_ner", "stanford_deprel")
_TEXT_COLUMNS_WITH_LEMMA = _TEXT_COLUMNS + ("stanford_lemma",)
_STR_ONLY = frozenset((str,))


class CorpusError(Exception):
    """Raised for malformed corpus files or inconsistent instances."""


class Token(NamedTuple):
    form: str
    lemma: str
    pos: str
    ner: str
    head: Optional[int]  # 0-based token index, None for the root
    deprel: str


@dataclass(frozen=True)
class RelationInstance:
    id: str
    tokens: tuple[Token, ...]
    subj_span: tuple[int, int]  # inclusive
    obj_span: tuple[int, int]  # inclusive
    subj_type: str
    obj_type: str
    gold_relation: str

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def subj_indices(self) -> frozenset[int]:
        lo, hi = self.subj_span
        return frozenset(range(lo, hi + 1))

    @property
    def obj_indices(self) -> frozenset[int]:
        lo, hi = self.obj_span
        return frozenset(range(lo, hi + 1))

    @property
    def entity_indices(self) -> frozenset[int]:
        return self.subj_indices | self.obj_indices

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    @cached_property
    def masked_symbols(self) -> tuple[str, ...]:
        """The entity-masked symbol sequence, [CLS] first; needs no vocabulary.

        Every entity token is replaced individually, which keeps masked
        position k aligned with original token k - 1.  Computed once per
        instance: rule matching reads it for every surface rule it tries.
        """
        symbols = [CLS] + [tok.form for tok in self.tokens]
        # the subject goes last so that it wins should the spans overlap
        for (lo, hi), symbol in ((self.obj_span, obj_symbol(self.obj_type)),
                                 (self.subj_span, subj_symbol(self.subj_type))):
            symbols[lo + 1:hi + 2] = [symbol] * (hi - lo + 1)
        return tuple(symbols)

    def validate(self) -> None:
        n = len(self.tokens)
        if n == 0:
            raise CorpusError(f"{self.id}: empty token list")
        for name, (lo, hi) in (("subj", self.subj_span), ("obj", self.obj_span)):
            if not (0 <= lo <= hi < n):
                raise CorpusError(f"{self.id}: {name} span {(lo, hi)} out of range for {n} tokens")
        if self.subj_span[0] <= self.obj_span[1] and self.obj_span[0] <= self.subj_span[1]:
            raise CorpusError(f"{self.id}: subject and object spans overlap")
        heads = [t.head for t in self.tokens]
        if heads.count(None) != 1:
            raise CorpusError(f"{self.id}: expected exactly one root, found {heads.count(None)}")
        for i, head in enumerate(heads):
            if head is not None and not (0 <= head < n):
                raise CorpusError(f"{self.id}: token {i} has head {head} out of range")
            if head == i:
                raise CorpusError(f"{self.id}: token {i} is its own head")
        # every token must reach the root, which also rules out cycles; a
        # walk ends at the first token an earlier walk showed to reach it
        reaches_root = [head is None for head in heads]
        walked_from = [-1] * n
        for i in range(n):
            path, j = [], i
            while not reaches_root[j]:
                if walked_from[j] == i:
                    raise CorpusError(f"{self.id}: dependency cycle through token {i}")
                walked_from[j] = i
                path.append(j)
                j = heads[j]
            for j in path:
                reaches_root[j] = True


@dataclass(frozen=True)
class MaskedSequence:
    """Entity-masked symbol sequence with a leading [CLS] position.

    Entity tokens are replaced one-for-one by a typed placeholder symbol,
    so masked position k holds original token k - 1.
    """

    symbols: tuple[str, ...]
    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class PathStep:
    direction: str  # UP or DOWN
    deprel: str
    optional: bool = False


@dataclass(frozen=True)
class DepPath:
    steps: tuple[PathStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ExplanationLabels:
    """Per-original-token 0/1 rationale with a provenance tag."""

    bits: tuple[int, ...]
    source: str

    def ones(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(self.bits) if b)


def subj_symbol(entity_type: str) -> str:
    return f"SUBJ-{entity_type.upper()}"


def obj_symbol(entity_type: str) -> str:
    return f"OBJ-{entity_type.upper()}"


class TokenVocab:
    """Ordered symbol table.  Index 0..2 are [PAD], [CLS], [UNK]."""

    def __init__(self, symbols: Sequence[str]):
        self.symbols = tuple(symbols)
        self._index = {s: i for i, s in enumerate(self.symbols)}
        if len(self._index) != len(self.symbols):
            raise CorpusError("duplicate symbols in vocabulary")
        for required in (PAD, CLS, UNK):
            if required not in self._index:
                raise CorpusError(f"vocabulary is missing {required}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    @property
    def unk_id(self) -> int:
        return self._index[UNK]

    def id(self, symbol: str) -> int:
        return self._index.get(symbol, self._index[UNK])

    @classmethod
    def build(cls, instances: Iterable[RelationInstance]) -> "TokenVocab":
        forms: set[str] = set()
        masks: set[str] = set()
        for inst in instances:
            masks.add(subj_symbol(inst.subj_type))
            masks.add(obj_symbol(inst.obj_type))
            ent = inst.entity_indices
            for i, tok in enumerate(inst.tokens):
                if i not in ent:
                    forms.add(tok.form)
        return cls((PAD, CLS, UNK) + tuple(sorted(masks)) + tuple(sorted(forms)))


@dataclass(frozen=True)
class Corpus:
    train: tuple[RelationInstance, ...]
    dev: tuple[RelationInstance, ...]
    test: tuple[RelationInstance, ...]
    relation_vocab: tuple[str, ...]  # positive labels only, sorted
    token_vocab: TokenVocab

    def split(self, name: str) -> tuple[RelationInstance, ...]:
        if name not in SPLITS:
            raise CorpusError(f"unknown split {name!r}, expected one of {SPLITS}")
        return getattr(self, name)

    @classmethod
    def build(
        cls,
        train: Sequence[RelationInstance],
        dev: Sequence[RelationInstance] = (),
        test: Sequence[RelationInstance] = (),
    ) -> "Corpus":
        for inst in (*train, *dev, *test):
            inst.validate()
        return cls._assemble(train, dev, test)

    @classmethod
    def _assemble(cls, *splits: Sequence[RelationInstance]) -> "Corpus":
        """A corpus of validated train, dev and test instances; ids must be unique."""
        train, dev, test = (tuple(split) for split in splits)
        everything = train + dev + test
        _reject_duplicate_ids(everything)
        relations = sorted({i.gold_relation for i in everything} - {NO_RELATION})
        return cls(train=train, dev=dev, test=test, relation_vocab=tuple(relations),
                   token_vocab=TokenVocab.build(everything))


def _reject_duplicate_ids(instances: Iterable[RelationInstance]) -> None:
    seen: set[str] = set()
    for inst in instances:
        if inst.id in seen:
            raise CorpusError(f"duplicate instance id {inst.id!r}")
        seen.add(inst.id)


def _parse_record(record: dict, where: str) -> RelationInstance:
    for key in _REQUIRED_KEYS:
        if key not in record:
            ident = f" {record['id']!r}:" if "id" in record else ""
            raise CorpusError(f"{where}:{ident} missing key {key!r}")
    ident = record["id"]
    if type(ident) is not str:
        raise CorpusError(f"{where}: id must be a string, got {ident!r}")
    forms = record["token"]
    if type(forms) is not list:
        raise CorpusError(f"{where}: {ident!r}: token must be a list, got {forms!r}")
    n = len(forms)
    lemmas = record.get("stanford_lemma")
    for name in _COLUMN_KEYS if lemmas is None else _COLUMN_KEYS_WITH_LEMMA:
        col = record[name]
        if type(col) is not list:
            raise CorpusError(f"{where}: {ident!r}: {name} must be a list, got {col!r}")
        if len(col) != n:
            raise CorpusError(
                f"{where}: {ident!r}: {name} has {len(col)} entries for {n} tokens")
    heads = record["stanford_head"]
    for i, raw_head in enumerate(heads):
        if type(raw_head) is not int or raw_head < 0 or raw_head > n:
            raise CorpusError(
                f"{where}: {ident!r}: head {raw_head!r} at token {i} is not in 0..{n}")
    for key in _SPAN_KEYS:
        if type(record[key]) is not int:
            raise CorpusError(f"{where}: {ident!r}: {key} must be an integer, got {record[key]!r}")
    for name in _TEXT_COLUMNS if lemmas is None else _TEXT_COLUMNS_WITH_LEMMA:
        if not _STR_ONLY.issuperset(map(type, record[name])):
            i, bad = next((i, v) for i, v in enumerate(record[name]) if type(v) is not str)
            raise CorpusError(
                f"{where}: {ident!r}: {name} entry {i} must be a string, got {bad!r}")
    for key in _STRING_KEYS:
        if type(record[key]) is not str:
            raise CorpusError(f"{where}: {ident!r}: {key} must be a string, got {record[key]!r}")
    if lemmas is None:
        lemmas = [form.lower() for form in forms]
    tokens = map(Token, forms, lemmas, record["stanford_pos"], record["stanford_ner"],
                 [None if head == 0 else head - 1 for head in heads],
                 record["stanford_deprel"])
    inst = RelationInstance(
        id=ident,
        tokens=tuple(tokens),
        subj_span=(record["subj_start"], record["subj_end"]),
        obj_span=(record["obj_start"], record["obj_end"]),
        subj_type=record["subj_type"],
        obj_type=record["obj_type"],
        gold_relation=record["relation"],
    )
    inst.validate()
    return inst


def load_instances(path: str | Path) -> list[RelationInstance]:
    """Load one JSON-lines annotation file, validating every record."""
    return [_parse_record(record, where)
            for where, record in read_jsonl(Path(path), CorpusError)]


def instance_to_record(inst: RelationInstance) -> dict:
    return {
        "id": inst.id,
        "token": [t.form for t in inst.tokens],
        "subj_start": inst.subj_span[0],
        "subj_end": inst.subj_span[1],
        "obj_start": inst.obj_span[0],
        "obj_end": inst.obj_span[1],
        "subj_type": inst.subj_type,
        "obj_type": inst.obj_type,
        "stanford_pos": [t.pos for t in inst.tokens],
        "stanford_ner": [t.ner for t in inst.tokens],
        "stanford_head": [0 if t.head is None else t.head + 1 for t in inst.tokens],
        "stanford_deprel": [t.deprel for t in inst.tokens],
        "stanford_lemma": [t.lemma for t in inst.tokens],
        "relation": inst.gold_relation,
    }


def save_instances(instances: Iterable[RelationInstance], path: str | Path) -> None:
    write_jsonl(path, map(instance_to_record, instances))


def load_split(path: str | Path, split: str) -> list[RelationInstance]:
    """Load ``<path>/<split>.jsonl`` alone, validating each record once.

    Ids must be unique within the split.  A missing split file yields an
    empty split; a missing directory is an error.
    """
    root = Path(path)
    if not root.is_dir():
        raise CorpusError(f"corpus directory {root} does not exist")
    if split not in SPLITS:
        raise CorpusError(f"unknown split {split!r}, expected one of {SPLITS}")
    file = root / f"{split}.jsonl"
    instances = load_instances(file) if file.exists() else []
    _reject_duplicate_ids(instances)
    return instances


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus directory holding train.jsonl / dev.jsonl / test.jsonl.

    Each split loads as in ``load_split``, and ids must be unique across splits.
    """
    splits = [load_split(path, split) for split in SPLITS]
    if not any(splits):
        raise CorpusError(f"no split files found under {Path(path)}")
    return Corpus._assemble(*splits)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        save_instances(corpus.split(split), root / f"{split}.jsonl")


def mask_entities(inst: RelationInstance, vocab: TokenVocab) -> MaskedSequence:
    """Replace entity tokens with typed placeholders and prepend [CLS]."""
    symbols = inst.masked_symbols
    return MaskedSequence(
        symbols=symbols,
        ids=tuple(vocab.id(s) for s in symbols),
    )


def _root_chain(inst: RelationInstance, index: int) -> list[int]:
    """The token and its heads up to the root: [index, head, ..., root]."""
    chain = [index]
    head = inst.tokens[index].head
    while head is not None:
        if len(chain) == len(inst.tokens):
            raise CorpusError(f"{inst.id}: dependency cycle through token {index}")
        chain.append(head)
        head = inst.tokens[head].head
    return chain


def shortest_dep_path(inst: RelationInstance, start: int, targets: Iterable[int]) -> DepPath:
    """The dependency path from ``start`` to the nearest of ``targets``.

    The path climbs from ``start`` to the lowest common ancestor in UP
    steps, each carrying the deprel of the token it leaves, then descends
    to the target in DOWN steps, each carrying the deprel of the token it
    enters.  Of equally near targets the lowest index wins.
    """
    n = len(inst.tokens)
    dst = sorted(set(targets))
    if not dst:
        raise CorpusError(f"{inst.id}: empty endpoint set for dependency path")
    for i in [start, *dst]:
        if not (0 <= i < n):
            raise CorpusError(f"{inst.id}: path endpoint {i} out of range")
    up = _root_chain(inst, start)
    climb_to = {j: k for k, j in enumerate(up)}  # ancestor -> UP steps to reach it
    routes = []  # (length, climb, descent) per target, in index order
    for t in dst:
        down = _root_chain(inst, t)
        # t's chain meets start's at their lowest common ancestor
        meet = next((k for k, j in enumerate(down) if j in climb_to), None)
        if meet is None:
            raise CorpusError(f"{inst.id}: no dependency path from token {start} to token {t}")
        climb = climb_to[down[meet]]
        routes.append((climb + meet, climb, down[:meet]))
    _, climb, descent = min(routes, key=lambda route: route[0])  # first of the shortest
    steps = [PathStep(UP, inst.tokens[j].deprel) for j in up[:climb]]
    steps += [PathStep(DOWN, inst.tokens[j].deprel) for j in reversed(descent)]
    return DepPath(tuple(steps))


def token_depth(inst: RelationInstance, index: int) -> int:
    """Number of head steps from a token up to the root; a cycle is a CorpusError."""
    return len(_root_chain(inst, index)) - 1
