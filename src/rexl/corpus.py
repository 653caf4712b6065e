"""Data model for annotated relation-extraction corpora.

A corpus is a set of JSON-lines files (train/dev/test), one record per
sentence, each carrying token-level annotation (POS, NER, dependency head
and label) plus a subject span, an object span and a gold relation label.
Spans are inclusive token-index pairs.  Heads are stored 1-based in the
files with 0 meaning the root; in memory they are 0-based with None for
the root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

NO_RELATION = "no_relation"

PAD = "[PAD]"
CLS = "[CLS]"
UNK = "[UNK]"

UP = "up"
DOWN = "down"

# provenance values for explanation labels
SOURCE_RULE = "rule"
SOURCE_LATENT = "latent"
SOURCE_PREDICTED = "predicted"

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


class CorpusError(Exception):
    """Raised for malformed corpus files or inconsistent instances."""


@dataclass(frozen=True)
class Token:
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
        if self.subj_indices & self.obj_indices:
            raise CorpusError(f"{self.id}: subject and object spans overlap")
        roots = [i for i, t in enumerate(self.tokens) if t.head is None]
        if len(roots) != 1:
            raise CorpusError(f"{self.id}: expected exactly one root, found {len(roots)}")
        for i, t in enumerate(self.tokens):
            if t.head is None:
                continue
            if not (0 <= t.head < n):
                raise CorpusError(f"{self.id}: token {i} has head {t.head} out of range")
            if t.head == i:
                raise CorpusError(f"{self.id}: token {i} is its own head")
        # every node must reach the root, which also rules out cycles
        for i in range(n):
            seen = set()
            j: Optional[int] = i
            while j is not None:
                if j in seen:
                    raise CorpusError(f"{self.id}: dependency cycle through token {i}")
                seen.add(j)
                j = self.tokens[j].head


@dataclass(frozen=True)
class MaskedSequence:
    """Entity-masked symbol sequence with a leading [CLS] position.

    ``token_map[k]`` gives the original token index behind masked position
    k, or None for [CLS].  Entity tokens are replaced one-for-one by a
    typed placeholder symbol, so the map stays total and monotone.
    """

    instance_id: str
    symbols: tuple[str, ...]
    ids: tuple[int, ...]
    token_map: tuple[Optional[int], ...]

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

    def reversed(self) -> "DepPath":
        flipped = tuple(
            PathStep(UP if s.direction == DOWN else DOWN, s.deprel, s.optional)
            for s in reversed(self.steps)
        )
        return DepPath(flipped)


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
    def pad_id(self) -> int:
        return self._index[PAD]

    @property
    def cls_id(self) -> int:
        return self._index[CLS]

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

    def all_instances(self) -> Iterator[RelationInstance]:
        for split in SPLITS:
            yield from self.split(split)

    @classmethod
    def build(
        cls,
        train: Sequence[RelationInstance],
        dev: Sequence[RelationInstance] = (),
        test: Sequence[RelationInstance] = (),
    ) -> "Corpus":
        everything = tuple(train) + tuple(dev) + tuple(test)
        seen: set[str] = set()
        for inst in everything:
            if inst.id in seen:
                raise CorpusError(f"duplicate instance id {inst.id!r}")
            seen.add(inst.id)
            inst.validate()
        relations = sorted({i.gold_relation for i in everything} - {NO_RELATION})
        return cls(
            train=tuple(train),
            dev=tuple(dev),
            test=tuple(test),
            relation_vocab=tuple(relations),
            token_vocab=TokenVocab.build(everything),
        )


def _parse_record(record: dict, where: str) -> RelationInstance:
    for key in _REQUIRED_KEYS:
        if key not in record:
            ident = record.get("id", where)
            raise CorpusError(f"{ident}: missing key {key!r}")
    ident = str(record["id"])
    forms = record["token"]
    n = len(forms)
    pos = record["stanford_pos"]
    ner = record["stanford_ner"]
    heads = record["stanford_head"]
    deprels = record["stanford_deprel"]
    lemmas = record.get("stanford_lemma")
    for name, col in (("stanford_pos", pos), ("stanford_ner", ner),
                      ("stanford_head", heads), ("stanford_deprel", deprels)):
        if len(col) != n:
            raise CorpusError(f"{ident}: {name} has {len(col)} entries for {n} tokens")
    if lemmas is not None and len(lemmas) != n:
        raise CorpusError(f"{ident}: stanford_lemma has {len(lemmas)} entries for {n} tokens")
    tokens = []
    for i in range(n):
        raw_head = heads[i]
        if not isinstance(raw_head, int) or raw_head < 0 or raw_head > n:
            raise CorpusError(f"{ident}: head {raw_head!r} at token {i} is not in 0..{n}")
        head = None if raw_head == 0 else raw_head - 1
        lemma = lemmas[i] if lemmas is not None else str(forms[i]).lower()
        tokens.append(
            Token(
                form=str(forms[i]),
                lemma=str(lemma),
                pos=str(pos[i]),
                ner=str(ner[i]),
                head=head,
                deprel=str(deprels[i]),
            )
        )
    inst = RelationInstance(
        id=ident,
        tokens=tuple(tokens),
        subj_span=(int(record["subj_start"]), int(record["subj_end"])),
        obj_span=(int(record["obj_start"]), int(record["obj_end"])),
        subj_type=str(record["subj_type"]),
        obj_type=str(record["obj_type"]),
        gold_relation=str(record["relation"]),
    )
    inst.validate()
    return inst


def load_instances(path: str | Path) -> list[RelationInstance]:
    """Load one JSON-lines annotation file, validating every record."""
    path = Path(path)
    out = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise CorpusError(f"{path}:{lineno}: record is not an object")
            out.append(_parse_record(record, where=f"{path}:{lineno}"))
    return out


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
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_record(inst), sort_keys=True))
            fh.write("\n")


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus directory holding train.jsonl / dev.jsonl / test.jsonl.

    Missing split files yield empty splits; a missing directory is an error.
    """
    root = Path(path)
    if not root.is_dir():
        raise CorpusError(f"corpus directory {root} does not exist")
    splits: dict[str, list[RelationInstance]] = {}
    for split in SPLITS:
        file = root / f"{split}.jsonl"
        splits[split] = load_instances(file) if file.exists() else []
    if not any(splits.values()):
        raise CorpusError(f"no split files found under {root}")
    return Corpus.build(splits["train"], splits["dev"], splits["test"])


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        save_instances(corpus.split(split), root / f"{split}.jsonl")


def mask_entities(inst: RelationInstance, vocab: TokenVocab) -> MaskedSequence:
    """Replace entity tokens with typed placeholders and prepend [CLS]."""
    symbols = inst.masked_symbols
    return MaskedSequence(
        instance_id=inst.id,
        symbols=symbols,
        ids=tuple(vocab.id(s) for s in symbols),
        token_map=(None, *range(len(inst.tokens))),
    )


def _adjacency(inst: RelationInstance) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in inst.tokens]
    for i, tok in enumerate(inst.tokens):
        if tok.head is not None:
            adj[i].append(tok.head)
            adj[tok.head].append(i)
    return adj


def shortest_dep_path(
    inst: RelationInstance,
    from_indices: Iterable[int],
    to_indices: Iterable[int],
) -> tuple[DepPath, tuple[int, int]]:
    """Shortest undirected path over the dependency tree between two index sets.

    Returns the path and the (from, to) endpoint pair realising it.  Ties on
    length are broken by the smallest (from, to) pair.  A step is UP when it
    moves from a token to its head (carrying that token's deprel) and DOWN
    when it moves from a head to one of its dependents (carrying the
    dependent's deprel).
    """
    n = len(inst.tokens)
    src = sorted(set(from_indices))
    dst = sorted(set(to_indices))
    if not src or not dst:
        raise CorpusError(f"{inst.id}: empty endpoint set for dependency path")
    for i in src + dst:
        if not (0 <= i < n):
            raise CorpusError(f"{inst.id}: path endpoint {i} out of range")
    adj = _adjacency(inst)
    best: Optional[tuple[int, int, int]] = None  # (dist, from, to)
    best_parents: Optional[list[Optional[int]]] = None
    dst_set = set(dst)
    for f in src:
        dist = [-1] * n
        parent: list[Optional[int]] = [None] * n
        dist[f] = 0
        queue = [f]
        # BFS over the undirected tree; on a tree the first visit is the
        # unique shortest route, neighbours expanded in index order
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in sorted(adj[u]):
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
        for t in dst:
            cand = (dist[t], f, t)
            if best is None or cand < best:
                best = cand
                best_parents = parent
    assert best is not None and best_parents is not None
    _, f, t = best
    nodes = [t]
    while nodes[-1] != f:
        prev = best_parents[nodes[-1]]
        assert prev is not None
        nodes.append(prev)
    nodes.reverse()
    steps = []
    for a, b in zip(nodes, nodes[1:]):
        if inst.tokens[a].head == b:
            steps.append(PathStep(UP, inst.tokens[a].deprel))
        elif inst.tokens[b].head == a:
            steps.append(PathStep(DOWN, inst.tokens[b].deprel))
        else:  # pragma: no cover - adjacency guarantees one of the two
            raise CorpusError(f"{inst.id}: nodes {a} and {b} are not tree-adjacent")
    return DepPath(tuple(steps)), (f, t)


def token_depth(inst: RelationInstance, index: int) -> int:
    """Number of head steps from a token up to the root."""
    depth = 0
    j: Optional[int] = index
    while inst.tokens[j].head is not None:  # type: ignore[index]
        j = inst.tokens[j].head  # type: ignore[index]
        depth += 1
        if depth > len(inst.tokens):
            raise CorpusError(f"{inst.id}: dependency cycle through token {index}")
    return depth
