"""Backoff n-gram language models: estimation, ARPA round-trip, sentence
scoring, and conversion to a WFST acceptor.

Entries are stored in log10 per the ARPA convention; everything leaving this
module (scores, arc weights) is natural log.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from .dataio import nonfinite, read_lines
from .errors import DataError, _check_count
from .semiring import LOG, ONE
from .symbols import EPS_NAME, SymbolTable
from .wfst import EPS, MAX_WEIGHT, Wfst

BOS = "<s>"
EOS = "</s>"
LN10 = math.log(10.0)

# log10 probability conventionally assigned to <s>, which is never predicted
BOS_LOG10 = -99.0

# the largest ARPA value read.  An arc weight is one value times ln 10, and
# must stay within wfst.MAX_WEIGHT, 308.2547... times ln 10, once a graph
# file has printed it to 9 significant digits: so the bound is floored to
# two decimals
MAX_LOG10 = math.floor(MAX_WEIGHT / LN10 * 100) / 100


class NGramModel:
    """Backoff n-gram model over a closed vocabulary.

    ``entries`` maps an id tuple to ``(log10 prob, log10 backoff or None)``.
    ``vocab`` is a symbol table with <eps> at 0 and the boundary symbols
    <s>, </s> occupying the two highest ids, so that dropping them yields the
    symbol table of the event alphabet.
    """

    def __init__(self, order: int, vocab: SymbolTable,
                 entries: dict[tuple[int, ...], tuple[float, float | None]]):
        _check_count("n-gram order", order)
        names = list(vocab)
        if names[-2:] != [BOS, EOS]:
            raise DataError("vocabulary must end with <s>, </s>")
        self.order = order
        self.vocab = vocab
        self.entries = dict(entries)
        self.bos = vocab.find(BOS)
        self.eos = vocab.find(EOS)

    # -- lookups ------------------------------------------------------------

    def ids(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.vocab.find(n) for n in names)

    def backoff_log10(self, context: tuple[int, ...]) -> float:
        entry = self.entries.get(context)
        if entry is None or entry[1] is None:
            return 0.0
        return entry[1]

    def conditional_log10(self, context: tuple[int, ...], word: int) -> float:
        """log10 p(word | context) via the backoff recursion."""
        context = context[-(self.order - 1):] if self.order > 1 else ()
        total = 0.0
        while True:
            entry = self.entries.get(context + (word,))
            if entry is not None:
                return total + entry[0]
            if not context:
                raise DataError(
                    f"symbol {self.vocab.name(word)!r} not covered by the model")
            total += self.backoff_log10(context)
            context = context[1:]

    def event_symbols(self) -> list[str]:
        """Vocabulary without the boundary symbols, in id order."""
        return [s for s in self.vocab if s not in (EPS_NAME, BOS, EOS)]

    def __eq__(self, other):
        return (isinstance(other, NGramModel) and self.order == other.order
                and self.vocab == other.vocab and self.entries == other.entries)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def estimate(corpus: Sequence, order: int, discount: float = 0.5,
             vocab: Sequence[str] | None = None) -> NGramModel:
    """Absolute-discounting backoff model from a corpus of sentences.

    Interpolated form: at each level the discounted mass is spread over the
    lower level, and at the unigram level uniformly over the vocabulary, so
    every context distribution sums to one exactly.  The result is stored in
    standard backoff (ARPA) form.  ``vocab`` fixes a closed vocabulary and
    its symbol order; by default the vocabulary is the sorted set of corpus
    tokens.  A sentence is a sequence of tokens or a string of them
    separated by whitespace.
    """
    if not corpus:
        raise DataError("empty corpus")
    _check_count("n-gram order", order)
    if not 0.0 < discount < 1.0:
        raise DataError("discount must be in (0, 1)")

    sentences = [s.split() if isinstance(s, str) else list(s) for s in corpus]
    seen = sorted({tok for sent in sentences for tok in sent})
    for tok in seen:
        if tok in (BOS, EOS, EPS_NAME):
            raise DataError(f"corpus token {tok!r} is reserved")
    if vocab is None:
        names = seen
    else:
        names = list(vocab)
        missing = set(seen) - set(names)
        if missing:
            raise DataError(f"corpus tokens outside vocabulary: {sorted(missing)}")
    table = SymbolTable([EPS_NAME, *names, BOS, EOS])
    bos, eos = table.find(BOS), table.find(EOS)
    event_ids = [table.find(n) for n in names] + [eos]

    # counts[n] holds every window of n ids in the padded sentences; <s>
    # opens each sentence and is never predicted, so its unigram goes
    counts: list[Counter] = [Counter() for _ in range(order + 1)]
    for sent in sentences:
        padded = [bos, *map(table.find, sent), eos]
        for n in range(1, order + 1):
            counts[n].update(zip(*(padded[k:] for k in range(n))))
    del counts[1][(bos,)]

    # interpolated conditional probabilities, built bottom-up
    uni_total = sum(counts[1].values())
    uni_types = len(counts[1])
    uni_reserve = discount * uni_types / uni_total
    probs: dict[tuple[int, ...], float] = {}
    for w in event_ids:
        c = counts[1].get((w,), 0)
        probs[(w,)] = max(c - discount, 0.0) / uni_total + uni_reserve / len(event_ids)

    bows: dict[tuple[int, ...], float] = {}
    for n in range(2, order + 1):
        ctx_totals: Counter = Counter()
        ctx_types: Counter = Counter()
        for gram, c in counts[n].items():
            ctx_totals[gram[:-1]] += c
            ctx_types[gram[:-1]] += 1
        for ctx, total in ctx_totals.items():
            bows[ctx] = discount * ctx_types[ctx] / total
        for gram, c in counts[n].items():
            ctx = gram[:-1]
            # suffix windows of counted windows are themselves counted
            probs[gram] = (c - discount) / ctx_totals[ctx] + bows[ctx] * probs[gram[1:]]

    entries: dict[tuple[int, ...], tuple[float, float | None]] = {}
    for gram, p in probs.items():
        bow = bows.get(gram)
        bow10 = math.log10(bow) if bow is not None else None
        entries[gram] = (math.log10(p), bow10)
    bos_bow = bows.get((bos,))
    entries[(bos,)] = (BOS_LOG10,
                       math.log10(bos_bow) if bos_bow is not None else None)
    return NGramModel(order, table, entries)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def score_sequence(lm: NGramModel, labels: Sequence[str]) -> float:
    """Natural-log probability of the sequence with implicit sentence
    boundaries."""
    for name in labels:
        if name not in lm.vocab or name in (BOS, EOS, EPS_NAME):
            raise DataError(f"label {name!r} not in LM vocabulary")
    history = (lm.bos,)
    total = 0.0
    for word in list(lm.ids(labels)) + [lm.eos]:
        total += lm.conditional_log10(history, word)
        history = (history + (word,))[-(lm.order - 1):] if lm.order > 1 else ()
    return total * LN10


# ---------------------------------------------------------------------------
# ARPA serialization
# ---------------------------------------------------------------------------

def read_arpa(path) -> NGramModel:
    """Parse an ARPA file.  Every fault is a DataError naming the file: a
    malformed line names the line too, and a fault found once the text has
    ended (no \\end\\, no </s>, an n-gram over an unknown symbol) names only
    the file."""
    parser = _ArpaParser()
    read_lines(path, parser.add)
    try:
        return parser.model()
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


_END = -1


class _ArpaParser:
    """ARPA text one line at a time: ``add`` raises ValueError at the first
    line that breaks the layout or holds a value that is NaN or above
    ``MAX_LOG10`` (+inf included), ``model`` raises DataError when the text
    ends early or an n-gram names a symbol the unigrams lack."""

    def __init__(self):
        self.section = None    # 0 in \data\, n in \n-grams:, then _END
        self.declared: dict[int, int] = {}
        self.raw: dict[int, list[tuple[float, tuple[str, ...], float | None]]] = {}

    def add(self, line: str) -> None:
        line = line.strip()
        n = self.section
        if not line or n == _END:
            return
        if n is None:
            if line != "\\data\\":
                raise ValueError("expected \\data\\ header")
            self.section = 0
        elif n == 0 and line.startswith("ngram "):
            order, count = line[len("ngram "):].split("=")
            self.declared[int(order)] = int(count)
        elif n > 0 and len(self.raw[n]) < self.declared[n]:
            if line.startswith("\\"):
                raise ValueError(f"\\{n}-grams: section declares "
                                 f"{self.declared[n]} entries but lists "
                                 f"{len(self.raw[n])}")
            parts = line.split()
            if len(parts) not in (n + 1, n + 2):
                raise ValueError(f"bad {n}-gram line: {line!r}")
            logp = float(parts[0])
            bow = float(parts[n + 1]) if len(parts) == n + 2 else None
            for value in (logp, bow):
                if value is None:
                    continue
                # -inf is log zero; NaN and +inf are no log-probability
                if nonfinite(value, allow_neg_inf=True):
                    raise ValueError(f"{n}-gram value {value} is NaN or +inf")
                if value > MAX_LOG10:
                    raise ValueError(f"{n}-gram value {value} is above "
                                     f"{MAX_LOG10}: times ln 10, its graph "
                                     f"weight would pass log(float64 max)")
            self.raw[n].append((logp, tuple(parts[1:n + 1]), bow))
        else:
            self._next_section(line)

    def _next_section(self, line: str) -> None:
        n = self.section
        if n == 0:
            if not self.declared:
                raise ValueError("no ngram counts declared")
            if sorted(self.declared) != list(range(1, len(self.declared) + 1)):
                raise ValueError("non-contiguous ngram orders declared")
        if n == len(self.declared):
            if line != "\\end\\":
                raise ValueError("missing \\end\\ marker")
            self.section = _END
        elif line != f"\\{n + 1}-grams:":
            raise ValueError(f"expected \\{n + 1}-grams: section, got {line!r}")
        else:
            self.section = n + 1
            self.raw[n + 1] = []

    def model(self) -> NGramModel:
        if self.section != _END:
            raise DataError("text ends before the \\end\\ marker")
        names = []
        saw_eos = False
        for _, words, _ in self.raw[1]:
            w = words[0]
            if w == EOS:
                saw_eos = True
            elif w == EPS_NAME:
                raise DataError(f"reserved symbol {w!r} in unigrams")
            elif w != BOS:
                names.append(w)
        if not saw_eos:
            raise DataError(f"model lacks {EOS!r}")
        table = SymbolTable([EPS_NAME, *names, BOS, EOS])

        entries: dict[tuple[int, ...], tuple[float, float | None]] = {}
        for n in range(1, len(self.declared) + 1):
            for prob, words, bow in self.raw[n]:
                try:
                    gram = tuple(table.find(w) for w in words)
                except DataError:
                    raise DataError(f"{n}-gram uses unknown symbol: {words}") from None
                entries[gram] = (prob, bow)
        return NGramModel(len(self.declared), table, entries)


def emit_arpa(lm: NGramModel) -> str:
    """Serialize to ARPA text; deterministic, entries sorted by symbol id."""
    by_order: dict[int, list[tuple[tuple[int, ...], tuple[float, float | None]]]] = {}
    for gram, entry in lm.entries.items():
        by_order.setdefault(len(gram), []).append((gram, entry))
    out = ["\\data\\"]
    for n in range(1, lm.order + 1):
        out.append(f"ngram {n}={len(by_order.get(n, []))}")
    for n in range(1, lm.order + 1):
        out.append("")
        out.append(f"\\{n}-grams:")
        for gram, (prob, bow) in sorted(by_order.get(n, [])):
            words = " ".join(lm.vocab.name(i) for i in gram)
            if bow is None:
                out.append(f"{prob:.6f}\t{words}")
            else:
                out.append(f"{prob:.6f}\t{words}\t{bow:.6f}")
    out.append("")
    out.append("\\end\\")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# WFST conversion
# ---------------------------------------------------------------------------

def lm_to_fst(lm: NGramModel, semiring: str = LOG) -> Wfst:
    """Acceptor with one state per context and epsilon backoff arcs.

    Every stored n-gram becomes a weighted arc from its context state to the
    longest stored suffix context; backoff weights ride on epsilon arcs to
    the shortened context.  End-of-sentence probabilities become final
    weights.  Because backoff uses plain epsilon (not failure) arcs, path
    sums can slightly exceed true probability mass where an explicit n-gram
    coexists with its backoff route; the best path through a sequence seen
    verbatim matches the backoff-recursion score.
    """
    syms = SymbolTable([EPS_NAME, *lm.event_symbols()])
    # conditioning contexts: short-enough stored n-grams plus every proper
    # prefix of a stored n-gram (prefixes may lack own entries)
    contexts = {()}
    for g in lm.entries:
        if len(g) < lm.order and g[-1] != lm.eos:
            contexts.add(g)
        p = g[:-1]
        if p and p[-1] != lm.eos:
            contexts.add(p)
    contexts = sorted(contexts, key=lambda c: (len(c), c))
    state_of = {ctx: q for q, ctx in enumerate(contexts)}
    num_states = len(contexts)
    rows = []
    finals = {}

    def suffix_state(gram: tuple[int, ...]) -> int:
        limit = lm.order - 1
        for k in range(min(len(gram), limit), -1, -1):
            ctx = gram[len(gram) - k:]
            if ctx in state_of:
                return state_of[ctx]
        return state_of[()]

    bos_ctx = (lm.bos,)
    if bos_ctx in state_of:
        start = state_of[bos_ctx]
    else:
        start, num_states = num_states, num_states + 1
        bow = lm.backoff_log10(bos_ctx)
        rows.append((start, EPS, EPS, bow * LN10, state_of[()]))

    for ctx in contexts:
        if not ctx:
            continue
        bow = lm.backoff_log10(ctx)
        rows.append((state_of[ctx], EPS, EPS, bow * LN10,
                     suffix_state(ctx[1:])))

    for gram, (prob, _) in sorted(lm.entries.items()):
        word = gram[-1]
        src_ctx = gram[:-1]
        if src_ctx not in state_of:
            continue  # unreachable context (degenerate hand-built model)
        src = state_of[src_ctx]
        if word == lm.eos:
            finals[src] = prob * LN10
        elif word == lm.bos:
            continue
        else:
            # event ids coincide in the model vocabulary and the fst table
            rows.append((src, word, word, prob * LN10, suffix_state(gram)))

    if not lm.entries:
        finals[state_of[()]] = ONE
    return Wfst(semiring, syms, syms, num_states, start, finals, *zip(*rows))
