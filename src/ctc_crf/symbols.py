"""Symbol tables and the label alphabet.

Two id spaces coexist:

* FST symbol ids: table id 0 is always ``<eps>``; real symbols start at 1.
* State-symbol ids: blank is 0, label ``i`` is ``i + 1``.  These index the
  columns of a posterior matrix.

For the state alphabet the two line up as ``fst_id == state_id + 1``; for
plain label tables ``fst_id == state_id`` (both are ``i + 1`` for label i).
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .dataio import read_lines
from .errors import DataError

EPS = 0
EPS_NAME = "<eps>"
BLANK_NAME = "<blk>"

_RESERVED = (EPS_NAME, BLANK_NAME, "<s>", "</s>")


class SymbolTable:
    """Immutable bidirectional symbol <-> integer id map; id 0 is <eps>."""

    def __init__(self, symbols: Sequence[str]):
        symbols = list(symbols)
        if not symbols or symbols[0] != EPS_NAME:
            raise DataError(f"symbol table must start with {EPS_NAME!r} at id 0")
        if len(set(symbols)) != len(symbols):
            raise DataError("duplicate symbols in table")
        self._symbols = tuple(symbols)
        self._ids = {s: i for i, s in enumerate(symbols)}

    def __len__(self):
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def __contains__(self, symbol):
        return symbol in self._ids

    def __eq__(self, other):
        return isinstance(other, SymbolTable) and self._symbols == other._symbols

    def __hash__(self):
        return hash(self._symbols)

    def find(self, symbol: str) -> int:
        try:
            return self._ids[symbol]
        except KeyError:
            raise DataError(f"symbol {symbol!r} not in table") from None

    def name(self, sym_id: int) -> str:
        if not 0 <= sym_id < len(self._symbols):
            raise DataError(f"symbol id {sym_id} out of range")
        return self._symbols[sym_id]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self._symbols):
                f.write(f"{s}\t{i}\n")

    @classmethod
    def read(cls, path) -> "SymbolTable":
        def entry(line):
            symbol, sym_id = line.split("\t")
            return int(sym_id), symbol
        entries = sorted(read_lines(path, entry))
        if [i for i, _ in entries] != list(range(len(entries))):
            raise DataError(f"{path}: symbol ids are not contiguous from 0")
        return cls([s for _, s in entries])


class Alphabet:
    """The label set plus blank. State symbols: blank = 0, label i = i + 1."""

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise DataError("alphabet must contain at least one label")
        if len(set(labels)) != len(labels):
            raise DataError("duplicate labels in alphabet")
        for name in labels:
            if not name:
                raise DataError("empty label name")
            if name in _RESERVED:
                raise DataError(f"label name {name!r} is reserved")
        self.labels = labels

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.labels == other.labels

    @property
    def num_state_symbols(self) -> int:
        return len(self.labels) + 1

    def state_id(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise DataError(f"label {label!r} not in alphabet") from None

    def state_name(self, state_id: int) -> str:
        if state_id == 0:
            return BLANK_NAME
        if not 1 <= state_id <= len(self.labels):
            raise DataError(f"state symbol id {state_id} out of range")
        return self.labels[state_id - 1]

    def pi_symbol_table(self) -> SymbolTable:
        """FST table over the state alphabet: <eps>, <blk>, then labels."""
        return SymbolTable([EPS_NAME, BLANK_NAME, *self.labels])

    def label_symbol_table(self) -> SymbolTable:
        """FST table over the bare labels: <eps>, then labels."""
        return SymbolTable([EPS_NAME, *self.labels])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name in self.labels:
                f.write(name + "\n")

    @classmethod
    def read(cls, path) -> "Alphabet":
        return cls(name for name in read_lines(path, str.strip) if name)
