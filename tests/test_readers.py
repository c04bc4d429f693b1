"""Mutation properties for every on-disk reader: a copy of a small valid file
that is truncated, has one byte replaced, or has two tab-separated fields of
one line swapped either reads or raises DataError, and nothing else."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctc_crf import (LOG, AcousticModel, Alphabet, DataError, LayerSpec,
                     SymbolTable, build_ctc_topology, build_denominator_graph,
                     dataio, emit_arpa, estimate, read_fst_text,
                     write_fst_text)
from ctc_crf.lm import read_arpa

ALPHABET = Alphabet(["a", "b"])
TOPOLOGY = build_ctc_topology(ALPHABET)
BIGRAM = estimate([["a", "b"], ["b", "a"], ["a"]], order=2, discount=0.5,
                  vocab=["a", "b"])


# reader name -> (writes a valid file, reads it back)
READERS = {
    "logpl": (lambda p: dataio.write_logpl(p, {"u1": -1.5, "u2": -0.25}),
              dataio.read_logpl),
    "labels": (lambda p: dataio.write_labels_file(p, {"u1": ["a", "b"],
                                                      "u2": ["b"]}),
               dataio.read_labels_file),
    "manifest": (lambda p: dataio.write_manifest(
                     p, [("u1", 5, "feats/u1.mat", ["a", "b"]),
                         ("u2", 3, "feats/u2.mat", ["b"])]),
                 dataio.read_manifest),
    "lexicon": (lambda p: p.write_text("go\tg o\ngo\tg o o\non\to n\n",
                                       encoding="utf-8"),
                dataio.read_lexicon),
    "hyps": (lambda p: dataio.write_hyps(p, {"u1": [], "u2": ["a", "b"]}),
             dataio.read_hyps),
    "symbols": (TOPOLOGY.isyms.write, SymbolTable.read),
    "fst": (lambda p: write_fst_text(TOPOLOGY, p),
            lambda p: read_fst_text(p, LOG, TOPOLOGY.isyms, TOPOLOGY.osyms)),
    "den-graph": (lambda p: write_fst_text(
                      build_denominator_graph(ALPHABET, BIGRAM), p),
                  lambda p: read_fst_text(p, LOG, ALPHABET.pi_symbol_table(),
                                          ALPHABET.label_symbol_table())),
    "alphabet": (ALPHABET.write, Alphabet.read),
    "arpa": (lambda p: p.write_text(emit_arpa(BIGRAM), encoding="utf-8"),
             read_arpa),
    "matrix": (lambda p: dataio.write_matrix(
                   p, np.arange(6, dtype=np.float32).reshape(3, 2)),
               dataio.read_matrix),
    "checkpoint": (AcousticModel(3, [LayerSpec("recurrent", 2,
                                               bidirectional=True),
                                     LayerSpec("tanh")], 3).save,
                   AcousticModel.load),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("valid")
    blobs = {}
    for name, (write, read) in READERS.items():
        write(tmp / name)
        read(tmp / name)
        blobs[name] = (tmp / name).read_bytes()
    return tmp, blobs


def _truncate(data, blob):
    return blob[:data.draw(st.integers(0, len(blob) - 1))]


def _replace_byte(data, blob):
    i = data.draw(st.integers(0, len(blob) - 1))
    return blob[:i] + bytes([data.draw(st.integers(0, 255))]) + blob[i + 1:]


def _swap_fields(data, blob):
    lines = blob.split(b"\n")
    tabbed = [k for k, line in enumerate(lines) if b"\t" in line]
    if not tabbed:
        return blob
    k = data.draw(st.sampled_from(tabbed))
    fields = lines[k].split(b"\t")
    i = data.draw(st.integers(0, len(fields) - 2))
    j = data.draw(st.integers(i + 1, len(fields) - 1))
    fields[i], fields[j] = fields[j], fields[i]
    lines[k] = b"\t".join(fields)
    return b"\n".join(lines)


@pytest.mark.parametrize("mutate", [_truncate, _replace_byte, _swap_fields],
                         ids=["truncate", "replace-byte", "swap-fields"])
@pytest.mark.parametrize("reader", sorted(READERS))
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_mutated_file_reads_or_raises_data_error(valid_files, reader, mutate,
                                                 data):
    tmp, blobs = valid_files
    path = tmp / f"mutated-{reader}"
    path.write_bytes(mutate(data, blobs[reader]))
    try:
        READERS[reader][1](path)
    except DataError:
        pass

