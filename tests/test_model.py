import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctc_crf import (AcousticModel, Adam, Alphabet, DataError, LayerSpec,
                     NumericalError, Sgd, TrainConfig, build_denominator_graph,
                     crf_loss, estimate, flatten_denominator, score_sequence,
                     train)
from ctc_crf.model import _layout
from ctc_crf.training import _batch_step
from ctc_crf.toydata import generate_dataset
from ctc_crf.verify import random_log_softmax

from oracles import frozen_minibatch_step, frozen_model_parameters


def tiny_model(seed=0):
    return AcousticModel(4, [LayerSpec("affine", 6), LayerSpec("tanh")], 3,
                         seed=seed)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_rows_are_log_softmax(rng):
    model = tiny_model()
    post = model.forward(rng.normal(size=(7, 4)))
    assert np.allclose(np.exp(post).sum(axis=1), 1.0, atol=1e-12)


def test_forward_zero_output_weights_uniform(rng):
    model = tiny_model()
    model.output.params["W"][...] = 0.0
    model.output.params["b"][...] = 0.0
    post = model.forward(rng.normal(size=(3, 4)))
    assert np.allclose(post, -math.log(3), atol=1e-12)


def test_forward_pointwise_model_identical_rows():
    model = tiny_model()
    frame = np.array([0.3, -0.2, 1.0, 0.1])
    feats = np.tile(frame, (4, 1))
    post = model.forward(feats)
    assert np.allclose(post, post[0], atol=1e-14)


def test_forward_deterministic_given_seed(rng):
    feats = rng.normal(size=(5, 4))
    a = tiny_model(seed=42).forward(feats)
    b = tiny_model(seed=42).forward(feats)
    assert np.array_equal(a, b)


def test_forward_dimension_mismatch(rng):
    with pytest.raises(DataError):
        tiny_model().forward(rng.normal(size=(5, 7)))


@pytest.mark.parametrize("lengths", [[2, 2], [3, 3], [6, -1], []])
def test_forward_lengths_must_split_the_frames(rng, lengths):
    with pytest.raises(DataError, match="do not split 5 frames"):
        tiny_model().forward(rng.normal(size=(5, 4)), lengths)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _fd_param_check(model, feats, upstream, step=1e-6, tol=1e-6):
    def value():
        return float(np.sum(np.asarray(model.forward(feats)) * upstream))

    value()
    model.zero_grads()
    model.backward(upstream)
    analytic = {n: g.copy() for n, g in model.gradients()}
    worst = 0.0
    for name, p in model.parameters():
        flat = p.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = value()
            flat[i] = saved - step
            lo = value()
            flat[i] = saved
            fd = (hi - lo) / (2 * step)
            an = analytic[name].reshape(-1)[i]
            worst = max(worst, abs(fd - an) / max(1.0, abs(fd)))
    assert worst < tol, worst


def test_backward_affine_tanh_finite_differences(rng):
    model = tiny_model(seed=3)
    feats = rng.normal(size=(5, 4))
    upstream = rng.normal(size=(5, 3))
    _fd_param_check(model, feats, upstream)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_backward_recurrent_finite_differences(rng, bidirectional):
    model = AcousticModel(
        4, [LayerSpec("recurrent", 5, bidirectional=bidirectional)], 3, seed=5)
    feats = rng.normal(size=(6, 4))
    upstream = rng.normal(size=(6, 3))
    _fd_param_check(model, feats, upstream)


def test_backward_zero_upstream_zero_grads(rng):
    model = tiny_model()
    model.forward(rng.normal(size=(4, 4)))
    model.zero_grads()
    model.backward(np.zeros((4, 3)))
    for _, g in model.gradients():
        assert np.all(g == 0.0)


def test_backward_linearity(rng):
    model = tiny_model()
    feats = rng.normal(size=(4, 4))
    upstream = rng.normal(size=(4, 3))
    model.forward(feats)
    model.zero_grads()
    model.backward(upstream)
    single = {n: g.copy() for n, g in model.gradients()}
    model.forward(feats)
    model.zero_grads()
    model.backward(2.0 * upstream)
    for name, g in model.gradients():
        assert np.allclose(g, 2.0 * single[name], atol=1e-12)


def test_end_to_end_loss_gradient_under_500_params(rng):
    alphabet = Alphabet(["a", "b"])
    lm = estimate([["a", "b"], ["b"]], order=2, discount=0.5,
                  vocab=list(alphabet.labels))
    table = flatten_denominator(build_denominator_graph(alphabet, lm))
    model = AcousticModel(8, [LayerSpec("affine", 16), LayerSpec("tanh")],
                          3, seed=11)
    assert model.num_params <= 500
    feats = rng.normal(size=(5, 8))
    labels = [1, 2]
    log_pl = score_sequence(lm, ["a", "b"])

    def objective():
        post = model.forward(feats)
        return crf_loss(post, labels, log_pl, table, alpha=0.1)

    base = objective()
    model.zero_grads()
    model.backward(base.grad)
    analytic = {n: g.copy() for n, g in model.gradients()}
    step = 1e-4
    worst = 0.0
    for name, p in model.parameters():
        flat = p.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = objective().objective
            flat[i] = saved - step
            lo = objective().objective
            flat[i] = saved
            fd = (hi - lo) / (2 * step)
            an = analytic[name].reshape(-1)[i]
            worst = max(worst, abs(fd - an) / max(1.0, abs(fd)))
    assert worst < 1e-3, worst


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    model = AcousticModel(4, [LayerSpec("affine", 6), LayerSpec("tanh"),
                              LayerSpec("recurrent", 3, bidirectional=True)],
                          3, seed=9)
    p1 = tmp_path / "m1.ckpt"
    p2 = tmp_path / "m2.ckpt"
    model.save(p1)
    AcousticModel.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_takes_numpy_integer_counts(tmp_path):
    # the counts are checked as integers, numpy ones included, but such a
    # model's header did not serialise
    path = tmp_path / "m.ckpt"
    AcousticModel(np.int64(4), [LayerSpec("recurrent", np.int32(3))],
                  np.int64(3), seed=np.int64(2)).save(path)
    AcousticModel(4, [LayerSpec("recurrent", 3)], 3, seed=2).save(
        tmp_path / "want.ckpt")
    assert path.read_bytes() == (tmp_path / "want.ckpt").read_bytes()


@pytest.mark.parametrize("value", [1e39, -np.inf, np.nan])
def test_checkpoint_save_rejects_a_value_float32_cannot_hold(tmp_path,
                                                             value):
    # a value past float32's range was written as an infinity, with a
    # numpy warning, into a file that load then rejected
    model = tiny_model()
    name, param = model.parameters()[2]
    param.flat[1] = value
    path = tmp_path / "m.ckpt"
    with pytest.raises(DataError, match=f"tensor {name} holds"):
        model.save(path)
    assert not path.exists()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"nope")
    with pytest.raises(DataError):
        AcousticModel.load(path)


def _saved_checkpoint(tmp_path):
    """(path, JSON header, tensor bytes) of a small saved model."""
    path = tmp_path / "m.ckpt"
    AcousticModel(4, [LayerSpec("affine", 6), LayerSpec("tanh")], 3,
                  seed=9).save(path)
    data = path.read_bytes()
    blob_len = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12:12 + blob_len])
    return path, header, data[12 + blob_len:]


def _write_checkpoint(path, blob: bytes, tensors: bytes):
    path.write_bytes(b"ACMD" + struct.pack("<II", 1, len(blob)) + blob
                     + tensors)


def test_checkpoint_truncated_header(tmp_path):
    path, _, _ = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:10])   # ends inside version/length
    with pytest.raises(DataError, match="truncated checkpoint header"):
        AcousticModel.load(path)


def test_checkpoint_header_length_past_end_of_file(tmp_path):
    path, _, _ = _saved_checkpoint(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:8] + b"\xff" * 4 + data[12:])   # 0xFFFFFFFF bytes
    with pytest.raises(DataError, match="truncated checkpoint header"):
        AcousticModel.load(path)


def test_checkpoint_header_claims_more_parameters_than_the_file(tmp_path):
    path, header, tensors = _saved_checkpoint(tmp_path)
    header["input_dim"] = 200_000   # a 4.8M-parameter model in a tiny file
    _write_checkpoint(path, json.dumps(header).encode("utf-8"), tensors)
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            AcousticModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("specs", [
    [],
    [LayerSpec("affine", 6), LayerSpec("tanh")],
    [LayerSpec("recurrent", 3), LayerSpec("affine", 2)],
    [LayerSpec("recurrent", 3, bidirectional=True), LayerSpec("tanh"),
     LayerSpec("recurrent", 2, bidirectional=True)],
], ids=["none", "affine-tanh", "rnn-affine", "birnn-birnn"])
def test_param_count_matches_the_built_model(specs):
    # the layout the checkpoint reader checks a header against is the one
    # the model allocates, and counts what it holds
    layout = {prefix + name: shape
              for prefix, _, layer in _layout(4, specs, 3)
              for name, shape in layer}
    model = AcousticModel(4, specs, 3)
    assert layout == {name: p.shape for name, p in model.parameters()}
    assert sum(math.prod(s) for s in layout.values()) == model.num_params


_LAYER_SPECS = st.one_of(
    st.builds(LayerSpec, st.just("affine"), st.integers(1, 5)),
    st.just(LayerSpec("tanh")),
    st.builds(LayerSpec, st.just("recurrent"), st.integers(1, 4),
              st.booleans()))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(specs=st.lists(_LAYER_SPECS, max_size=3), input_dim=st.integers(1, 5),
       num_outputs=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_parameters_equal_the_frozen_construction(specs, input_dim,
                                                  num_outputs, seed):
    # names, order and values, so the draw order of the initialiser and the
    # tensor order of a checkpoint are both pinned
    got = AcousticModel(input_dim, specs, num_outputs, seed=seed).parameters()
    want = frozen_model_parameters(input_dim, specs, num_outputs, seed)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, p), (_, q) in zip(got, want):
        assert np.array_equal(p, q), name


@pytest.mark.parametrize("build,message", [
    (lambda: LayerSpec("affine"),
     "affine layer size must be an integer >= 1, not None"),
    (lambda: LayerSpec("affine", 0),
     "affine layer size must be an integer >= 1, not 0"),
    (lambda: LayerSpec("recurrent", -2, bidirectional=True),
     "recurrent layer size must be an integer >= 1, not -2"),
    (lambda: LayerSpec("recurrent", 2.5),
     "recurrent layer size must be an integer >= 1, not 2.5"),
    (lambda: LayerSpec("conv", 3), "unknown layer kind 'conv'"),
    (lambda: AcousticModel(2.5, [], 3),
     "model input width must be an integer >= 1, not 2.5"),
    (lambda: AcousticModel(0, [], 3),
     "model input width must be an integer >= 1, not 0"),
    (lambda: AcousticModel(4, [], 1),
     "model outputs must be an integer >= 2, not 1"),
    (lambda: AcousticModel(4, [], True),
     "model outputs must be an integer >= 2, not True"),
], ids=["affine-no-size", "affine-0", "birnn-negative", "rnn-fraction",
        "unknown-kind", "input-fraction", "input-0", "one-output",
        "bool-outputs"])
def test_layer_size_and_model_dimensions_are_counts(build, message):
    # a zero-width layer once built a model that dropped its features, a
    # layer with no size died with a TypeError, a negative one with a numpy
    # ValueError, and a fractional input width with a TypeError
    with pytest.raises(DataError) as info:
        build()
    assert str(info.value) == message


def test_checkpoint_corrupt_json_header(tmp_path):
    path, header, tensors = _saved_checkpoint(tmp_path)
    blob = json.dumps(header).encode("utf-8")
    _write_checkpoint(path, blob[:-1] + b"!", tensors)
    with pytest.raises(DataError, match="bad checkpoint header"):
        AcousticModel.load(path)


def test_checkpoint_header_missing_key(tmp_path):
    path, header, tensors = _saved_checkpoint(tmp_path)
    del header["num_outputs"]
    _write_checkpoint(path, json.dumps(header).encode("utf-8"), tensors)
    with pytest.raises(DataError, match="bad checkpoint header"):
        AcousticModel.load(path)


def test_checkpoint_unknown_tensor_name(tmp_path):
    path, header, tensors = _saved_checkpoint(tmp_path)
    header["tensors"][0][0] = "no-such-tensor"
    _write_checkpoint(path, json.dumps(header).encode("utf-8"), tensors)
    with pytest.raises(DataError, match="bad checkpoint header"):
        AcousticModel.load(path)


def test_checkpoint_tensor_shape_mismatch(tmp_path):
    path, header, tensors = _saved_checkpoint(tmp_path)
    header["tensors"][0][1] = header["tensors"][0][1][::-1]
    _write_checkpoint(path, json.dumps(header).encode("utf-8"), tensors)
    with pytest.raises(DataError, match="shape"):
        AcousticModel.load(path)


def test_dropout_masks_only_in_training_mode(rng):
    model = AcousticModel(4, [LayerSpec("recurrent", 6)], 3, seed=2,
                          dropout=0.5)
    feats = rng.normal(size=(5, 4))
    eval_a = model.forward(feats)
    eval_b = model.forward(feats)
    assert np.array_equal(eval_a, eval_b)  # inference path is deterministic
    model.training = True
    train_a = model.forward(feats)
    train_b = model.forward(feats)
    assert not np.array_equal(train_a, train_b)  # masks are resampled


def test_param_count_deterministic():
    a = AcousticModel(8, [LayerSpec("affine", 32), LayerSpec("tanh")], 6, seed=0)
    b = AcousticModel(8, [LayerSpec("affine", 32), LayerSpec("tanh")], 6, seed=1)
    assert a.num_params == b.num_params == 8 * 32 + 32 + 32 * 6 + 6


# ---------------------------------------------------------------------------
# optimizers and training
# ---------------------------------------------------------------------------

def _toy_setup(num_train=12, num_heldout=4, seed=3, order=1):
    train_set, heldout, alphabet = generate_dataset(num_train, num_heldout,
                                                    seed=seed)
    corpus = [[alphabet.state_name(l) for l in labs] for _, labs in train_set]
    lm = estimate(corpus, order=order, discount=0.5, vocab=list(alphabet.labels))
    table = flatten_denominator(build_denominator_graph(alphabet, lm))
    log_pls = [score_sequence(lm, [alphabet.state_name(l) for l in labs])
               for _, labs in train_set]
    return train_set, heldout, alphabet, table, log_pls


def test_learning_rate_zero_keeps_params(rng):
    train_set, heldout, alphabet, table, log_pls = _toy_setup()
    model = AcousticModel(8, [LayerSpec("affine", 8), LayerSpec("tanh")],
                          alphabet.num_state_symbols, seed=0)
    before = [p.copy() for _, p in model.parameters()]
    config = TrainConfig(epochs=1, learning_rate=0.0, seed=0)
    train(model, train_set, table, log_pls, config, alphabet, heldout=heldout)
    for (_, p), saved in zip(model.parameters(), before):
        assert np.array_equal(p, saved)


def test_train_isolates_degenerate_utterances():
    train_set, _, alphabet, table, log_pls = _toy_setup()
    # a single frame is too short for any toy label sequence
    features, labels = train_set[5]
    train_set[5] = (features[:1], labels)
    model = AcousticModel(8, [LayerSpec("affine", 8), LayerSpec("tanh")],
                          alphabet.num_state_symbols, seed=0)
    config = TrainConfig(epochs=2, learning_rate=0.0, seed=0, batch_size=4)
    metrics = train(model, train_set, table, log_pls, config, alphabet)
    assert [m.degenerate for m in metrics] == [1, 1]
    want = np.mean([
        crf_loss(model.forward(f), l, lp, table, alpha=config.alpha).objective
        / len(f)
        for i, ((f, l), lp) in enumerate(zip(train_set, log_pls)) if i != 5])
    for m in metrics:
        assert np.isfinite(m.objective)
        assert m.objective == pytest.approx(want, rel=1e-12)


def _assert_close(got, want):
    """Equal to 1e-12 of the largest magnitude in ``want``."""
    assert got.shape == want.shape
    assert (np.abs(got - want).max(initial=0.0)
            <= 1e-12 * np.abs(want).max(initial=0.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(specs=st.lists(_LAYER_SPECS, max_size=3), input_dim=st.integers(1, 5),
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       data=st.data())
def test_minibatch_step_matches_the_frozen_per_utterance_step(
        specs, input_dim, lengths, data):
    # one model pass over a batch's stacked frames against a forward, a
    # loss and a backward per utterance.  One utterance of each batch is
    # degenerate, and its rows must add nothing.  A model with at most one
    # recurrent layer draws the same dropout masks either way
    recurrent = sum(spec.kind == "recurrent" for spec in specs)
    dropout = data.draw(st.sampled_from([0.0, 0.3])) if recurrent <= 1 else 0.0
    seed = data.draw(st.integers(0, 2**32 - 1))
    bad = data.draw(st.integers(0, len(lengths) - 1))
    rng = np.random.default_rng(seed)
    alphabet = Alphabet(["a", "b", "c"])
    lm = estimate([["a", "b"], ["b", "c", "a"], ["c"]], order=2,
                  discount=0.5, vocab=list(alphabet.labels))
    den = flatten_denominator(build_denominator_graph(alphabet, lm))
    batch = []
    for i, frames in enumerate(lengths):
        if i == bad:
            # two labels in one frame: no path through the reference
            frames, labels = 1, [1, 2]
        else:
            # at most two frames per label, which a repeat may need
            labels = rng.integers(1, 4, rng.integers(0, frames // 2 + 1))
        batch.append((rng.normal(size=(frames, input_dim)), list(labels)))
    log_pls = list(rng.normal(-5.0, 1.0, len(batch)))
    got_model, want_model = (
        AcousticModel(input_dim, specs, alphabet.num_state_symbols,
                      seed=seed, dropout=dropout) for _ in range(2))
    got_model.training = want_model.training = True

    posts, want_objs, want_grads = frozen_minibatch_step(
        want_model, batch, log_pls, den, 0.1)
    got_model.zero_grads()
    post, got_objs = _batch_step(got_model, batch, log_pls, den, 0.1)

    _assert_close(post, np.concatenate(posts))
    assert [i for i, obj in enumerate(want_objs) if obj is None] == [bad]
    assert [i for i, obj in enumerate(got_objs) if obj is None] == [bad]
    for got, want in zip(got_objs, want_objs):
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12, abs=0)
    for (_, got), want in zip(got_model.gradients(), want_grads):
        _assert_close(got, want)


def test_training_deterministic_under_seed():
    def run():
        train_set, heldout, alphabet, table, log_pls = _toy_setup()
        model = AcousticModel(8, [LayerSpec("affine", 8), LayerSpec("tanh")],
                              alphabet.num_state_symbols, seed=0)
        config = TrainConfig(epochs=2, seed=0, learning_rate=1e-2)
        metrics = train(model, train_set, table, log_pls, config, alphabet,
                        heldout=heldout)
        return metrics, [p.copy() for _, p in model.parameters()]

    m1, p1 = run()
    m2, p2 = run()
    assert f"{m1[0].objective:.12f}" == f"{m2[0].objective:.12f}"
    assert m1 == m2
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_training_objective_mostly_improves():
    """Soft property: first epochs improve the objective for most seeds."""
    improved = 0
    for seed in range(10):
        train_set, heldout, alphabet, table, log_pls = _toy_setup(seed=seed + 20)
        model = AcousticModel(8, [LayerSpec("affine", 8), LayerSpec("tanh")],
                              alphabet.num_state_symbols, seed=seed)
        config = TrainConfig(epochs=5, seed=seed, learning_rate=0.01,
                             optimizer="sgd")
        metrics = train(model, train_set, table, log_pls, config, alphabet)
        objs = [m.objective for m in metrics]
        if all(b >= a - 1e-9 for a, b in zip(objs, objs[1:])):
            improved += 1
    assert improved >= 9, improved


def test_adam_and_sgd_step_shapes():
    model = tiny_model()
    grads = [(n, np.ones_like(g)) for n, g in model.gradients()]
    for opt in (Sgd(0.1), Adam(0.1)):
        before = [p.copy() for _, p in model.parameters()]
        opt.step(model.parameters(), grads)
        changed = any(not np.array_equal(p, b)
                      for (_, p), b in zip(model.parameters(), before))
        assert changed


@pytest.mark.parametrize("field,value", [
    ("alpha", -0.1), ("alpha", math.nan), ("alpha", math.inf),
    ("learning_rate", -1e-2), ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("clip_norm", 0.0), ("clip_norm", math.nan),
])
def test_train_config_rejects_out_of_range_values(field, value):
    # NaN fails every comparison, so a check written as `x < 0` lets it by;
    # an infinite step or weight made the first update non-finite
    with pytest.raises(DataError):
        TrainConfig(**{field: value})


def test_train_config_takes_an_infinite_clip_norm():
    # no gradient norm is above it: clipping is off
    assert TrainConfig(clip_norm=math.inf).clip_norm == math.inf


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
@pytest.mark.parametrize("value", [0, -1, 2.5, math.nan, True])
def test_train_config_rejects_a_count_that_is_not_an_integer(field, value):
    # 2.5 failed in train with a TypeError, and True trained one epoch
    with pytest.raises(DataError, match="must be an integer >= 1"):
        TrainConfig(**{field: value})


def test_train_config_takes_numpy_integer_counts(den_table_ab, ab2):
    data = [(np.ones((3, 4)), [1]), (np.ones((4, 4)), [2])]
    got, want = ([(m.epoch, m.objective) for m in train(
        tiny_model(), data, den_table_ab, [-1.0, -1.0], config, ab2)]
        for config in (TrainConfig(epochs=np.int64(2), batch_size=np.int32(1)),
                       TrainConfig(epochs=2, batch_size=1)))
    assert len(got) == 2 and got == want


def test_train_empty_dataset_rejected(den_table_ab, ab2):
    model = tiny_model()
    with pytest.raises(DataError):
        train(model, [], den_table_ab, [], TrainConfig(epochs=1), ab2)


def test_train_rejects_zero_frame_utterance():
    train_set, _, alphabet, table, log_pls = _toy_setup()
    features, _ = train_set[5]
    train_set[5] = (features[:0], [])
    model = AcousticModel(8, [LayerSpec("affine", 8), LayerSpec("tanh")],
                          alphabet.num_state_symbols, seed=0)
    with pytest.raises(DataError, match="training utterance 5 has no frames"):
        train(model, train_set, table, log_pls, TrainConfig(epochs=1),
              alphabet)


def test_divergence_aborts_and_restores(den_table_ab, ab2, rng):
    # huge features plus a huge learning rate overflow the logits within a
    # couple of epochs; the model must come back restored to the end of the
    # last good epoch and stay usable
    dataset = [(rng.normal(size=(6, 4)) * 1e200, [1]) for _ in range(4)]
    model = AcousticModel(4, [], 3, seed=0)
    config = TrainConfig(epochs=10, learning_rate=1e10,
                         clip_norm=float("inf"), seed=0, optimizer="sgd")
    with pytest.raises(NumericalError, match="restored"):
        train(model, dataset, den_table_ab, [0.0] * 4, config, ab2)
    for _, p in model.parameters():
        assert np.isfinite(p).all()
    model.forward(dataset[0][0])  # restored parameters still usable
