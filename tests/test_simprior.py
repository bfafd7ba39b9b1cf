import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprior import engine
from segprior.class_semantics import ClassRegistry, EmbeddingTable, similarity_matrix
from segprior.engine import EngineConfig, SegModel, StepState
from segprior.objectives import LossConfig, sigmoid
from segprior.protocol import Sample
from segprior.simprior import rasp_target_table
from segprior.synthdata import default_taxonomy


@pytest.fixture(scope="module")
def setup():
    tax = default_taxonomy()
    sim = similarity_matrix(tax.registry, tax.embeddings)
    return tax.registry, sim


def squashed(ratio, dtype):
    """Both sigmoids of the RaSP target: float64, then the model dtype."""
    return sigmoid(sigmoid(np.asarray(ratio, dtype=np.float64)).astype(dtype))


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

def test_similarity_map_values(setup):
    registry, sim = setup
    old = ["bkg", "disc_solid", "box_solid"]
    table = rasp_target_table(sim, registry, old, ["disc_striped"], 5.0, np.float64)
    assert table.shape == (3, 1) and table.dtype == np.float64
    # bkg row: ratio 1; related old class: exp((S(disc_solid, disc_striped)
    # - S(bkg, .)) / tau); unrelated old class: a smaller ratio
    want = squashed([1.0, math.exp((-0.1 + 1.0) / 5.0), math.exp((-0.9 + 1.0) / 5.0)],
                    np.float64)
    assert table[0, 0] == want[0]
    np.testing.assert_allclose(table[:, 0], want, rtol=1e-12)


def test_similarity_map_frozen_value():
    """tau=5, S(old,new)=-0.2, S(bkg,new)=-1.0: ratio exp(0.16), via a scalar oracle."""
    registry = ClassRegistry(["bkg", "old", "new"])
    sim = np.array([
        [0.0, -0.6, -1.0],
        [-0.6, 0.0, -0.2],
        [-1.0, -0.2, 0.0],
    ])
    table = rasp_target_table(sim, registry, ["bkg", "old"], ["new"], 5.0, np.float64)
    inner = 1.0 / (1.0 + math.exp(-1.1735108709918103))
    assert table[1, 0] == pytest.approx(1.0 / (1.0 + math.exp(-inner)), rel=1e-12)


def test_equal_similarity_gives_one():
    registry = ClassRegistry(["bkg", "old", "new"])
    sim = np.array([
        [0.0, -0.6, -0.7],
        [-0.6, 0.0, -0.7],
        [-0.7, -0.7, 0.0],
    ])
    for dtype in (np.float32, np.float64):
        table = rasp_target_table(sim, registry, ["bkg", "old"], ["new"], 3.0, dtype)
        assert np.all(table == squashed(1.0, dtype))


def test_similarity_map_errors(setup):
    registry, sim = setup
    with pytest.raises(ValueError, match="tau"):
        rasp_target_table(sim, registry, ["bkg"], ["disc_striped"], 0.0, np.float32)
    with pytest.raises(ValueError, match="unknown"):
        rasp_target_table(sim, registry, ["bkg"], ["unknown"], 5.0, np.float32)


def test_invariants_random_label_maps(setup):
    """bkg rows give ratio 1, the sign of (ratio - 1) is the sign of the
    similarity difference, and a larger tau pulls every target toward the
    bkg row's; over random class splits, embeddings and tau."""
    registry, sim = setup
    rng = np.random.default_rng(0)
    random_emb = EmbeddingTable.from_mapping(
        {name: rng.standard_normal(5) for name in registry.names})
    names = registry.names
    for s in (sim, similarity_matrix(registry, random_emb)):
        for dtype in (np.float32, np.float64):
            one = squashed(1.0, dtype)
            for _ in range(20):
                order = rng.permutation(len(names) - 1) + 1
                n_old = int(rng.integers(1, len(names) - 1))
                old = ["bkg"] + [names[i] for i in order[:n_old - 1]]
                new = [names[i] for i in order[n_old - 1:]]
                tau = float(rng.uniform(0.5, 10.0))
                table = rasp_target_table(s, registry, old, new, tau, dtype)
                wide = rasp_target_table(s, registry, old, new, tau * 4.0, dtype)
                assert table.dtype == dtype
                assert np.all(table[0] == one) and np.all(wide[0] == one)
                rows = [registry.index_of(n) for n in old]
                cols = [registry.index_of(n) for n in new]
                diff = s[np.ix_(rows, cols)] - s[0, cols]
                assert np.array_equal(np.sign(table - one), np.sign(diff))
                assert np.array_equal(np.sign(wide - one), np.sign(diff))
                moved = diff != 0
                assert np.all(np.abs(wide - one)[moved] < np.abs(table - one)[moved])


def test_relabeling_invariance():
    """Targets depend on names and embeddings only, not on index layout."""
    table = EmbeddingTable.from_mapping({
        "bkg": [1.0, 0.0, 0.0],
        "cow": [0.0, 1.0, 0.0],
        "sheep": [0.0, 0.8, 0.6],
    })
    reg_a = ClassRegistry(["bkg", "cow", "sheep"])
    reg_b = ClassRegistry(["bkg", "sheep", "cow"])
    got = [rasp_target_table(similarity_matrix(reg, table), reg, ["bkg", "cow"],
                             ["sheep"], 5.0, np.float64)
           for reg in (reg_a, reg_b)]
    np.testing.assert_allclose(got[0], got[1], rtol=0, atol=1e-12)
    assert got[0][1, 0] > got[0][0, 0]


# ---------------------------------------------------------------------------
# The per-image lookup in the engine
# ---------------------------------------------------------------------------

def scored_step(registry, old_names, new_names, logits, labels, dtype="float32",
                batch_size=24, tau=5.0, lambda_rasp=1.0):
    """A step whose old model's encoder repeats the first channel of its
    input as the encoder's features and whose head returns fixed logits:
    image j is filled with the value j, which picks logits[j].  The images
    are twice the logits' height and width, so the network input has the
    logits' size.  Returns the state and one mask-less sample per image,
    showing the classes of its labels."""
    def head(feat):
        idx = np.rint((feat[:, 0, 0, 0] + 0.5) * 255.0).astype(int)
        return logits[idx].astype(feat.dtype), None

    def encoder(x):
        return np.repeat(x[..., :1], engine.ENCODER_CHANNELS[-1], axis=3)

    old = SimpleNamespace(class_names=tuple(old_names),
                          encoder=SimpleNamespace(infer=encoder),
                          head=SimpleNamespace(forward=head))
    cfg = EngineConfig(batch_size=batch_size)
    state = StepState(
        step=1, old_model=old,
        model=SegModel.init(tuple(old_names) + tuple(new_names), seed=0,
                            dtype=np.dtype(dtype).type),
        loss_cfg=LossConfig(tau=tau, lambda_rasp=lambda_rasp), engine_cfg=cfg)
    h, w = logits.shape[1:3]
    samples = [Sample(image=np.full((2 * h, 2 * w, 3), j, dtype=np.uint8),
                      dense_mask=None,
                      present=frozenset(registry.index_of(n) for n in lab))
               for j, lab in enumerate(labels)]
    return state, samples


def test_argmax_single_channel(setup):
    """With bkg the only old class, every pixel takes the bkg row."""
    registry, sim = setup
    logits = np.random.default_rng(1).standard_normal((2, 3, 3, 1))
    state, samples = scored_step(registry, ["bkg"], ["disc_striped", "box_solid"], logits,
                                 [{"disc_striped"}, {"disc_striped", "box_solid"}])
    pool = engine._prepare_pool(state, samples, [], registry, sim)
    assert pool.winner.dtype == np.uint8 and pool.winner.shape == (2, 3, 3)
    assert pool.rasp_table.shape == (1, 2)
    targets = pool.rasp_table[pool.winner]
    assert targets.shape == (2, 3, 3, 2)
    assert np.all(targets == squashed(1.0, np.float32))


def test_argmax_picks_max_and_breaks_ties_low(setup):
    registry, sim = setup
    old = ["bkg", "disc_solid", "box_solid"]
    logits = np.array([[[[-1.0, 2.0, -3.0], [0.5, 0.5, 0.0], [0.0, 1.0, 1.0]]]])
    state, samples = scored_step(registry, old, ["disc_striped"], logits,
                                 [{"disc_striped"}], dtype="float64")
    pool = engine._prepare_pool(state, samples, [], registry, sim)
    table = rasp_target_table(sim, registry, old, ["disc_striped"], 5.0, np.float64)
    # max -> disc_solid; tie bkg/disc_solid -> bkg; tie disc/box -> disc_solid
    assert np.array_equal(pool.winner[0, 0], [1, 0, 1])
    assert np.array_equal(pool.rasp_table, table)
    assert np.array_equal(pool.rasp_table[pool.winner][0, 0, :, 0], table[[1, 0, 1], 0])


def test_argmax_rejects_bad_input(setup, monkeypatch):
    """Non-finite old scores stop a step before its first batch, with or
    without RaSP."""
    registry, sim = setup
    logits = np.zeros((3, 2, 2, 2))
    logits[2, 1, 0, 1] = np.nan
    fits = []
    monkeypatch.setattr(engine, "_fit", lambda *args: fits.append(args))
    for lambda_rasp in (0.0, 1.0):
        state, samples = scored_step(registry, ["bkg", "disc_solid"], ["disc_striped"],
                                     logits, [{"disc_striped"}] * 3,
                                     lambda_rasp=lambda_rasp)
        before = {k: v.copy() for k, v in state.model.params().items()}
        with pytest.raises(ValueError, match="non-finite"):
            engine.incremental_step(
                state, engine._prepare_pool(state, samples, [], registry, sim))
        assert fits == []
        for k, v in state.model.params().items():
            assert np.array_equal(v, before[k]), k


def reference_targets(y_old, old_names, new_names, registry, sim, tau, dtype):
    """The per-pixel similarity map of each new class, one pixel and one
    class at a time (argmax ties go to the lowest channel), squashed
    twice."""
    h, w, n_old = y_old.shape
    bkg = registry.index_of("bkg")
    scaled = np.empty((h, w, len(new_names)))
    for i in range(h):
        for j in range(w):
            best = 0
            for c in range(1, n_old):
                if y_old[i, j, c] > y_old[i, j, best]:
                    best = c
            row = registry.index_of(old_names[best])
            for k, name in enumerate(new_names):
                col = registry.index_of(name)
                scaled[i, j, k] = (sim[row, col] - sim[bkg, col]) / tau
    return squashed(np.exp(scaled), dtype)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(["float32", "float64"]),
       tau=st.floats(0.1, 20.0), n_old=st.integers(1, 7),
       n_images=st.integers(1, 5), batch_size=st.integers(1, 4),
       hw=st.tuples(st.integers(1, 5), st.integers(1, 5)))
def test_lookup_matches_per_pixel_reference(setup, data, dtype, tau, n_old,
                                            n_images, batch_size, hw):
    """Every image's targets equal the per-pixel reference bitwise, and its
    labels show the new classes it shows on the new channels."""
    registry, sim = setup
    order = data.draw(st.permutations(registry.foreground_names), label="order")
    old_names = ("bkg",) + tuple(order[:n_old - 1])
    new_names = tuple(order[n_old - 1:])
    # small integer logits, so argmax ties are common
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    logits = rng.integers(-2, 3, size=(n_images,) + hw + (n_old,)).astype(np.float64)
    labels = [data.draw(st.sets(st.sampled_from(new_names), min_size=1), label="labels")
              for _ in range(n_images)]
    state, samples = scored_step(registry, old_names, new_names, logits, labels,
                                 dtype=dtype, batch_size=batch_size, tau=tau)
    pool = engine._prepare_pool(state, samples, [], registry, sim)
    assert pool.n_current == len(pool.winner) == n_images
    assert pool.winner.dtype == np.uint8
    assert pool.rasp_table.shape == (n_old, len(new_names))
    np_dtype = state.model.dtype
    for j, lab in enumerate(labels):
        want = reference_targets(pool.y_old[j], old_names, new_names, registry, sim,
                                 tau, np_dtype)
        got = pool.rasp_table[pool.winner[j]]
        assert got.dtype == want.dtype == np_dtype
        assert got.shape == hw + (len(new_names),)
        assert np.array_equal(got, want)
        assert list(np.flatnonzero(pool.labels[j, n_old - 1:])) == \
            sorted(new_names.index(n) for n in lab)
