import tracemalloc

import numpy as np
import pytest
from oracles import bayes_risk, std_normal_cdf

from riskcurves.data import (
    ColumnTransform,
    CsvSource,
    Dataset,
    GaussianSpec,
    append_random_features,
    gen_two_gaussians,
    load_csv,
    split_indices,
    subsample_indices,
)
from riskcurves.errors import (
    DimensionMismatch,
    MalformedCsv,
    MissingFile,
    MoreThanTwoClasses,
    NonNumericFeature,
    OutOfRange,
)


def _spec(**kw):
    base = dict(dim=6, informative=2, separation=2.0)
    base.update(kw)
    return GaussianSpec(**base)


def test_dataset_validation():
    with pytest.raises(DimensionMismatch):
        Dataset(x=np.zeros((3, 2)), y=np.array([1, -1]))
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((2, 2)), y=np.array([1, 2]))
    with pytest.raises(ValueError):
        Dataset(x=np.array([[np.inf, 0.0]]), y=np.array([1]))


def test_dataset_copies_caller_arrays():
    x, y = np.ones((3, 2)), np.array([1, -1, 1])
    ds = Dataset(x=x, y=y)
    x[0, 0], y[0] = 5.0, -1
    assert ds.x[0, 0] == 1.0 and ds.y[0] == 1
    assert not np.shares_memory(ds.x, x) and not np.shares_memory(ds.y, y)


def test_adopting_constructor_runs_the_same_checks():
    with pytest.raises(ValueError):
        Dataset._own(np.zeros(3), np.array([1, -1, 1]))
    with pytest.raises(DimensionMismatch):
        Dataset._own(np.zeros((3, 2)), np.array([1, -1]))
    with pytest.raises(ValueError):
        Dataset._own(np.zeros((2, 2)), np.array([1, 2]))
    with pytest.raises(ValueError):
        Dataset._own(np.zeros((0, 2)), np.array([], dtype=int))
    with pytest.raises(ValueError):
        Dataset._own(np.array([[np.nan, 0.0]]), np.array([1]))
    x = np.zeros((2, 2))
    assert Dataset._own(x, np.array([1, -1])).x is x


def _assert_fresh(ds, *inputs):
    for arr in (ds.x, ds.y):
        assert not any(np.shares_memory(arr, other) for other in inputs)
    assert ds.x.dtype == np.float64 and ds.x.flags.c_contiguous and ds.x.flags.writeable


def test_data_steps_return_arrays_of_their_own(tmp_path):
    pool = gen_two_gaussians(_spec(), 40, 42)
    _assert_fresh(pool)
    _assert_fresh(append_random_features(pool, 3, 1.0, seed=4), pool.x, pool.y)
    _assert_fresh(load_csv(_write(tmp_path, "a,b,cls\n1,2,p\n3,4,q\n"), "cls", "p"))


def test_gen_two_gaussians_equals_one_draw_per_class():
    spec = _spec()
    rng = np.random.default_rng(9)
    mu = spec.mean_vector()
    expected = np.vstack([rng.standard_normal((25, 6)) + mu, rng.standard_normal((25, 6)) - mu])
    assert gen_two_gaussians(spec, 50, 9).x.tobytes() == expected.tobytes()


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(dim=0, informative=1, separation=1.0)
    with pytest.raises(ValueError):
        GaussianSpec(dim=3, informative=4, separation=1.0)
    with pytest.raises(ValueError):
        GaussianSpec(dim=3, informative=1, separation=-0.5)
    for bad in (dict(dim=True), dict(dim=8.0), dict(dim=2**63), dict(separation="2")):
        with pytest.raises(ValueError):
            GaussianSpec(**{"dim": 8, "informative": 2, "separation": 2.0, **bad})


def test_csv_source_validation():
    assert CsvSource("x.csv", "y", "p").standardize is True
    with pytest.raises(ValueError):
        CsvSource(path=5, label_column="y", positive_label="p")
    with pytest.raises(ValueError):
        CsvSource(path="x.csv", label_column="y", positive_label="p", standardize="no")


def test_gen_deterministic_and_balanced():
    ds1 = gen_two_gaussians(_spec(), 40, 42)
    ds2 = gen_two_gaussians(_spec(), 40, 42)
    assert np.array_equal(ds1.x, ds2.x) and np.array_equal(ds1.y, ds2.y)
    assert int(np.sum(ds1.y == 1)) == 20 and int(np.sum(ds1.y == -1)) == 20
    assert gen_two_gaussians(_spec(), 40, 43).x[0, 0] != ds1.x[0, 0]


@pytest.mark.parametrize(
    "seed, pinned",
    [
        (0, (1.5399437834664882, -1.6330052263056407, -0.31630015636915454)),
        (9, (0.6113766263902183, 1.1081138483763397, 1.3924692044318112)),
        (2**64 - 1, (2.1355500194499677, -0.7300237621334748, -0.004051552597084868)),  # mix's largest seed
    ],
)
def test_gen_seed_argument_draws_what_the_seed_field_drew(seed, pinned):
    # values of the draw when the seed was a GaussianSpec field, with the same spec and seed
    ds = gen_two_gaussians(_spec(), 3, seed)
    assert (ds.x[0, 0], ds.x[2, 1], ds.x[2, 5]) == pinned and ds.y.tolist() == [1, 1, -1]
    if seed == 0:
        assert np.array_equal(gen_two_gaussians(_spec(), 3).x, ds.x)  # the default seed


def test_gen_seed_follows_the_number_rule():
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="seed"):
            gen_two_gaussians(_spec(), 4, bad)


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: gen_two_gaussians(_spec(), 4, seed).x,
        lambda seed: append_random_features(gen_two_gaussians(_spec(), 4), 2, 1.0, seed).x,
        lambda seed: np.concatenate(split_indices(gen_two_gaussians(_spec(), 8).y, 3, seed)),
        lambda seed: subsample_indices(gen_two_gaussians(_spec(), 8).y, 3, seed),
    ],
    ids=["gen_two_gaussians", "append_random_features", "split_indices", "subsample_indices"],
)
def test_public_draws_share_one_seed_rule(draw):
    # an integer >= 0, not a bool; no upper bound, as mix's seeds reach 2**64 - 1
    for bad in (True, False, 1.0, 1.5, "1", None, -1, np.int64(-1)):
        with pytest.raises(ValueError, match=r"^seed must be "):
            draw(bad)
    for good in (0, np.int64(7), 2**64 - 1, 2**70):
        assert np.array_equal(draw(good), draw(int(good)))


def test_gen_draws_any_size_and_rejects_empty():
    odd, even = gen_two_gaussians(_spec(), 7, 42), gen_two_gaussians(_spec(), 8, 42)
    assert odd.y.tolist() == [1, 1, 1, 1, -1, -1, -1]  # class +1 gets the extra row, first
    assert np.array_equal(odd.x, even.x[:7]) and np.array_equal(odd.y, even.y[:7])
    one = gen_two_gaussians(_spec(), 1, 42)
    assert one.y.tolist() == [1] and np.array_equal(one.x, odd.x[:1])
    with pytest.raises(ValueError):
        gen_two_gaussians(_spec(), 0, 42)


def test_gen_zero_separation_has_chance_bayes_risk():
    spec = _spec(dim=2, informative=1, separation=0.0)
    ds = gen_two_gaussians(spec, 4, 42)
    assert ds.n_samples == 4
    assert bayes_risk(spec.mean_vector()) == 0.5


def test_gen_class_mean_gap_matches_two_mu():
    spec = _spec(dim=8, informative=3, separation=1.5)
    n = 10_000
    ds = gen_two_gaussians(spec, n, 4)
    gap = ds.x[ds.y == 1].mean(axis=0) - ds.x[ds.y == -1].mean(axis=0)
    assert np.all(np.abs(gap - 2.0 * spec.mean_vector()) < 4.0 / np.sqrt(n))


def test_append_random_features_structure():
    ds = gen_two_gaussians(_spec(dim=4), 12, 42)
    out = append_random_features(ds, k=3, sigma=0.5, seed=9)
    assert out.x.shape == (12, 7)
    assert np.array_equal(out.x[:, :4], ds.x)
    assert np.array_equal(out.y, ds.y)
    again = append_random_features(ds, k=3, sigma=0.5, seed=9)
    assert np.array_equal(out.x, again.x)
    assert not np.array_equal(
        out.x[:, 4:], append_random_features(ds, 3, 0.5, seed=10).x[:, 4:]
    )


def test_append_random_features_moments():
    ds = gen_two_gaussians(_spec(dim=2), 10_000, 1)
    sigma = 2.0
    out = append_random_features(ds, k=2, sigma=sigma, seed=3)
    means = out.x[:, 2:].mean(axis=0)
    assert np.all(np.abs(means) < 4.0 * sigma / np.sqrt(10_000))


def test_append_random_features_validation():
    ds = gen_two_gaussians(_spec(), 4, 42)
    with pytest.raises(ValueError):
        append_random_features(ds, 0, 1.0, 1)
    with pytest.raises(ValueError):
        append_random_features(ds, 2, 0.0, 1)


def test_split_partitions_all_rows():
    y = gen_two_gaussians(_spec(), 30, 8).y
    tr, te = split_indices(y, 11, seed=4)
    assert len(tr) == 11 and len(te) == 19
    assert sorted([*tr, *te]) == list(range(30))  # disjoint, and every row once
    assert np.all(np.diff(tr) > 0) and np.all(np.diff(te) > 0)
    # stratification within one row of proportional
    assert abs(int(np.sum(y[tr] == 1)) - 11 / 2) <= 0.5 + 1e-9


def test_split_determinism_and_edges():
    y = gen_two_gaussians(_spec(), 30, 8).y
    a1, b1 = split_indices(y, 7, seed=3)
    a2, b2 = split_indices(y, 7, seed=3)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    tr, te = split_indices(y, 29, seed=0)
    assert len(te) == 1
    with pytest.raises(OutOfRange):
        split_indices(y, 0, seed=0)
    with pytest.raises(OutOfRange):
        split_indices(y, 30, seed=0)
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match=f"^n_train must be int, got {bad}$"):
            split_indices(y, bad, seed=0)


def test_subsample_stratified():
    y = gen_two_gaussians(_spec(), 40, 2).y
    idx = subsample_indices(y, 9, seed=5)
    assert len(idx) == 9
    assert abs(int(np.sum(y[idx] == 1)) - int(np.sum(y[idx] == -1))) <= 1
    assert np.array_equal(idx, subsample_indices(y, 9, seed=5))
    assert np.all(np.diff(idx) > 0)
    with pytest.raises(OutOfRange):
        subsample_indices(y, 1, seed=0)
    with pytest.raises(OutOfRange):
        subsample_indices(y, 41, seed=0)
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match=f"^n must be int, got {bad}$"):
            subsample_indices(y, bad, seed=0)


def _transformed(tf, x):
    out = x.copy()
    tf.apply_in_place(out)
    return out


def test_standardize_train_statistics():
    rng = np.random.default_rng(12)
    train, test = rng.normal(3.0, 2.5, size=(50, 4)), rng.normal(3.0, 2.5, size=(20, 4))
    tf = ColumnTransform.fit(train)
    tr = _transformed(tf, train)
    assert np.all(np.abs(tr.mean(axis=0)) <= 1e-12)
    assert np.all(np.abs(tr.std(axis=0) - 1.0) <= 1e-9)
    # the statistics are the train rows' alone; the test rows take the same map
    assert np.array_equal(tf.mean, train.mean(axis=0)) and np.array_equal(tf.scale, train.std(axis=0))
    assert np.array_equal(_transformed(tf, test), (test - tf.mean) / tf.scale)


def test_column_transform_is_shift_then_scale():
    rng = np.random.default_rng(5)
    tf = ColumnTransform.fit(rng.normal(1.0, 3.0, size=(30, 5)))
    x = rng.normal(1.0, 3.0, size=(12, 5))
    assert _transformed(tf, x).tobytes() == ((x - tf.mean) / tf.scale).tobytes()


def test_standardize_constant_column():
    x = np.column_stack([np.full(6, 2.0), np.arange(6, dtype=float)])
    tf = ColumnTransform.fit(x)
    assert np.all(_transformed(tf, x)[:, 0] == 0.0)
    assert tf.scale[0] == 1.0


# -- CSV ---------------------------------------------------------------------


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path, "a,b,cls\n1,2,p\n3,4,q\n5,6,p\n")
    ds = load_csv(p, "cls", "p")
    assert ds.x.shape == (3, 2)
    assert np.array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ds.y, [1, -1, 1])
    again = load_csv(p, "cls", "p")
    assert np.array_equal(ds.x, again.x) and np.array_equal(ds.y, again.y)
    padded = _write(tmp_path, 'a,b,cls\r\n" 1.5 ",2,p\r\n3, 4 , q \r\n', "crlf.csv")
    ds = load_csv(padded, "cls", "q")
    assert np.array_equal(ds.x, [[1.5, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.y, [-1, 1])


def test_load_csv_label_column_position(tmp_path):
    for name, text in (("first.csv", "cls,a\np,1\nq,2\n"), ("bom.csv", "\ufeffcls,a\np,1\nq,2\n")):
        ds = load_csv(_write(tmp_path, text, name), "cls", "q")
        assert np.array_equal(ds.y, [-1, 1])
        assert np.array_equal(ds.x, [[1.0], [2.0]])
    middle = _write(tmp_path, "a,b,cls,c,d\n1,2,p,3,4\n5,6,q,7,8\n", "middle.csv")
    ds = load_csv(middle, "cls", "p")
    assert np.array_equal(ds.y, [1, -1])
    assert np.array_equal(ds.x, [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    bom_later = _write(tmp_path, "\ufeffa,cls\nx,p\n1,q\n", "bom_later.csv")
    with pytest.raises(NonNumericFeature, match="column 'a'"):
        load_csv(bom_later, "cls", "p")


def test_load_csv_non_numeric_cell_is_located(tmp_path):
    p = _write(tmp_path, "a,b,cls\n1,2,p\n3,oops,q\n")
    with pytest.raises(NonNumericFeature) as err:
        load_csv(p, "cls", "p")
    assert "line 3" in str(err.value) and "'b'" in str(err.value) and "oops" in str(err.value)
    then_ragged = _write(tmp_path, "a,b,cls\n1,2,p\n3,oops,q\n5,6,p\n7,q\n", "then_ragged.csv")
    with pytest.raises(NonNumericFeature, match="line 3, column 'b'"):
        load_csv(then_ragged, "cls", "p")


def test_load_csv_missing_value_is_error(tmp_path):
    p = _write(tmp_path, "a,b,cls\n1,,p\n3,4,q\n")
    with pytest.raises(NonNumericFeature):
        load_csv(p, "cls", "p")


def test_load_csv_nan_token_is_error(tmp_path):
    p = _write(tmp_path, "a,cls\nnan,p\n1,q\n")
    with pytest.raises(NonNumericFeature):
        load_csv(p, "cls", "p")
    for token in ("inf", "-inf"):
        p = _write(tmp_path, f"a,b,cls\n1,2,p\n3,{token},q\n", f"{token}.csv")
        with pytest.raises(NonNumericFeature, match=f"non-finite value '{token}' at line 3, column 'b'"):
            load_csv(p, "cls", "p")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_csv(tmp_path / "absent.csv", "cls", "p")


def test_load_csv_class_count_errors(tmp_path):
    three = _write(tmp_path, "a,cls\n1,p\n2,q\n3,r\n", "three.csv")
    with pytest.raises(MoreThanTwoClasses):
        load_csv(three, "cls", "p")
    one = _write(tmp_path, "a,cls\n1,p\n2,p\n", "one.csv")
    with pytest.raises(ValueError):
        load_csv(one, "cls", "p")
    two = _write(tmp_path, "a,cls\n1,p\n2,q\n", "two.csv")
    with pytest.raises(ValueError):
        load_csv(two, "cls", "zzz")


def test_load_csv_structural_errors(tmp_path):
    with pytest.raises(ValueError):
        load_csv(_write(tmp_path, "a,b,cls\n1,2\n", "ragged.csv"), "cls", "p")
    ragged_first = _write(tmp_path, "a,b,cls\n1,2\n3,4,p\n5,oops,q\n", "ragged_first.csv")
    with pytest.raises(ValueError, match="line 2 has 2 cells, expected 3"):
        load_csv(ragged_first, "cls", "p")
    with pytest.raises(MalformedCsv, match="empty.csv: empty file"):
        load_csv(_write(tmp_path, "", "empty.csv"), "cls", "p")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"a,cls\n1,p\xe9\n2,q\n")
    with pytest.raises(MalformedCsv, match="latin1.csv: 'utf-8' codec can't decode"):
        load_csv(latin1, "cls", "p")
    with pytest.raises(ValueError):
        load_csv(_write(tmp_path, "a,b\n1,2\n", "nolabel.csv"), "cls", "p")
    with pytest.raises(ValueError):
        load_csv(_write(tmp_path, "cls\np\nq\n", "nofeat.csv"), "cls", "p")


def test_load_csv_skips_blank_lines(tmp_path):
    ds = load_csv(_write(tmp_path, "a,b,label\n1,2,p\n\n3,4,n\n\n", "blank.csv"), "label", "p")
    np.testing.assert_array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ds.y, [1, -1])
    # later errors keep their physical line numbers; spaces or a ragged row are no blank line
    for text, message in (
        ("a,b,label\n1,2,p\n\n3,oops,n\n", "non-numeric value 'oops' at line 4"),
        ("a,b,label\n1,2,p\n \n3,4,n\n", "line 3 has 1 cells, expected 3"),
        ("a,b,label\n1,2,p\n\n3,4\n", "line 4 has 2 cells, expected 3"),
        ("a,b,label\n\n\n", "no data rows"),
    ):
        with pytest.raises(MalformedCsv, match=message):
            load_csv(_write(tmp_path, text, "bad.csv"), "label", "p")


def test_informative_prefix_bayes_decay():
    spec = GaussianSpec(dim=12, informative=4, separation=2.0)
    mu = spec.mean_vector()
    risks = [bayes_risk(mu[:m]) for m in range(1, 13)]
    for m, risk in enumerate(risks, start=1):
        expected = std_normal_cdf(-2.0 * np.sqrt(min(m, 4) / 4))
        assert abs(risk - expected) < 1e-12
    assert all(b <= a + 1e-15 for a, b in zip(risks, risks[1:]))
    assert all(abs(r - risks[3]) < 1e-15 for r in risks[3:])


def test_load_csv_holds_the_matrix_about_once(tmp_path):
    rng = np.random.default_rng(31)
    values = rng.standard_normal((3000, 40))
    lines = [",".join([f"f{j}" for j in range(40)] + ["cls"])]
    lines += [",".join([*map(repr, row.tolist()), "pq"[i % 2]]) for i, row in enumerate(values)]
    p = _write(tmp_path, "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        ds = load_csv(p, "cls", "p")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.x, values)
    assert peak <= 2 * ds.x.nbytes
