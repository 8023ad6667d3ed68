import numpy as np
import pytest

from microloc import NotFitted, WavefrontDetector, scan
from microloc import gabor, lattice, seminorm, signal, wavefront
from microloc.fixtures import jump_1d


@pytest.fixture(scope="module")
def fitted():
    return WavefrontDetector(q=1.0, p=1.0, s=1.0, method="fl").fit(jump_1d())


def test_predict_codes(fitted):
    X = np.array([[0.0, 1.0], [0.0, -1.0], [3.0, 1.0], [1.0, 1.0]])
    codes = fitted.predict(X)
    assert codes.tolist() == [1, 1, 0, 0]


def test_predict_records(fitted):
    est = fitted.predict_records([[0.0, 1.0]])
    assert len(est.records) == 1
    assert est.records[0].verdict_fl.kind == "divergent"


def test_predict_records_repeated_and_interleaved_rows(monkeypatch):
    # One prediction over several x0s is one scan of its rows: it enumerates
    # one ball and transforms each Gabor row its x0s read once (a row whose
    # window misses the signal support is never transformed), and every
    # record is the one a scan of its row alone gives.
    det = WavefrontDetector(q=1.0, s=1.0, method="both").fit(jump_1d())
    X = [[0.0, 1.0], [3.0, -1.0], [0.0, -1.0], [0.0, 1.0], [3.0, 1.0]]
    balls, windows, rows = [], [], []

    def counted(*args, **kwargs):
        balls.append(args)
        return points_in_ball(*args, **kwargs)

    def analysis(f, ball, scale, window, shifts):
        windows.append(window)
        return core(f, ball, scale, window, shifts)

    def sampled(window, shifts, *args):
        # the Gabor windows' rows, not the FL cutoffs'
        if any(window is w for w in windows):
            rows.extend((window.scale, *shift) for shift in shifts.tolist())
        return window_batch(window, shifts, *args)

    points_in_ball, core = lattice.points_in_ball, gabor._analysis
    window_batch = signal._window_batch
    for mod in (lattice, seminorm, gabor, wavefront):
        if hasattr(mod, "points_in_ball"):
            monkeypatch.setattr(mod, "points_in_ball", counted)
    monkeypatch.setattr(gabor, "_analysis", analysis)
    monkeypatch.setattr(signal, "_window_batch", sampled)
    est = det.predict_records(X)
    assert len(balls) == 1
    assert rows and len(set(rows)) == len(rows)
    predicted = rows.copy()
    rows.clear()
    assert len(est.records) == len(X)
    for row, rec in zip(X, est.records):
        alone = scan(det.signal_, [row[:1]], [row[1:]], det.config_).records[0]
        assert rec.to_json() == alone.to_json()
    assert sorted(predicted) == sorted(set(rows))


def test_both_methods_demand_agreement():
    det = WavefrontDetector(q=1.0, s=1.0, method="both").fit(jump_1d())
    codes = det.predict([[0.0, 1.0], [1.0, 1.0]])
    assert codes.tolist() == [1, 0]


def test_score(fitted):
    X = [[0.0, 1.0], [3.0, 1.0]]
    assert fitted.score(X, [1, 0]) == 1.0
    assert fitted.score(X, [0, 1]) == 0.0
    # x0 = 0.5 lies on a cell face, so FL refuses it: no prediction is conclusive
    on_face = [[0.5, 1.0], [0.5, -1.0]]
    assert fitted.predict(on_face).tolist() == [-1, -1]
    assert fitted.score(on_face, [1, 0]) == 0.0


@pytest.mark.parametrize("y", [[1], [[1], [0]], [1.7, 0.2]], ids=["short", "column", "fractional"])
def test_score_refuses_labels_that_do_not_fit_the_rows(fitted, y, monkeypatch):
    # one label in {0, 1} per row, checked before any prediction runs
    monkeypatch.setattr(fitted, "predict", lambda X: pytest.fail("predicted before checking y"))
    with pytest.raises(ValueError, match="y must hold one label in"):
        fitted.score([[0.0, 1.0], [3.0, 1.0]], y)


@pytest.mark.parametrize("name,value", [("alpha", True), ("margin", True), ("aperture_deg", "20")])
def test_fit_refuses_settings_that_are_not_numbers(name, value):
    # float() would run True as 1.0 and "20" as 20.0, as ScanConfig does not
    with pytest.raises(ValueError, match=f"{name} must be a number, got {value!r}"):
        WavefrontDetector(**{name: value}).fit(jump_1d(n=2048))


def test_fit_refuses_an_r_max_that_leaves_no_full_shell(tmp_path):
    # refused with the config, whatever rows a prediction would ask: it used
    # to predict -1 at x0 = 9 (outside the domain) and raise at x0 = 0; the
    # settings are checked before a signal file is read (this one is absent)
    for signal in (jump_1d(n=2048), tmp_path / "absent.json"):
        with pytest.raises(ValueError, match="^r_max = 1 leaves no full shell above r0 = 4$"):
            WavefrontDetector(r_max=1.0).fit(signal)
    WavefrontDetector(r_max=8.5).fit(jump_1d(n=2048))


def test_get_set_params_round_trip():
    det = WavefrontDetector(q=2.0, s=0.5, aperture_deg=15.0)
    params = det.get_params()
    clone = WavefrontDetector(**params)  # sklearn-style clone
    assert clone.get_params() == params
    det.set_params(q=1.0, margin=0.2)
    assert det.q == 1.0 and det.margin == 0.2
    with pytest.raises(ValueError):
        det.set_params(bogus=1)


def test_not_fitted_and_input_validation():
    det = WavefrontDetector()
    with pytest.raises(NotFitted):
        det.predict([[0.0, 1.0]])
    with pytest.raises(TypeError):
        det.fit(np.zeros(8))
    det.fit(jump_1d(n=2048))
    with pytest.raises(ValueError):
        det.predict([[0.0, 1.0, 2.0]])  # wrong row width for d = 1
    # numbers of any type are taken as floats
    numbers = WavefrontDetector(aperture_deg=20, alpha=1, beta=np.float64(1.0)).fit(det.signal_)
    assert numbers.config_ == det.config_ and type(numbers.config_.alpha) is float


@pytest.mark.parametrize("row", [[0.0, True], ["0", "1"]], ids=["bool", "text"])
def test_predict_refuses_rows_that_are_not_numbers(fitted, row):
    # float() would read True as 1.0 and "1" as 1.0, a query nobody asked
    with pytest.raises(ValueError, match="queries must hold numbers only"):
        fitted.predict([row])
    with pytest.raises(ValueError, match="queries must hold numbers only"):
        fitted.predict_records([[3.0, 1.0], row])


def test_fit_from_path(tmp_path):
    from microloc import save_signal

    f = jump_1d(n=2048)
    save_signal(f, tmp_path / "sig")
    det = WavefrontDetector(q=1.0, s=1.0, method="fl").fit(tmp_path / "sig.json")
    assert det.predict([[0.0, 1.0]]).tolist() == [1]


def test_invalid_method_rejected():
    with pytest.raises(ValueError):
        WavefrontDetector(method="nope").fit(jump_1d(n=2048))
