import datetime
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from newstm.dtm import TrajectorySeries
from newstm.evaluate import IntertopicMap, intertopic_map
from newstm.exports import read_intertopic_csv, write_intertopic_csv
from newstm.viz import FigureSpec, plot_intertopic, plot_timeline, plot_trajectories

from helpers import model_from_beta

SVG_NS = "{http://www.w3.org/2000/svg}"


def _polylines(svg: str):
    root = ET.fromstring(svg)  # raises on malformed XML
    return root.findall(f".//{SVG_NS}polyline")


def _circles(svg: str):
    return ET.fromstring(svg).findall(f".//{SVG_NS}circle")


def _vertices(polyline) -> list[tuple[float, float]]:
    return [
        (float(pair.split(",")[0]), float(pair.split(",")[1]))
        for pair in polyline.get("points").split()
    ]


def _days(*counts):
    base = datetime.date(2020, 1, 1)
    return [(base + datetime.timedelta(days=i), c) for i, c in enumerate(counts)]


def test_figure_spec_validation():
    with pytest.raises(ValueError):
        FigureSpec(title="t", width=0)


def test_timeline_has_single_polyline_with_all_vertices():
    svg = plot_timeline(_days(1, 4, 2), FigureSpec(title="Articles"))
    lines = _polylines(svg)
    assert len(lines) == 1
    assert len(_vertices(lines[0])) == 3


def test_timeline_constant_series_is_horizontal():
    svg = plot_timeline(_days(5, 5, 5, 5), FigureSpec(title="flat"))
    ys = {y for _, y in _vertices(_polylines(svg)[0])}
    assert len(ys) == 1


def test_timeline_requires_ascending_nonempty():
    with pytest.raises(ValueError):
        plot_timeline([], FigureSpec(title="x"))
    day = datetime.date(2020, 1, 1)
    with pytest.raises(ValueError):
        plot_timeline([(day, 1), (day, 2)], FigureSpec(title="x"))


def test_timeline_rejects_a_negative_count():
    with pytest.raises(ValueError, match=r"^timeline count for 2020-01-02 is negative: -3$"):
        plot_timeline(_days(1, -3, 2), FigureSpec(title="x"))


def test_timeline_byte_determinism(tmp_path):
    series = _days(3, 0, 7, 2)
    path_a = tmp_path / "a.svg"
    path_b = tmp_path / "b.svg"
    plot_timeline(series, FigureSpec(title="Articles", path=path_a))
    plot_timeline(series, FigureSpec(title="Articles", path=path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def _series(values: dict[str, list[float]]) -> TrajectorySeries:
    t = len(next(iter(values.values())))
    return TrajectorySeries(
        topic_id=0,
        words=tuple(values),
        series={w: np.array(v) for w, v in values.items()},
        slice_labels=tuple(f"2020-0{i + 1}-17" for i in range(t)),
    )


def test_trajectories_one_polyline_per_word():
    svg = plot_trajectories(
        _series({"kina": [0.1, 0.2, 0.3], "who": [0.3, 0.2, 0.1]}),
        FigureSpec(title="Topic 0"),
    )
    lines = _polylines(svg)
    assert len(lines) == 2
    assert all(len(_vertices(line)) == 3 for line in lines)


def test_trajectories_rising_series_rises_on_inverted_axis():
    svg = plot_trajectories(_series({"upp": [0.1, 0.2, 0.4]}), FigureSpec(title="t"))
    ys = [y for _, y in _vertices(_polylines(svg)[0])]
    assert ys == sorted(ys, reverse=True)  # SVG y grows downward


def test_trajectories_legend_ranked_by_final_probability():
    svg = plot_trajectories(
        _series({"låg": [0.5, 0.01], "hög": [0.01, 0.9], "mitten": [0.2, 0.5]}),
        FigureSpec(title="t"),
    )
    texts = [
        el.text
        for el in ET.fromstring(svg).findall(f".//{SVG_NS}text")
        if el.text in {"låg", "hög", "mitten"}
    ]
    assert texts == ["hög", "mitten", "låg"]


def test_trajectories_empty_series_raises():
    empty = TrajectorySeries(topic_id=0, words=(), series={}, slice_labels=("a",))
    with pytest.raises(ValueError):
        plot_trajectories(empty, FigureSpec(title="t"))


def test_intertopic_single_topic_centered():
    topic_map = IntertopicMap(
        coordinates=np.zeros((1, 2)),
        prevalence=np.ones(1),
        distances=np.zeros((1, 1)),
    )
    spec = FigureSpec(title="map", width=400, height=300)
    circles = _circles(plot_intertopic(topic_map, spec))
    assert len(circles) == 1
    cx, cy = float(circles[0].get("cx")), float(circles[0].get("cy"))
    assert cx == pytest.approx((64 + 400 - 24) / 2)
    assert cy == pytest.approx((40 + 300 - 48) / 2)


def test_intertopic_identical_topics_concentric():
    topic_map = IntertopicMap(
        coordinates=np.zeros((2, 2)),
        prevalence=np.array([0.7, 0.3]),
        distances=np.zeros((2, 2)),
        degenerate=True,
    )
    circles = _circles(plot_intertopic(topic_map, FigureSpec(title="map")))
    assert len(circles) == 2
    centers = {(c.get("cx"), c.get("cy")) for c in circles}
    assert len(centers) == 1
    radii = [float(c.get("r")) for c in circles]
    assert radii[0] > radii[1]  # area tracks prevalence


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_intertopic_rejects_a_non_finite_coordinate(bad):
    topic_map = IntertopicMap(np.array([[0.0, 1.0], [0.5, bad]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"^topic 1 has a NaN or infinite coordinate$"):
        plot_intertopic(topic_map, FigureSpec(title="map"))


@pytest.mark.parametrize("bad", [-0.25, np.nan, np.inf])
def test_intertopic_rejects_a_negative_or_non_finite_prevalence(bad):
    topic_map = IntertopicMap(np.array([[0.0, 1.0], [0.5, 0.0]]), np.array([0.5, bad]))
    message = f"topic 1 has prevalence {bad}; it must be finite and >= 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        plot_intertopic(topic_map, FigureSpec(title="map"))


def _as_tuples(topic_map: IntertopicMap) -> IntertopicMap:
    """The map as `read_intertopic_csv` holds one: tuples of floats."""
    coordinates = tuple((float(x), float(y)) for x, y in topic_map.coordinates)
    return IntertopicMap(coordinates, tuple(float(p) for p in topic_map.prevalence))


@pytest.mark.parametrize(
    "coordinates, prevalence",
    [
        ([[0.0, 1.0], [0.5, np.nan]], [0.5, 0.5]),
        ([[0.0, 1.0], [-np.inf, 0.0]], [0.5, 0.5]),
        ([[0.0, 1.0], [0.5, 0.0]], [0.5, -0.25]),
        ([[0.0, 1.0], [0.5, 0.0]], [0.5, np.nan]),
        ([[0.0, 1.0], [0.5, 0.0]], [np.inf, 0.5]),
    ],
    ids=["nan-y", "minus-inf-x", "negative-prevalence", "nan-prevalence", "inf-prevalence"],
)
def test_intertopic_rejections_read_the_same_on_tuples_as_on_arrays(coordinates, prevalence):
    arrays = IntertopicMap(np.array(coordinates), np.array(prevalence))
    messages = []
    for topic_map in (arrays, _as_tuples(arrays)):
        with pytest.raises(ValueError) as info:
            plot_intertopic(topic_map, FigureSpec(title="map"))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_intertopic_figure_regenerates_from_csv_export(tmp_path):
    model = model_from_beta(np.eye(3), theta=np.full((2, 3), 1 / 3))
    topic_map = intertopic_map(model)
    path = tmp_path / "map.csv"
    write_intertopic_csv(topic_map, path)
    direct = plot_intertopic(topic_map, FigureSpec(title="map"))
    from_csv = plot_intertopic(read_intertopic_csv(path), FigureSpec(title="map"))
    assert direct == from_csv


def test_trajectory_figure_regenerates_from_csv_export(tmp_path):
    # dtm.trajectory holds arrays, the CSV reader tuples: the same figure.
    from helpers import drift_vocab, planted_drift_sliced_corpus
    from newstm.dtm import train_dtm, trajectory
    from newstm.exports import read_trajectory_csv, write_trajectory_csv
    from newstm.lda import LdaHyperparams

    slices, bows = planted_drift_sliced_corpus(seed=3)
    hyper = LdaHyperparams(k=2, alpha=1.0, eta=0.01, iterations=40, burn_in=10, thin=5, seed=17)
    model = train_dtm(slices, bows, hyper, kappa=1.0)
    words = [drift_vocab().decode(i) for i in range(6)]
    path = tmp_path / "traj.csv"
    for topic in range(hyper.k):
        series = trajectory(model, topic, words, drift_vocab())
        write_trajectory_csv([series], path)
        loaded = read_trajectory_csv(path)[0]
        assert all(type(loaded.series[w]) is tuple for w in words)
        direct = plot_trajectories(series, FigureSpec(title="drift"))
        assert plot_trajectories(loaded, FigureSpec(title="drift")) == direct


def test_svgs_are_self_contained():
    svg = plot_timeline(_days(1, 2), FigureSpec(title="Articles"))
    assert "http://www.w3.org/2000/svg" in svg
    assert "href" not in svg  # no external references


def test_drifted_in_word_curve_rises(tmp_path):
    # End to end through the CSV export: the planted drifted-in word's plotted
    # polyline must rise (y shrinking, axis inverted).
    import numpy as np

    from helpers import (
        DRIFT_IN_WORD,
        DRIFT_MARKER_WORD,
        DRIFT_OUT_WORD,
        drift_vocab,
        planted_drift_sliced_corpus,
    )
    from newstm.dtm import train_dtm, trajectory
    from newstm.exports import read_trajectory_csv, write_trajectory_csv
    from newstm.lda import LdaHyperparams

    slices, bows = planted_drift_sliced_corpus(seed=3)
    hyper = LdaHyperparams(
        k=2, alpha=1.0, eta=0.01, iterations=200, burn_in=80, thin=5, seed=17
    )
    model = train_dtm(slices, bows, hyper, kappa=1.0)
    topic_a = int(np.argmax(model.per_slice_beta[0, :, DRIFT_MARKER_WORD]))
    series = trajectory(
        model, topic_a, [f"w{DRIFT_IN_WORD}", f"w{DRIFT_OUT_WORD}"], drift_vocab()
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv([series], path)
    loaded = read_trajectory_csv(path)[0]

    svg = plot_trajectories(loaded, FigureSpec(title="drift"))
    lines = _polylines(svg)
    assert len(lines) == 2
    # The drifted-in word ends highest, so it is legend rank 0: first polyline.
    rising = _vertices(lines[0])
    assert rising[1][1] < rising[0][1]
    falling = _vertices(lines[1])
    assert falling[1][1] > falling[0][1]
