"""Tests for grid exploration, pareto utilities and ASCII plots."""

from __future__ import annotations

import pytest

from repro.dse import (
    DesignPoint,
    SweepEngine,
    SweepRequest,
    SweepResult,
    SweepSpec,
    pareto_front,
)
from repro.tech import MRAM, RERAM
from repro.viz import bar_chart, line_plot


class TestPareto:
    def test_dominated_points_removed(self):
        points = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (3.0, 0.5)]
        front = pareto_front(
            points, objectives=[lambda p: p[0], lambda p: p[1]]
        )
        assert (2.0, 2.0) not in front
        assert (1.0, 1.0) in front
        assert (0.5, 3.0) in front
        assert (3.0, 0.5) in front

    def test_single_objective_is_minimum(self):
        points = [3.0, 1.0, 2.0]
        front = pareto_front(points, objectives=[lambda p: p])
        assert front == [1.0]

    def test_requires_objectives(self):
        with pytest.raises(ValueError):
            pareto_front([1], objectives=[])

    def test_duplicates_kept(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        front = pareto_front(points, objectives=[lambda p: p[0], lambda p: p[1]])
        assert len(front) == 2


def sweep_s27(**axes):
    """A serial grid sweep of s27 over the given design axes."""
    spec = SweepSpec(circuits=("s27",), **axes)
    return SweepEngine().submit(SweepRequest(spec=spec))


class TestExplorer:
    def test_single_point(self):
        # The spec's one point is DesignPoint()'s configuration.
        (record,) = sweep_s27(
            policies=(3,), budget_scales=(1.0,), safe_zones=(True,)
        ).records
        assert record.point == DesignPoint()
        assert record.pdp_js > 0
        assert record.energy_j > 0

    def test_sweep_dimensions(self):
        records = sweep_s27(
            policies=(2, 3),
            budget_scales=(1.0,),
            technologies=(MRAM,),
            safe_zones=(True, False),
        ).records
        assert len(records) == 4
        labels = {r.point.label() for r in records}
        assert len(labels) == 4

    def test_safe_zone_wins(self):
        records = sweep_s27(
            policies=(3,),
            budget_scales=(1.0,),
            technologies=(MRAM,),
            safe_zones=(True, False),
        ).records
        by_safe = {r.point.use_safe_zone: r for r in records}
        assert by_safe[True].pdp_js < by_safe[False].pdp_js

    def test_best_selects_min_pdp(self):
        result = sweep_s27(
            policies=(3,), budget_scales=(0.5, 1.0), technologies=(MRAM,),
            safe_zones=(True,),
        )
        best = result.best()
        assert best.pdp_js == min(r.pdp_js for r in result.records)

    def test_best_requires_records(self):
        with pytest.raises(ValueError):
            SweepResult().best()

    def test_technology_axis(self):
        records = sweep_s27(
            policies=(3,), budget_scales=(1.0,),
            technologies=(MRAM, RERAM), safe_zones=(True,),
        ).records
        names = {r.point.technology.name for r in records}
        assert names == {"MRAM", "ReRAM"}


class TestAsciiPlots:
    def test_line_plot_renders(self):
        xs = [float(i) for i in range(50)]
        ys = [(i % 10) / 10.0 for i in range(50)]
        text = line_plot(xs, ys, width=40, height=8, title="t", y_markers={"mid": 0.5})
        assert "t" in text
        assert "mid" in text
        assert "*" in text

    def test_line_plot_validation(self):
        with pytest.raises(ValueError):
            line_plot([], [])
        with pytest.raises(ValueError):
            line_plot([1.0], [1.0, 2.0])

    def test_bar_chart_renders(self):
        text = bar_chart({"g": {"a": 1.0, "b": 0.5}}, width=20)
        assert "#" in text
        assert "a" in text and "b" in text

    def test_bar_chart_requires_groups(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_bar_chart_relative_lengths(self):
        text = bar_chart({"g": {"big": 1.0, "small": 0.25}}, width=40)
        lines = {
            row.split("|")[0].strip(): row
            for row in text.splitlines()
            if "|" in row
        }
        assert lines["big"].count("#") > lines["small"].count("#")
