"""ASCII chart rendering."""

from repro.analysis.charts import bar_chart, profile_chart, series_chart


class TestBarChart:
    def test_renders_rows(self):
        text = bar_chart([("alpha", 10.0), ("beta", 5.0)], title="T", unit="%")
        assert "T" in text
        assert "alpha" in text and "beta" in text
        assert "10.0%" in text

    def test_longest_bar_is_max(self):
        text = bar_chart([("a", 10.0), ("b", 5.0)], width=20)
        bar_a = text.splitlines()[0].split("|")[1]
        bar_b = text.splitlines()[1].split("|")[1]
        assert bar_a.count("█") > bar_b.count("█")

    def test_empty(self):
        assert "(no data)" in bar_chart([], title="empty")

    def test_zero_values_safe(self):
        text = bar_chart([("a", 0.0), ("b", 0.0)])
        assert "a" in text


class TestSeriesChart:
    def test_renders_all_series(self):
        text = series_chart(
            [1, 2, 4], {"runqlk": [0.1, 0.2, 0.4], "memlock": [0.0, 0.1, 0.2]}
        )
        assert "runqlk" in text and "memlock" in text
        assert text.count("|") == 6  # one bar row per point

    def test_empty(self):
        assert "(no data)" in series_chart([], {})


class TestProfileChart:
    def test_marks_regions(self):
        buckets = [(0, 5), (64, 10), (70, 2)]
        text = profile_chart(buckets, bucket_bytes=1024,
                             region_bytes=64 * 1024, title="P")
        assert "P" in text
        assert "|" in text  # region ruler
        assert "64 KB" in text

    def test_peak_column_tallest(self):
        buckets = [(0, 1), (1, 10)]
        text = profile_chart(buckets, 1024, 64 * 1024, height=5)
        rows = [line for line in text.splitlines() if "█" in line]
        # The peak bucket appears in every bar row; the small one in few.
        col0 = sum(1 for row in rows if len(row) > 2 and row[2] == "█")
        col1 = sum(1 for row in rows if len(row) > 3 and row[3] == "█")
        assert col1 > col0

    def test_empty(self):
        assert "(no data)" in profile_chart([], 1024, 65536)


class TestChartHooks:
    def test_figure_modules_expose_charts(self):
        from repro.experiments import figure2, figure5, figure6, figure8, figure11

        for module in (figure2, figure5, figure6, figure8, figure11):
            assert callable(getattr(module, "chart"))

    def test_render_chart_none_for_tables(self):
        from repro.api import ExperimentContext
        from repro.experiments.registry import render_chart

        assert render_chart("table3", ExperimentContext()) is None

    def test_row_charts_read_only_the_built_exhibit(self, monkeypatch):
        """The charts drawn from their exhibit's rows obtain no run: on a
        context that holds only the built exhibits they draw the same
        text as on the context that built them."""
        from repro.api import ExperimentContext, RunSettings
        from repro.experiments.registry import render_chart

        row_charts = (
            "figure2", "figure6", "figure8", "figure11", "figure-scaling",
            "figure-skew",
        )
        built = ExperimentContext(RunSettings(horizon_ms=2.0, warmup_ms=5.0, seed=3))
        texts = {e: render_chart(e, built) for e in row_charts}
        bare = ExperimentContext(built.settings)
        for exhibit_id in row_charts:
            bare.keep_exhibit(exhibit_id, built.exhibit(exhibit_id))

        def no_run(ctx, workload, *args, **kwargs):
            raise AssertionError(f"a chart obtained a {workload} run")

        monkeypatch.setattr(ExperimentContext, "_entry", no_run)
        monkeypatch.setattr(ExperimentContext, "private_run", no_run)
        assert {e: render_chart(e, bare) for e in row_charts} == texts
