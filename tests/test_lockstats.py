"""Lock statistics reporting (Tables 10/12, Figure 11 inputs)."""

from repro.analysis.lockstats import (
    failed_acquires_per_ms,
    lock_table_rows,
    sync_stall_summary,
)


class TestLockTableRows:
    def test_rows_for_active_locks(self, pmake_run):
        total_cycles = max(p.cycles for p in pmake_run.processors)
        rows = lock_table_rows(pmake_run.kernel, total_cycles, min_acquires=1)
        names = {row.name for row in rows}
        assert "memlock" in names
        assert "runqlk" in names

    def test_rows_sorted_by_frequency(self, pmake_run):
        total_cycles = max(p.cycles for p in pmake_run.processors)
        rows = lock_table_rows(pmake_run.kernel, total_cycles, min_acquires=1)
        values = [row.kcycles_between_acquires for row in rows]
        assert values == sorted(values)

    def test_percentages_in_range(self, pmake_run):
        total_cycles = max(p.cycles for p in pmake_run.processors)
        for row in lock_table_rows(pmake_run.kernel, total_cycles, 1):
            assert 0.0 <= row.failed_pct <= 100.0
            assert 0.0 <= row.same_cpu_no_intervening_pct <= 100.0
            assert row.waiters_if_any >= 1.0
            assert row.cached_to_uncached_pct >= 0.0

    def test_family_filter(self, pmake_run):
        total_cycles = max(p.cycles for p in pmake_run.processors)
        rows = lock_table_rows(
            pmake_run.kernel, total_cycles, 1, families=["memlock"]
        )
        assert {row.name for row in rows} == {"memlock"}


class TestSyncStall:
    def test_cached_cheaper_than_uncached(self, any_run):
        """Table 10's point: with cachable LL/SC locks the sync stall is a
        small fraction of the sync-bus machine's."""
        summary = sync_stall_summary(any_run.kernel, any_run.processors)
        assert summary.current_machine_pct > 0
        assert summary.cached_rmw_pct < summary.current_machine_pct
        assert summary.cached_rmw_pct < 0.6 * summary.current_machine_pct

    def test_sync_ops_counted(self, pmake_run):
        summary = sync_stall_summary(pmake_run.kernel, pmake_run.processors)
        assert summary.sync_ops == pmake_run.kernel.syncbus.stats.total_ops


class TestFailedAcquireRates:
    def test_rates_nonnegative(self, multpgm_run):
        rates = failed_acquires_per_ms(multpgm_run.kernel, 70.0)
        assert rates
        assert all(rate >= 0 for rate in rates.values())

    def test_zero_wall_time(self, multpgm_run):
        assert failed_acquires_per_ms(multpgm_run.kernel, 0.0) == {}
