package verify

import (
	"hybriddkg/internal/sig"
	"hybriddkg/internal/telemetry"
)

// QueueDepth returns the number of tasks queued but not yet picked up
// by a worker — the instantaneous backlog of the speculation stage.
func (p *Pool) QueueDepth() int {
	if p == nil {
		return 0
	}
	return len(p.tasks)
}

// RegisterMetrics exposes the pool's stats and the signature memo's
// as scrape-time telemetry samples. Both keep their own counters, so
// the hot path pays nothing for this — the collector reads them only
// when a scrape happens. Either argument may be nil.
func RegisterMetrics(reg *telemetry.Registry, pool *Pool, dir *sig.Directory) {
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		if pool != nil {
			ps := pool.Stats()
			emit(telemetry.Sample{Name: "verify_pool_workers", Help: "Verification pool worker count", Kind: telemetry.KindGauge, Value: float64(ps.Workers)})
			emit(telemetry.Sample{Name: "verify_pool_depth", Help: "Verification tasks queued, not yet running", Kind: telemetry.KindGauge, Value: float64(pool.QueueDepth())})
			emit(telemetry.Sample{Name: "verify_pool_submitted_total", Help: "Speculative tasks accepted", Kind: telemetry.KindCounter, Value: float64(ps.Submitted)})
			emit(telemetry.Sample{Name: "verify_pool_dropped_total", Help: "Speculative tasks shed (queue full or closed)", Kind: telemetry.KindCounter, Value: float64(ps.Dropped)})
			emit(telemetry.Sample{Name: "verify_pool_executed_total", Help: "Speculative tasks executed", Kind: telemetry.KindCounter, Value: float64(ps.Executed)})
		}
		if dir != nil {
			hits, misses := dir.VerifyCacheStats()
			emit(telemetry.Sample{Name: "verify_cache_hits_total", Help: "Inline signature checks answered by the memo", Kind: telemetry.KindCounter, Value: float64(hits)})
			emit(telemetry.Sample{Name: "verify_cache_misses_total", Help: "Inline signature checks the memo could not answer", Kind: telemetry.KindCounter, Value: float64(misses)})
			if total := hits + misses; total > 0 {
				emit(telemetry.Sample{Name: "verify_cache_hit_ratio", Help: "Signature-memo hit ratio since start", Kind: telemetry.KindGauge, Value: float64(hits) / float64(total)})
			}
			stored, used := dir.SpeculationStats()
			emit(telemetry.Sample{Name: "verify_speculative_used_total", Help: "Verdicts a pool worker stored that an inline check read", Kind: telemetry.KindCounter, Value: float64(used)})
			emit(telemetry.Sample{Name: "verify_speculative_wasted_total", Help: "Verdicts a pool worker stored that no inline check has read", Kind: telemetry.KindCounter, Value: float64(stored - used)})
		}
	})
}
