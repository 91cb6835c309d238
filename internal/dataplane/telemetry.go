package dataplane

import (
	"fmt"
	"slices"
	"sort"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/telemetry"
)

// KeySnapshot is the JSON-ready view of one serving key for the
// introspection endpoint (/keys) and `dkgnode top`.
type KeySnapshot struct {
	ID         uint64 `json:"id"`
	State      string `json:"state"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	// Commitments counts the unused signing commitments peers have
	// issued to this aggregator.
	Commitments int          `json:"commitments"`
	BeaconHigh  uint64       `json:"beacon_high,omitempty"`
	Requests    uint64       `json:"requests_total"`
	Suspects    []msg.NodeID `json:"suspects,omitempty"`
}

// KeysSnapshot returns a point-in-time view of every installed key,
// ordered by key ID. It takes the service lock briefly; intended for
// scrape-frequency calls, not per-request use.
func (s *Service) KeysSnapshot() []KeySnapshot {
	s.mu.Lock()
	out := make([]KeySnapshot, 0, len(s.keys))
	for _, k := range s.keys {
		ks := KeySnapshot{
			ID:         uint64(k.id),
			State:      k.state.String(),
			QueueDepth: len(k.queue),
			Inflight:   len(k.inflight),
			BeaconHigh: k.beaconHi,
			Requests:   k.served,
		}
		for _, b := range k.book {
			ks.Commitments += len(b)
		}
		for p := range k.suspects {
			ks.Suspects = append(ks.Suspects, p)
		}
		slices.Sort(ks.Suspects)
		out = append(out, ks)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RegisterMetrics exposes the service's activity counters and per-key
// serving state as scrape-time telemetry samples. Everything reads
// existing stats under the service lock, so the request hot path pays
// nothing for scraping.
func (s *Service) RegisterMetrics(reg *telemetry.Registry) {
	ctr := func(name, help string, v uint64) telemetry.Sample {
		return telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v)}
	}
	gau := func(name, help string, v int) telemetry.Sample {
		return telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindGauge, Value: float64(v)}
	}
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		st := s.Stats()
		emit(ctr("dataplane_requests_total", "Client operations admitted", st.Requests))
		emit(ctr(`dataplane_shed_total{reason="rate"}`, "Requests shed by admission control", st.ShedRate))
		emit(ctr(`dataplane_shed_total{reason="backlog"}`, "Requests shed by admission control", st.ShedBacklog))
		emit(ctr(`dataplane_shed_total{reason="state"}`, "Requests shed by admission control", st.ShedState))
		emit(ctr("dataplane_batches_total", "Partial-request batches fanned out", st.Batches))
		emit(ctr("dataplane_batch_items_total", "Requests carried by those batches", st.Items))
		emit(ctr("dataplane_result_cache_hits_total", "Aggregator results served from cache", st.CacheHits))
		emit(ctr("dataplane_coalesced_total", "Duplicate digests attached to in-flight operations", st.Coalesced))
		emit(ctr("dataplane_peer_items_total", "Peer-side partial operations answered", st.PeerItems))
		emit(ctr("dataplane_peer_cache_hits_total", "Peer answers served from the partial cache", st.PeerCacheHits))
		emit(ctr("dataplane_evicted_total", "Bad partials evicted after verification", st.Evicted))
		emit(ctr("dataplane_sign_attempts_total", "Signing attempts after a request's first", st.SignAttempts))
		for _, k := range s.KeysSnapshot() {
			id := fmt.Sprintf("%d", k.ID)
			emit(telemetry.Sample{
				Name: fmt.Sprintf("dataplane_key_requests_total{key=%q}", id),
				Help: "Requests admitted per key", Kind: telemetry.KindCounter,
				Value: float64(k.Requests),
			})
			emit(gau(fmt.Sprintf("dataplane_key_queue_depth{key=%q}", id),
				"Queued requests per key", k.QueueDepth))
			emit(gau(fmt.Sprintf("dataplane_key_inflight{key=%q}", id),
				"In-flight batched requests per key", k.Inflight))
			emit(gau(fmt.Sprintf("dataplane_key_commitments{key=%q}", id),
				"Unused signing commitments peers issued to this aggregator", k.Commitments))
		}
	})
}

// NonceLedger returns, for every spent nonce pair whose tombstone this
// node still holds, keyed by commitment ID, the digest of the (m, B) it
// signed. A pair signs one (m, B) and no other; the ledger is how that
// is checked from outside.
func (s *Service) NonceLedger() map[uint64][32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64][32]byte)
	for _, k := range s.keys {
		for _, p := range k.pools {
			for id, sp := range p.spent {
				out[id] = sp.digest
			}
		}
	}
	return out
}
