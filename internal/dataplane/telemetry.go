package dataplane

import (
	"fmt"
	"sort"

	"hybriddkg/internal/telemetry"
)

// KeySnapshot is the JSON-ready view of one serving key for the
// introspection endpoint (/keys) and `dkgnode top`.
type KeySnapshot struct {
	ID           uint64 `json:"id"`
	State        string `json:"state"`
	QueueDepth   int    `json:"queue_depth"`
	Inflight     int    `json:"inflight"`
	Reservoir    int    `json:"nonce_reservoir"`
	Provisioning int    `json:"provisioning"`
	NonceWidth   int    `json:"nonce_width"`
	NonceYield   int    `json:"nonce_yield"`
	BeaconHigh   uint64 `json:"beacon_high,omitempty"`
	Requests     uint64 `json:"requests_total"`
	Suspects     int    `json:"suspects,omitempty"`
}

// KeysSnapshot returns a point-in-time view of every installed key,
// ordered by key ID. It takes the service lock briefly; intended for
// scrape-frequency calls, not per-request use.
func (s *Service) KeysSnapshot() []KeySnapshot {
	s.mu.Lock()
	out := make([]KeySnapshot, 0, len(s.keys))
	for _, k := range s.keys {
		out = append(out, KeySnapshot{
			ID:           uint64(k.id),
			State:        k.state.String(),
			QueueDepth:   len(k.queue),
			Inflight:     len(k.inflight),
			Reservoir:    len(k.reservoir),
			Provisioning: k.provisioning,
			NonceWidth:   k.width,
			NonceYield:   s.yield(k.width),
			BeaconHigh:   k.beaconHi,
			Requests:     k.served,
			Suspects:     len(k.suspects),
		})
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
			emit(gau(fmt.Sprintf("dataplane_key_nonce_reservoir{key=%q}", id),
				"Pre-generated signing nonces per key", k.Reservoir))
			emit(gau(fmt.Sprintf("dataplane_key_nonce_width{key=%q}", id),
				"Secrets each dealer shares in the key's next nonce DKGs", k.NonceWidth))
			emit(gau(fmt.Sprintf("dataplane_key_nonce_yield{key=%q}", id),
				"Nonces each of the key's next nonce DKGs produces", k.NonceYield))
		}
	})
}

// NonceLedger returns, for every spent nonce whose tombstone this node
// still holds, the request digest it signed. A nonce signs one digest
// and no other; the ledger is how that is checked from outside.
func (s *Service) NonceLedger() map[uint64][32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64][32]byte)
	for id, aux := range s.aux {
		if aux.consumed {
			out[uint64(id)] = aux.digest
		}
	}
	return out
}
