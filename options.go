package hybriddkg

import (
	"fmt"

	"hybriddkg/internal/dataplane"
	"hybriddkg/internal/msg"
)

// Roster describes the group: n participants, of which at most T are
// Byzantine and at most F are crashed at any time; n ≥ 3t + 2f + 1
// must hold (the hybrid-model resilience bound, §2.2).
type Roster struct {
	N, T, F int
}

func (r Roster) validate() error {
	if r.T < 0 || r.F < 0 || r.N < 1 || r.N < 3*r.T+2*r.F+1 {
		return fmt.Errorf("%w: n=%d t=%d f=%d violates t, f ≥ 0 and n ≥ 3t+2f+1", ErrBadOptions, r.N, r.T, r.F)
	}
	return nil
}

// netConfig is the resolved network configuration. The protocol
// profile is fixed — P-256, Ed25519, wire format v2 — so what is left
// to choose is the seed, certificate mode and the serving knobs.
type netConfig struct {
	groupName string
	seed      uint64

	certificates  bool
	verifyWorkers int

	// Data-plane (serving) knobs.
	rate       float64
	burst      int
	maxPending int
	maxBatch   int
}

// resolve applies opts and checks the profile they select.
func resolve(opts []Option) (netConfig, error) {
	cfg := netConfig{groupName: dataplane.ServedGroup, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.groupName != dataplane.ServedGroup {
		return cfg, fmt.Errorf("%w: group %q (only %q is served)", ErrBadOptions, cfg.groupName, dataplane.ServedGroup)
	}
	return cfg, nil
}

// Option configures a Network.
type Option func(*netConfig)

// Deprecated: New and Serve always run "p256"; any other name is an error.
func WithGroup(name string) Option { return func(c *netConfig) { c.groupName = name } }

// Deprecated: commitment matrices are always deduplicated.
func WithDedupDealings() Option { return func(*netConfig) {} }

// Deprecated: the wire always carries compressed group elements.
func WithCompressedWire() Option { return func(*netConfig) {} }

// WithSeed makes the whole deployment deterministic (scheduling and
// key material). The default 1 is fine for demos; real deployments
// use cmd/dkgnode, not this simulator.
func WithSeed(seed uint64) Option {
	return func(c *netConfig) {
		if seed != 0 {
			c.seed = seed
		}
	}
}

// WithCertificates replaces the quadratic all-to-all echo/ready
// floods — in both the DKG layer and every embedded VSS instance —
// with relay-assembled quorum certificates over committee-sampled
// signer sets: per-quorum message complexity drops from Θ(n²) to
// O(n·polylog n), and each receiver verifies a whole certificate in
// one batched multi-exponentiation. If no certificate arrives before
// the view-timeout base the node falls back to the classic flood
// path, so liveness never depends on the sampled relays. Most
// effective at large n with a small fixed dealer set (the Any-Trust
// regime); at small n the committees cover the whole roster and the
// certificate path only changes message shape.
func WithCertificates() Option {
	return func(c *netConfig) { c.certificates = true }
}

// WithParallelVerify fans batched commitment verification out over a
// shared worker pool of the given size. workers ≤ 0 sizes the pool to
// GOMAXPROCS.
func WithParallelVerify(workers int) Option {
	return func(c *netConfig) {
		c.verifyWorkers = workers
		if c.verifyWorkers <= 0 {
			c.verifyWorkers = -1 // resolved to GOMAXPROCS at build time
		}
	}
}

// WithAdmission configures per-key admission control on every node's
// data-plane service: a token bucket of rate requests/second with the
// given burst, and a bound on queued+in-flight requests beyond which
// new ones are shed with ErrOverloaded. rate 0 disables the bucket.
func WithAdmission(rate float64, burst, maxPending int) Option {
	return func(c *netConfig) {
		c.rate = rate
		c.burst = burst
		c.maxPending = maxPending
	}
}

// WithBatchWindow sets the data-plane batching watermark: enqueueing
// the n-th same-key request flushes the coalesced batch immediately
// (default 8).
func WithBatchWindow(n int) Option {
	return func(c *netConfig) { c.maxBatch = n }
}

// keyConfig is the resolved per-key configuration.
type keyConfig struct {
	aggregator msg.NodeID
	eager      bool
}

// KeyOption configures one generated key.
type KeyOption func(*keyConfig)

// WithAggregator pins the node that aggregates this key's requests
// (default: the lowest-numbered live node).
func WithAggregator(id NodeID) KeyOption {
	return func(c *keyConfig) { c.aggregator = id }
}

// WithEagerServing activates the key on its aggregator immediately,
// fetching the peers' signing commitments before the first request
// arrives (otherwise the first Sign fetches them). Decryption and
// beacon rounds need no preparation.
func WithEagerServing() KeyOption {
	return func(c *keyConfig) { c.eager = true }
}
