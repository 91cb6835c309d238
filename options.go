package hybriddkg

import (
	"fmt"

	"hybriddkg/internal/msg"
)

// Roster describes the group: n participants, of which at most T are
// Byzantine and at most F are crashed at any time; n ≥ 3t + 2f + 1
// must hold (the hybrid-model resilience bound, §2.2).
type Roster struct {
	N, T, F int
}

func (r Roster) validate() error {
	if r.N < 1 || r.N < 3*r.T+2*r.F+1 {
		return fmt.Errorf("%w: n=%d t=%d f=%d violates n ≥ 3t+2f+1", ErrBadOptions, r.N, r.T, r.F)
	}
	return nil
}

// netConfig is the resolved network configuration. Every knob that
// used to be a protocol-layer struct field (dkg.Params toggles, engine
// config, data-plane admission settings) is set through an Option so
// callers compose behaviour instead of wiring internals.
type netConfig struct {
	groupName string
	sigScheme string
	seed      uint64

	// Control-plane (DKG) toggles.
	hashedEcho     bool
	dedupDealings  bool
	compressedWire bool
	certificates   bool
	disableBatch   bool
	legacyWire     bool
	verifyWorkers  int

	// Data-plane (serving) knobs.
	rate        float64
	burst       int
	maxPending  int
	maxBatch    int
	nonceTarget int
	beaconAhead int
}

func defaultNetConfig() netConfig {
	return netConfig{
		groupName: "test256",
		sigScheme: "ed25519",
		seed:      1,
	}
}

// Option configures a Network.
type Option func(*netConfig)

// WithGroup selects the group backend and parameter set: "toy64",
// "test256" (default), "test512", "prod2048" (all Z_p*) or "p256"
// (NIST P-256; ~128-bit security with commitment operations an order
// of magnitude cheaper than prod2048).
func WithGroup(name string) Option {
	return func(c *netConfig) { c.groupName = name }
}

// WithSignatureScheme selects message authentication: "ed25519"
// (default), "schnorr-test256", "schnorr-prod2048" or "null".
func WithSignatureScheme(name string) Option {
	return func(c *netConfig) { c.sigScheme = name }
}

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

// WithHashedEcho enables the O(κn³) commitment-hash optimisation on
// every embedded VSS instance (§4.4).
func WithHashedEcho() Option {
	return func(c *netConfig) { c.hashedEcho = true }
}

// WithDedupDealings makes VSS instances reference commitment matrices
// by digest after the dealer's send, with pull-based fetch for nodes
// that missed the full copy.
func WithDedupDealings() Option {
	return func(c *netConfig) { c.dedupDealings = true }
}

// WithCompressedWire selects the wire-format-v2 commitment encoding
// (compressed group elements) on every matrix the protocol emits.
func WithCompressedWire() Option {
	return func(c *netConfig) { c.compressedWire = true }
}

// WithLegacyWireV1 sends the legacy wire format v1: no frame
// coalescing, no compressed or dedup'd commitments. v2 frames are
// still decoded. Only meaningful for TCP deployments (Serve).
func WithLegacyWireV1() Option {
	return func(c *netConfig) {
		c.legacyWire = true
		c.dedupDealings = false
		c.compressedWire = false
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

// WithoutBatchVerify turns off batched point verification in the
// commitment hot path (batching is on by default; disabling it is
// mainly useful for differential testing).
func WithoutBatchVerify() Option {
	return func(c *netConfig) { c.disableBatch = true }
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

// WithNonceReservoir sets the low-water mark of pre-generated signing
// nonces each key keeps, counting those still being generated (default
// 2). It is what a key that signs now and then holds. A key whose Sign
// requests outrun it is not helped by a larger mark but by wider nonce
// sessions, which it gets on its own: each time arriving requests find
// the reservoir empty, the key's auxiliary DKGs double the nonces they
// share (up to 16), and the key then keeps max(target, 2·width) in
// stock.
func WithNonceReservoir(target int) Option {
	return func(c *netConfig) { c.nonceTarget = target }
}

// WithBeaconAhead sets the beacon look-ahead window: how many rounds
// past the highest requested one are provisioned eagerly (default 2).
func WithBeaconAhead(rounds int) Option {
	return func(c *netConfig) { c.beaconAhead = rounds }
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
// provisioning the nonce reservoir and the beacon window before the
// first request arrives (otherwise each is provisioned by the first
// Sign or Beacon).
func WithEagerServing() KeyOption {
	return func(c *keyConfig) { c.eager = true }
}
