package dataplane

import (
	"fmt"
	"math/big"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/thresh"
)

// KeyState is the serving lifecycle of an installed key.
type KeyState int

// Lifecycle states. Install yields Ready; the first request (or
// Activate) provisions aux sessions and moves to Serving; Retire
// sheds new requests while in-flight ones drain and peer partials
// keep being served.
const (
	StateReady KeyState = iota
	StateServing
	StateRetiring
)

// String implements fmt.Stringer.
func (s KeyState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateServing:
		return "serving"
	case StateRetiring:
		return "retiring"
	default:
		return "unknown"
	}
}

// KeyInfo is the public description of an installed key.
type KeyInfo struct {
	ID        msg.SessionID
	PublicKey group.Element
	V         *commit.Vector
	N, T      int
	State     KeyState
}

// Result is the terminal outcome of one data-plane request; exactly
// one field group is populated according to the request's op.
type Result struct {
	Sig    thresh.Signature // OpSign
	Plain  group.Element    // OpDecrypt
	Beacon BeaconResult     // OpOpen
}

// BeaconResult is one beacon round's output plus the opening that
// produced it: Output = BeaconOutput(round, Opened) with
// g^Opened = EphemeralPK, the round session's public key.
type BeaconResult struct {
	Round       uint64
	Output      [32]byte
	Opened      *big.Int
	EphemeralPK group.Element
}

// Callback delivers a request's terminal result (or error). It is
// invoked outside the service lock and must not block.
type Callback func(Result, error)

// request is one in-flight (or queued) aggregated operation.
type request struct {
	digest  [32]byte
	op      uint8
	payload []byte            // sign: message; decrypt: encoded ciphertext
	ct      thresh.Ciphertext // decrypt operands
	round   uint64            // open round

	sid       msg.SessionID  // assigned nonce session (sign) / beacon session (open)
	nonceV    *commit.Vector // aggregator's view of the nonce commitment
	challenge *big.Int       // sign: c = H(R ‖ pk ‖ m), computed once

	partials map[msg.NodeID]thresh.PartialSig
	decParts map[msg.NodeID]thresh.PartialDecryption
	openPts  map[msg.NodeID]*big.Int
	asked    map[msg.NodeID]bool
	refused  map[msg.NodeID]bool // permanent per-request refusals

	cbs  []Callback
	done bool
	// starved marks a sign request that a flush has found waiting on an
	// empty reservoir (it feeds the key's width once).
	starved bool
}

// recorded counts the contributions collected so far for the
// request's op.
func (r *request) recorded() int {
	switch r.op {
	case OpDecrypt:
		return len(r.decParts)
	case OpOpen:
		return len(r.openPts)
	default:
		return len(r.partials)
	}
}

// contributed reports whether p's contribution is already recorded.
func (r *request) contributed(p msg.NodeID) bool {
	switch r.op {
	case OpDecrypt:
		_, ok := r.decParts[p]
		return ok
	case OpOpen:
		_, ok := r.openPts[p]
		return ok
	default:
		_, ok := r.partials[p]
		return ok
	}
}

// serveKey is the per-key serving state (aggregator and peer sides).
type serveKey struct {
	id    msg.SessionID
	share *big.Int
	v     *commit.Vector
	pk    group.Element
	state KeyState
	// pubs memoises the public shares V(i) of this key epoch, filled on
	// first use (decryption only); InstallKey empties it on renewal.
	pubs map[msg.NodeID]group.Element

	// Aggregator side.
	reservoir    []msg.SessionID // installed, unassigned nonces owned by self
	nonceCtr     uint64          // next nonce counter to derive
	provisioning int             // nonces requested but not yet installed
	// width is the number of secrets each dealer shares in the key's next
	// nonce session, which then yields Service.yield(width) nonces: 1 until
	// Sign requests starve, then doubling up to MaxNonceWidth.
	width    int
	beaconHi uint64
	// Consumed-nonce bookkeeping: tombstones replay the recorded
	// partial for retries, but a sustained-load key would accrete one
	// forever per signature. consumedRing bounds them FIFO; when a
	// tombstone ages out, its counter folds into nonceFloor[owner] so
	// the session ID can still never be re-installed or re-answered
	// (the consume-once invariant outlives the tombstone).
	consumedRing []msg.SessionID
	nonceFloor   map[msg.NodeID]uint64 // per owner: counters below are dead
	queue        []*request
	inflight     map[[32]byte]*request
	results      *ring[Result]
	suspects     map[msg.NodeID]bool
	rotor        int

	// Admission.
	tokens     float64
	lastRefill time.Time
	served     uint64 // requests admitted on this key (telemetry)

	// Peer side: partial-result cache keyed by request digest.
	partials *ring[RespItem]
}

// pub returns the public share V(id) of the installed key epoch.
func (k *serveKey) pub(id msg.NodeID) group.Element {
	y, ok := k.pubs[id]
	if !ok {
		y = k.v.Eval(int64(id))
		k.pubs[id] = y
	}
	return y
}

// Shed reasons: both unwrap to ErrOverloaded for callers, but the
// admission path tells them apart for the shed-by-reason counters.
var (
	errShedRate    = fmt.Errorf("%w: token bucket empty", ErrOverloaded)
	errShedBacklog = fmt.Errorf("%w: pending queue full", ErrOverloaded)
)

// admit runs per-key admission control: a token bucket for rate and a
// bounded pending queue for backlog. Returns nil when the request may
// enter.
func (k *serveKey) admit(now time.Time, rate float64, burst, maxPending int) error {
	if rate > 0 {
		if k.lastRefill.IsZero() {
			k.tokens = float64(burst)
		} else {
			k.tokens += now.Sub(k.lastRefill).Seconds() * rate
			if k.tokens > float64(burst) {
				k.tokens = float64(burst)
			}
		}
		k.lastRefill = now
		if k.tokens < 1 {
			return errShedRate
		}
		k.tokens--
	}
	if len(k.queue)+len(k.inflight) >= maxPending {
		return errShedBacklog
	}
	return nil
}

// ring is a bounded FIFO map: inserting beyond capacity evicts the
// oldest entry. It backs the aggregator result cache and the peer
// partial cache.
type ring[V any] struct {
	m     map[[32]byte]V
	order [][32]byte
	head  int
	cap   int
}

// newRing allocates nothing up front: capacity bounds growth (put), it
// is not a size hint — an installed key that never serves a request
// must not hold two full-size maps.
func newRing[V any](capacity int) *ring[V] {
	return &ring[V]{m: make(map[[32]byte]V), cap: capacity}
}

func (r *ring[V]) get(k [32]byte) (V, bool) {
	v, ok := r.m[k]
	return v, ok
}

func (r *ring[V]) put(k [32]byte, v V) {
	if _, exists := r.m[k]; exists {
		r.m[k] = v
		return
	}
	if len(r.m) >= r.cap && r.cap > 0 {
		old := r.order[r.head]
		delete(r.m, old)
		r.order[r.head] = k
		r.head = (r.head + 1) % len(r.order)
	} else {
		r.order = append(r.order, k)
	}
	r.m[k] = v
}
