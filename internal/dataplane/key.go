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
// Activate) moves to Serving, asking peers for signing commitments or
// provisioning beacon sessions as the request needs; Retire
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

	sid    msg.SessionID  // open: the round's beacon session
	roundV *commit.Vector // open: the round session's commitment

	// Sign: every FROST attempt made so far, the retry tick the newest
	// started in, and the peers asked in one and not yet heard from.
	attempts []*attempt
	gen      uint64
	pending  map[msg.NodeID]bool

	decParts map[msg.NodeID]thresh.PartialDecryption
	openPts  map[msg.NodeID]*big.Int
	asked    map[msg.NodeID]bool
	refused  map[msg.NodeID]bool // permanent per-request refusals

	cbs  []Callback
	done bool
}

// attempt is one FROST signing attempt: the binding of its commitment
// list B, the aggregator's own nonce pair — used, trusted and erased only
// once every peer has answered; nil when the attempt can no longer
// finish — and the peers' answers so far.
type attempt struct {
	req  *request
	bind *thresh.Binding
	own  *thresh.NoncePair
	z    map[msg.NodeID]*big.Int
}

// live reports whether one of r's attempts can still finish.
func (r *request) live() bool {
	for _, a := range r.attempts {
		if a.own != nil {
			return true
		}
	}
	return false
}

// recorded counts the contributions collected so far for the
// request's op.
func (r *request) recorded() int {
	if r.op == OpDecrypt {
		return len(r.decParts)
	}
	return len(r.openPts)
}

// contributed reports whether p's contribution is already recorded.
func (r *request) contributed(p msg.NodeID) bool {
	if r.op == OpDecrypt {
		_, ok := r.decParts[p]
		return ok
	}
	_, ok := r.openPts[p]
	return ok
}

// serveKey is the per-key serving state (aggregator and peer sides).
type serveKey struct {
	id    msg.SessionID
	share *big.Int
	v     *commit.Vector
	pk    group.Element
	state KeyState
	// pubs memoises the public shares V(i) of this key epoch, filled on
	// first use; InstallKey empties it on renewal.
	pubs map[msg.NodeID]group.Element

	// Aggregator side.
	beaconHi uint64
	queue    []*request
	inflight map[[32]byte]*request
	results  *ring[Result]
	suspects map[msg.NodeID]bool
	rotor    int
	// Signing: each peer's unused commitments, oldest first, whether
	// the starting batches have been asked for, and the retry ticks so
	// far.
	book    map[msg.NodeID][]thresh.Commitment
	fetched bool
	gen     uint64

	// Admission.
	tokens     float64
	lastRefill time.Time
	served     uint64 // requests admitted on this key (telemetry)

	// Peer side: partial-result cache keyed by request digest (decrypt,
	// open), and the nonce pairs issued to each aggregator.
	partials *ring[RespItem]
	pools    map[msg.NodeID]*noncePool
}

// noncePool holds the nonce pairs this node issued to one aggregator:
// unused ones with their secrets, and spent ones as tombstones that
// replay their answer to a re-ask of the same (m, B).
type noncePool struct {
	unused map[uint64]*thresh.NoncePair
	spent  map[uint64]spentPair
	tombs  []uint64 // spend order, oldest first
}

type spentPair struct {
	digest [32]byte // H(m, B) the pair answered
	z      *big.Int
}

// spend moves a pair to the tombstones, keeping at most keep of them.
// A forgotten tombstone is safe: its id is then unknown and refused.
func (p *noncePool) spend(id uint64, digest [32]byte, z *big.Int, keep int) {
	delete(p.unused, id)
	p.spent[id] = spentPair{digest: digest, z: z}
	p.tombs = append(p.tombs, id)
	if len(p.tombs) > keep {
		delete(p.spent, p.tombs[0])
		p.tombs = p.tombs[1:]
	}
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
