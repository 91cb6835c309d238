package dataplane

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/thresh"
)

// Config wires one node's data-plane service into its surroundings.
// The service is transport-agnostic: peer traffic goes through Send,
// auxiliary DKGs are requested through Provision/Submit, and retries
// are scheduled through Defer — all supplied by the runtime (the
// simulator-backed facade or the TCP serve path).
type Config struct {
	Group *group.Group
	Self  msg.NodeID
	// N, T, F are the roster's shape. With n and t, f fixes how many
	// nonces one coordinate of a nonce session yields (SessionShape).
	N, T, F int
	Peers   []msg.NodeID // every participant, including Self

	// Send delivers a peer message on the data-plane session. Both
	// runtimes enqueue asynchronously, so it may be called while the
	// service lock is held.
	Send func(to msg.NodeID, body msg.Body)

	// Provision arranges for the listed auxiliary DKG sessions to run
	// on every node, eventually reaching each node's InstallAux. When
	// nil the default applies: Submit each session locally and
	// broadcast a Prepare to all peers.
	Provision func(key msg.SessionID, sids []msg.SessionID)

	// Submit runs one auxiliary DKG locally (the Prepare handler and
	// the default Provision use it). It must be idempotent per sid.
	Submit func(sid msg.SessionID)

	// Defer schedules fn after roughly RetryDelay (retry/batch
	// timers). nil disables timers; the runtime then pumps stalled
	// requests via Kick.
	Defer func(delay time.Duration, fn func())

	// Rand supplies DLEQ nonces for partial decryptions.
	Rand io.Reader

	// Now is the admission-control clock (defaults to time.Now).
	Now func() time.Time

	// NonceTarget is the low-water mark of pre-generated signing nonces
	// kept per key (default 2): what a key that signs now and then
	// holds, counting nonce sessions still running. A key whose Sign
	// requests find the reservoir empty doubles its nonce sessions'
	// width, up to 16 secrets per dealer, and from then on keeps
	// max(NonceTarget, 2·yield) in stock, yield being the nonces one
	// session of that width produces. BeaconAhead is the beacon
	// look-ahead window provisioned past the highest requested round
	// (default 2).
	NonceTarget int
	BeaconAhead int

	// MaxBatch is the size watermark: enqueueing the MaxBatch-th
	// same-key request flushes the batch immediately (default 8).
	MaxBatch int

	// MaxPending bounds queued+in-flight requests per key; beyond it
	// requests are shed with ErrOverloaded (default 1024).
	MaxPending int

	// Rate/Burst configure the per-key token bucket in requests per
	// second; Rate 0 disables rate limiting.
	Rate  float64
	Burst int

	// RetryDelay is the stall-retry interval (default 50ms).
	RetryDelay time.Duration

	// CacheSize bounds the aggregator result cache and the peer
	// partial cache, in entries per key (default 1024).
	CacheSize int
}

func (c *Config) applyDefaults() {
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.NonceTarget <= 0 {
		c.NonceTarget = 2
	}
	if c.BeaconAhead <= 0 {
		c.BeaconAhead = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 50 * time.Millisecond
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
}

// Stats counts service activity (monotonic).
type Stats struct {
	Requests      uint64 // admitted client operations
	Shed          uint64 // admission-control rejections (= ShedRate + ShedBacklog)
	ShedRate      uint64 // of those, token-bucket rejections
	ShedBacklog   uint64 // of those, pending-queue-bound rejections
	ShedState     uint64 // rejections by key state (retiring / unknown key)
	Batches       uint64 // partial-request batches fanned out
	Items         uint64 // items across those batches
	CacheHits     uint64 // aggregator results served from cache
	Coalesced     uint64 // duplicate digests attached to in-flight ops
	PeerItems     uint64 // peer-side items answered
	PeerCacheHits uint64 // of those, served from the partial cache
	Evicted       uint64 // bad partials evicted after verification
}

// auxShare is this node's share of a completed auxiliary DKG. Nonce
// shares are consumed (nilled) after serving one digest; the entry
// itself stays as a tombstone so a session ID can never be re-run and
// re-used (see the package comment's nonce-reuse invariant). The
// partial produced at consumption is kept for replay — re-asks for the
// same digest must answer from here, keyed by (session, digest),
// because different aggregators use different nonce sessions for the
// same request digest.
type auxShare struct {
	share    *big.Int
	v        *commit.Vector
	consumed bool
	digest   [32]byte // digest the nonce was consumed for
	sigma    *big.Int // the partial served for that digest
}

// Service is one node's data plane: it serves partial operations to
// aggregating peers and aggregates partials for its own clients.
// All methods are safe for concurrent use.
type Service struct {
	cfg Config
	gr  *group.Group
	// rows is the number of nonces each coordinate of a nonce session
	// yields on this roster.
	rows int

	mu      sync.Mutex
	keys    map[uint64]*serveKey // by low-24-bit key session ID
	aux     map[msg.SessionID]*auxShare
	auxWait map[msg.SessionID]bool // submitted, not yet installed
	// nonceResume holds, per key id, where this node's nonce counter
	// restarts: past every nonce session an earlier incarnation of the
	// process derived (ResumeNonces).
	nonceResume map[uint64]uint64
	timers      map[uint64]bool     // keys with an armed retry timer
	lag         *poly.LagrangeCache // combine coefficients at 0, by responder set
	stats       Stats
	closed      bool
}

// NewService builds a service. Keys are added with InstallKey as
// their DKG sessions complete.
func NewService(cfg Config) *Service {
	cfg.applyDefaults()
	_, _, rows := SessionShape(NonceSID(0, 0, 0), cfg.N, cfg.T, cfg.F)
	return &Service{
		cfg:         cfg,
		gr:          cfg.Group,
		rows:        rows,
		keys:        make(map[uint64]*serveKey),
		aux:         make(map[msg.SessionID]*auxShare),
		auxWait:     make(map[msg.SessionID]bool),
		nonceResume: make(map[uint64]uint64),
		timers:      make(map[uint64]bool),
		lag:         poly.NewLagrangeCache(cfg.Group.Q(), 0),
	}
}

// Stats returns a snapshot of the activity counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// InstallKey registers a completed DKG session as a serving key in
// state Ready. Re-installing (proactive share renewal) replaces the
// share and commitment and invalidates the peer partial cache — old
// partials would no longer interpolate with new-epoch ones.
func (s *Service) InstallKey(id msg.SessionID, share *big.Int, v *commit.Vector) (KeyInfo, error) {
	if uint64(id) >= 1<<24 {
		return KeyInfo{}, fmt.Errorf("dataplane: key session %d exceeds 24-bit aux derivation range", id)
	}
	if share == nil || v == nil || !v.VerifyShare(int64(s.cfg.Self), share) {
		return KeyInfo{}, fmt.Errorf("dataplane: key %d share fails commitment check", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.keys[uint64(id)]
	if k == nil {
		k = &serveKey{
			id:         id,
			width:      1,
			nonceCtr:   s.nonceResume[uint64(id)],
			inflight:   make(map[[32]byte]*request),
			results:    newRing[Result](s.cfg.CacheSize),
			suspects:   make(map[msg.NodeID]bool),
			partials:   newRing[RespItem](s.cfg.CacheSize),
			nonceFloor: make(map[msg.NodeID]uint64),
		}
		s.keys[uint64(id)] = k
	} else {
		// Renewal epoch: cached partials mix epochs; drop them.
		k.partials = newRing[RespItem](s.cfg.CacheSize)
		// An in-flight decrypt's own share is trusted without a proof,
		// so it is recomputed under the new share; peers' old-epoch
		// partials fail verification against the new V(j) instead.
		for _, req := range k.inflight {
			if _, ok := req.decParts[s.cfg.Self]; ok && !req.done {
				req.decParts[s.cfg.Self] = thresh.PartialDecryption{Decryptor: s.cfg.Self, D: s.gr.Exp(req.ct.C1, share)}
			}
		}
	}
	k.share = share
	k.v = v
	k.pubs = make(map[msg.NodeID]group.Element) // V(i) of the old epoch are stale
	k.pk = v.PublicKey()
	// A serving key's pk is the one fixed full-width base every batch
	// verification collapses onto; precomputed tables turn that term
	// into short table lookups on the shared multi-exp chain.
	s.cfg.Group.Precompute(k.pk)
	return s.infoLocked(k), nil
}

func (s *Service) infoLocked(k *serveKey) KeyInfo {
	return KeyInfo{ID: k.id, PublicKey: k.pk, V: k.v, N: s.cfg.N, T: s.cfg.T, State: k.state}
}

// KeyInfo describes an installed key.
func (s *Service) KeyInfo(id msg.SessionID) (KeyInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.keys[uint64(id)]
	if k == nil {
		return KeyInfo{}, false
	}
	return s.infoLocked(k), true
}

// Retire moves a key to Retiring: new client requests are rejected,
// in-flight ones drain, and peer partials are still served so other
// aggregators can complete their combinations.
func (s *Service) Retire(id msg.SessionID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := s.keys[uint64(id)]; k != nil {
		k.state = StateRetiring
	}
}

// Digests. The request digest is the dedup/cache key: it covers op,
// key and operands — never a client request ID — so duplicate
// submissions coalesce onto one in-flight operation.

// SignDigest derives the request digest of a signing request.
func SignDigest(key msg.SessionID, message []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("dkgdp/sign/v1"))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(key))
	h.Write(b[:])
	h.Write(message)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// DecryptDigest derives the request digest of a decryption request.
func DecryptDigest(key msg.SessionID, c1, c2 []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("dkgdp/decrypt/v1"))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(key))
	h.Write(b[:])
	binary.BigEndian.PutUint32(b[:4], uint32(len(c1)))
	h.Write(b[:4])
	h.Write(c1)
	h.Write(c2)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// BeaconDigest derives the request digest of a beacon-round request.
func BeaconDigest(key msg.SessionID, round uint64) [32]byte {
	h := sha256.New()
	h.Write([]byte("dkgdp/beacon/v1"))
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(key))
	binary.BigEndian.PutUint64(b[8:], round)
	h.Write(b[:])
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// encodeCiphertext encodes (C1, C2) as two length-prefixed compressed
// elements — the OpDecrypt payload.
func encodeCiphertext(gr *group.Group, ct thresh.Ciphertext) []byte {
	w := msg.NewWriter(2 * (4 + gr.CompressedLen()))
	w.Blob(gr.EncodeCompressed(ct.C1))
	w.Blob(gr.EncodeCompressed(ct.C2))
	return w.Bytes()
}

func decodeCiphertext(gr *group.Group, data []byte) (thresh.Ciphertext, error) {
	r := msg.NewReader(data)
	b1 := r.Blob()
	b2 := r.Blob()
	if err := r.Done(); err != nil {
		return thresh.Ciphertext{}, err
	}
	c1, err := gr.DecodeCompressed(b1)
	if err != nil {
		return thresh.Ciphertext{}, err
	}
	c2, err := gr.DecodeCompressed(b2)
	if err != nil {
		return thresh.Ciphertext{}, err
	}
	return thresh.Ciphertext{C1: c1, C2: c2}, nil
}

// Sign requests a threshold signature over message under key. The
// terminal outcome is delivered through cb; a non-nil return means
// the request was rejected synchronously (admission control, unknown
// or retiring key) and cb will not be called. The request is queued
// until Flush, the MaxBatch watermark or the batch timer dispatches
// it.
func (s *Service) Sign(key msg.SessionID, message []byte, cb Callback) error {
	return s.enqueue(key, &request{
		digest:  SignDigest(key, message),
		op:      OpSign,
		payload: append([]byte(nil), message...),
	}, cb)
}

// Decrypt requests a verified threshold decryption of ct under key.
func (s *Service) Decrypt(key msg.SessionID, ct thresh.Ciphertext, cb Callback) error {
	if !s.gr.IsElement(ct.C1) || !s.gr.IsElement(ct.C2) {
		return thresh.ErrBadCipher
	}
	enc := encodeCiphertext(s.gr, ct)
	return s.enqueue(key, &request{
		digest:  DecryptDigest(key, s.gr.EncodeCompressed(ct.C1), s.gr.EncodeCompressed(ct.C2)),
		op:      OpDecrypt,
		payload: enc,
		ct:      ct,
	}, cb)
}

// Beacon requests the round-th beacon output of key's beacon
// sequence. Rounds are 1-based; outputs are cached, so re-requesting
// a round is idempotent.
func (s *Service) Beacon(key msg.SessionID, round uint64, cb Callback) error {
	if round == 0 || round >= 1<<24 {
		return fmt.Errorf("dataplane: beacon round %d out of range", round)
	}
	return s.enqueue(key, &request{
		digest: BeaconDigest(key, round),
		op:     OpOpen,
		round:  round,
		sid:    BeaconSID(key, round),
	}, cb)
}

// enqueue runs admission, dedup and queuing for one request.
func (s *Service) enqueue(key msg.SessionID, req *request, cb Callback) error {
	var fire []func()
	var acts []func()
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		k := s.keys[uint64(key)]
		if k == nil {
			s.stats.ShedState++
			return ErrUnknownKey
		}
		if k.state == StateRetiring {
			s.stats.ShedState++
			return ErrRetiring
		}
		k.state = StateServing
		if res, ok := k.results.get(req.digest); ok {
			s.stats.CacheHits++
			fire = append(fire, func() { cb(res, nil) })
			return nil
		}
		if cur := k.inflight[req.digest]; cur != nil && !cur.done {
			s.stats.Coalesced++
			cur.cbs = append(cur.cbs, cb)
			return nil
		}
		for _, q := range k.queue {
			if q.digest == req.digest {
				s.stats.Coalesced++
				q.cbs = append(q.cbs, cb)
				return nil
			}
		}
		if req.op == OpSign && k.nonceCtr+uint64(s.yield(k.width)) > nonceCounterEnd {
			// A new signature needs a nonce this node can no longer derive.
			s.stats.ShedState++
			return ErrNoncesExhausted
		}
		if err := k.admit(s.cfg.Now(), s.cfg.Rate, s.cfg.Burst, s.cfg.MaxPending); err != nil {
			s.stats.Shed++
			if errors.Is(err, errShedBacklog) {
				s.stats.ShedBacklog++
			} else {
				s.stats.ShedRate++
			}
			return err
		}
		s.stats.Requests++
		k.served++
		req.cbs = append(req.cbs, cb)
		k.queue = append(k.queue, req)
		// Auxiliary sessions are provisioned for the kind of operation
		// that uses them: a key that only decrypts starts no DKG.
		switch req.op {
		case OpSign:
			s.ensureNoncesLocked(k, 0, &acts)
		case OpOpen:
			s.ensureBeaconLocked(k, req.round, &acts)
		}
		if len(k.queue) >= s.cfg.MaxBatch {
			s.flushLocked(k, &fire, &acts)
		}
		return nil
	}()
	for _, f := range fire {
		f()
	}
	for _, a := range acts {
		a()
	}
	return err
}

// Flush dispatches key's queued requests now (callers that batch
// explicitly — SignBatch, the client server when a connection's read
// buffer drains — use it instead of waiting for the watermark).
func (s *Service) Flush(key msg.SessionID) {
	var fire []func()
	var acts []func()
	s.mu.Lock()
	if k := s.keys[uint64(key)]; k != nil {
		s.flushLocked(k, &fire, &acts)
	}
	s.mu.Unlock()
	for _, f := range fire {
		f()
	}
	for _, a := range acts {
		a()
	}
}

// Kick retries stalled work for key: re-fans out unanswered in-flight
// items to every eligible peer and re-provisions starved nonce
// reservoirs. Runtimes without timers (the deterministic simulator)
// call it when the event queue drains with requests still pending.
func (s *Service) Kick(key msg.SessionID) {
	var fire []func()
	var acts []func()
	s.mu.Lock()
	if k := s.keys[uint64(key)]; k != nil {
		s.timers[uint64(key)] = false
		s.flushLocked(k, &fire, &acts) // dispatch anything still queued
		s.kickLocked(k, &fire, &acts)
	}
	s.mu.Unlock()
	for _, f := range fire {
		f()
	}
	for _, a := range acts {
		a()
	}
}

// Close fails all pending work and stops accepting requests.
func (s *Service) Close() {
	var fire []func()
	s.mu.Lock()
	s.closed = true
	for _, k := range s.keys {
		for _, req := range k.queue {
			req := req
			for _, cb := range req.cbs {
				cb := cb
				fire = append(fire, func() { cb(Result{}, ErrClosed) })
			}
			req.done = true
		}
		k.queue = nil
		for _, req := range k.inflight {
			if req.done {
				continue
			}
			req.done = true
			for _, cb := range req.cbs {
				cb := cb
				fire = append(fire, func() { cb(Result{}, ErrClosed) })
			}
		}
	}
	s.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

// Activate eagerly moves a key to Serving and provisions both kinds of
// auxiliary session, the nonce reservoir and the beacon window, instead
// of waiting for the first request that needs them.
func (s *Service) Activate(id msg.SessionID) {
	var acts []func()
	s.mu.Lock()
	if k := s.keys[uint64(id)]; k != nil && k.state == StateReady {
		k.state = StateServing
		s.ensureNoncesLocked(k, 0, &acts)
		s.ensureBeaconLocked(k, 0, &acts)
	}
	s.mu.Unlock()
	for _, a := range acts {
		a()
	}
}

// yield is the number of nonces a session of the given width produces.
func (s *Service) yield(width int) int { return width * s.rows }

// nonceStockLocked is the number of nonces, in the reservoir or being
// generated, the service keeps for k.
func (s *Service) nonceStockLocked(k *serveKey) int {
	return max(s.cfg.NonceTarget, 2*s.yield(k.width))
}

// ensureNoncesLocked tops the stock up to its level plus the immediate
// need, in sessions of the key's current width. It stops short where
// the next session's nonces would run past the 24-bit counter; Sign
// then refuses further requests (ErrNoncesExhausted).
func (s *Service) ensureNoncesLocked(k *serveKey, need int, acts *[]func()) {
	want := need + s.nonceStockLocked(k) - len(k.reservoir) - k.provisioning
	y := s.yield(k.width)
	var sids []msg.SessionID
	for ; want > 0 && k.nonceCtr+uint64(y) <= nonceCounterEnd; want -= y {
		sids = append(sids, NonceSessionSID(k.id, s.cfg.Self, k.nonceCtr, k.width))
		k.nonceCtr += uint64(y)
		k.provisioning += y
	}
	s.provisionLocked(k.id, sids, acts)
}

// ResumeNonces tells the service that sid was submitted by an earlier
// incarnation of this process. If it is one of this node's own nonce
// sessions, the key's nonce counter moves past it: the ids it covers
// may have been handed to requests before the restart and must not be
// derived again.
func (s *Service) ResumeNonces(sid msg.SessionID) {
	if !IsAux(sid) || IsBeacon(sid) || NonceOwner(sid) != s.cfg.Self {
		return
	}
	next := NonceCounter(sid) + uint64(s.yield(AuxWidth(sid)))
	s.mu.Lock()
	defer s.mu.Unlock()
	if next > s.nonceResume[AuxKey(sid)] {
		s.nonceResume[AuxKey(sid)] = next
	}
	if k := s.keys[AuxKey(sid)]; k != nil && next > k.nonceCtr {
		k.nonceCtr = next
	}
}

// ensureBeaconLocked provisions beacon sessions up to
// max(round, highest so far) + BeaconAhead.
func (s *Service) ensureBeaconLocked(k *serveKey, round uint64, acts *[]func()) {
	hi := k.beaconHi
	if round > hi {
		hi = round
	}
	hi += uint64(s.cfg.BeaconAhead)
	if hi <= k.beaconHi {
		return
	}
	sids := make([]msg.SessionID, 0, hi-k.beaconHi)
	for r := k.beaconHi + 1; r <= hi; r++ {
		sids = append(sids, BeaconSID(k.id, r))
	}
	k.beaconHi = hi
	s.provisionLocked(k.id, sids, acts)
}

// provisionLocked queues the aux-session provisioning action for
// execution outside the lock (Provision may run entire DKGs
// synchronously and re-enter InstallAux).
func (s *Service) provisionLocked(key msg.SessionID, sids []msg.SessionID, acts *[]func()) {
	if len(sids) == 0 {
		return
	}
	if s.cfg.Provision != nil {
		*acts = append(*acts, func() { s.cfg.Provision(key, sids) })
		return
	}
	for _, sid := range sids {
		s.auxWait[sid] = true
	}
	*acts = append(*acts, func() {
		if s.cfg.Submit != nil {
			for _, sid := range sids {
				s.cfg.Submit(sid)
			}
		}
		prep := &Prepare{Key: key, Sids: sids}
		for _, p := range s.cfg.Peers {
			if p != s.cfg.Self {
				s.cfg.Send(p, prep)
			}
		}
	})
}

// InstallAux registers this node's shares of a completed auxiliary DKG
// (nonce or beacon session): one (share, commitment) pair per output of
// the session, in dkg.CompletedEvent.Outputs order, the i-th installed
// as the nonce NonceSID(key, owner, counter+i). Duplicate installs are
// ignored; a nonce ID that was already consumed can never be
// re-installed, so re-running a nonce session cannot break the
// one-digest-per-nonce invariant.
//
// The share is not re-verified against the commitment here: the DKG
// that produced it already checked it (HybridVSS verifies every
// subshare), and the serving path is robust to a bad one anyway — a
// partial built from a wrong share fails BatchVerifyPartials at the
// aggregator (sign), the DLEQ check (decrypt) or the per-share
// commitment check (beacon open), which names and evicts the sender.
// Skipping the t-step commitment evaluation per node per nonce
// roughly halves the cost of keeping the reservoir full (E20).
func (s *Service) InstallAux(sid msg.SessionID, shares []*big.Int, vs []*commit.Vector) {
	want := 1 // a beacon round
	if !IsBeacon(sid) {
		want = s.yield(AuxWidth(sid))
	}
	if !validAux(sid, s.rows) || len(shares) != want || len(vs) != want {
		return
	}
	for i := range shares {
		if shares[i] == nil || vs[i] == nil || !s.gr.IsScalar(shares[i]) {
			return
		}
	}
	var fire []func()
	var acts []func()
	s.mu.Lock()
	delete(s.auxWait, sid)
	k := s.keys[AuxKey(sid)]
	for i := range shares {
		id := firstNonce(sid) + msg.SessionID(i)
		if _, dup := s.aux[id]; dup {
			continue
		}
		if k != nil && !IsBeacon(id) && NonceCounter(id) < k.nonceFloor[NonceOwner(id)] {
			// The nonce was consumed and its tombstone aged out; letting
			// it back in would re-arm a spent nonce.
			continue
		}
		s.aux[id] = &auxShare{share: shares[i], v: vs[i]}
		if k != nil && !IsBeacon(id) && NonceOwner(id) == s.cfg.Self {
			k.reservoir = append(k.reservoir, id)
			if k.provisioning > 0 {
				k.provisioning--
			}
		}
	}
	if k != nil {
		// Queued requests may have been waiting for exactly this
		// session (sign: nonce starvation; open: beacon round).
		s.flushLocked(k, &fire, &acts)
	}
	s.mu.Unlock()
	for _, f := range fire {
		f()
	}
	for _, a := range acts {
		a()
	}
}

// flushLocked dispatches every ready queued request as one batch:
// self partials are computed locally, then a single PartialReq per
// fan-out target carries all items.
func (s *Service) flushLocked(k *serveKey, fire, acts *[]func()) {
	if len(k.queue) == 0 {
		return
	}
	var ready []*request
	var waiting []*request
	took, starved, newlyStarved := 0, 0, false
	for _, req := range k.queue {
		switch req.op {
		case OpSign:
			if req.sid == 0 {
				if len(k.reservoir) == 0 {
					starved++
					newlyStarved = newlyStarved || !req.starved
					req.starved = true
					waiting = append(waiting, req)
					continue
				}
				req.sid = k.reservoir[0]
				k.reservoir = k.reservoir[1:]
				took++
			}
			aux := s.aux[req.sid]
			if aux == nil { // reservoir invariant: installed before listed
				waiting = append(waiting, req)
				continue
			}
			req.nonceV = aux.v
			req.challenge = thresh.Challenge(s.gr, aux.v.PublicKey(), k.pk, req.payload)
			ready = append(ready, req)
		case OpOpen:
			aux := s.aux[req.sid]
			if aux == nil {
				waiting = append(waiting, req)
				continue
			}
			req.nonceV = aux.v
			ready = append(ready, req)
		default:
			ready = append(ready, req)
		}
	}
	k.queue = waiting
	if took > 0 || starved > 0 {
		// Refill proactively: consuming a nonce dips the reservoir, and
		// a starved request is waiting for the refill to land.
		s.ensureNoncesLocked(k, starved, acts)
	}
	if newlyStarved && k.width < MaxNonceWidth {
		// Demand outran supply: the requests found starved now have been
		// provided for at the current width, and the sessions after them
		// carry twice the nonces. A request counts once, however often a
		// flush finds it still waiting, so width follows arrivals and not
		// retry timers.
		k.width *= 2
	}
	if len(ready) == 0 {
		return
	}
	items := make([]ReqItem, 0, len(ready))
	for _, req := range ready {
		req.partials = make(map[msg.NodeID]thresh.PartialSig, s.cfg.T+2)
		req.decParts = make(map[msg.NodeID]thresh.PartialDecryption, s.cfg.T+2)
		req.openPts = make(map[msg.NodeID]*big.Int, s.cfg.T+2)
		req.asked = make(map[msg.NodeID]bool, s.cfg.N)
		k.inflight[req.digest] = req
		items = append(items, ReqItem{Digest: req.digest, Op: req.op, Sid: req.sid, Payload: req.payload})
	}
	// Self partials go through the same answer path as peer requests,
	// sharing the consume-once nonce accounting and the partial cache,
	// except the own decryption share D = C1^{s_self}: InstallKey checked
	// the share, so it needs no proof, and it is never sent or cached.
	self := make([]RespItem, 0, len(items))
	for i, it := range items {
		if it.Op == OpDecrypt {
			s.stats.PeerItems++ // counted like every other self item
			self = append(self, RespItem{Digest: it.Digest, Status: StOK, D: s.gr.Exp(ready[i].ct.C1, k.share)})
			continue
		}
		self = append(self, s.answerItemLocked(k, it))
	}
	s.recordItemsLocked(k, s.cfg.Self, self, fire, acts)
	targets := s.fanoutTargetsLocked(k, s.cfg.T+1)
	req := &PartialReq{Key: k.id, Items: items}
	for _, to := range targets {
		for _, r := range ready {
			r.asked[to] = true
		}
		s.cfg.Send(to, req)
	}
	s.stats.Batches++
	s.stats.Items += uint64(len(items))
	s.armTimerLocked(k, acts)
}

// fanoutTargetsLocked picks the next width non-suspect peers in
// rotation.
func (s *Service) fanoutTargetsLocked(k *serveKey, width int) []msg.NodeID {
	var cands []msg.NodeID
	for _, p := range s.cfg.Peers {
		if p != s.cfg.Self && !k.suspects[p] {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	if width > len(cands) {
		width = len(cands)
	}
	out := make([]msg.NodeID, 0, width)
	for i := 0; i < width; i++ {
		out = append(out, cands[(k.rotor+i)%len(cands)])
	}
	k.rotor = (k.rotor + width) % len(cands)
	return out
}

// armTimerLocked schedules one retry kick per key while work is in
// flight.
func (s *Service) armTimerLocked(k *serveKey, acts *[]func()) {
	if s.cfg.Defer == nil || s.timers[uint64(k.id)] {
		return
	}
	s.timers[uint64(k.id)] = true
	id := k.id
	*acts = append(*acts, func() {
		s.cfg.Defer(s.cfg.RetryDelay, func() { s.Kick(id) })
	})
}

// kickLocked re-fans out every unanswered in-flight item to all
// eligible peers (idempotent: peers replay cached partials).
func (s *Service) kickLocked(k *serveKey, fire, acts *[]func()) {
	var items []ReqItem
	for _, req := range k.inflight {
		if req.done {
			continue
		}
		items = append(items, ReqItem{Digest: req.digest, Op: req.op, Sid: req.sid, Payload: req.payload})
	}
	if len(items) == 0 {
		return
	}
	preq := &PartialReq{Key: k.id, Items: items}
	sent := false
	for _, p := range s.cfg.Peers {
		if p == s.cfg.Self || k.suspects[p] {
			continue
		}
		for _, req := range k.inflight {
			req.asked[p] = true
		}
		s.cfg.Send(p, preq)
		sent = true
	}
	if sent {
		s.armTimerLocked(k, acts)
	}
}

// HandleMessage is the data-plane session handler: peer requests,
// peer responses and prepare messages.
func (s *Service) HandleMessage(from msg.NodeID, body msg.Body) {
	switch m := body.(type) {
	case *PartialReq:
		s.handlePartialReq(from, m)
	case *PartialResp:
		s.handlePartialResp(from, m)
	case *Prepare:
		s.handlePrepare(from, m)
	}
}

// handlePartialReq answers a peer aggregator's batch.
func (s *Service) handlePartialReq(from msg.NodeID, m *PartialReq) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	k := s.keys[uint64(m.Key)]
	resp := &PartialResp{Key: m.Key, Items: make([]RespItem, 0, len(m.Items))}
	for _, it := range m.Items {
		if k == nil {
			resp.Items = append(resp.Items, RespItem{Digest: it.Digest, Status: StUnknownKey})
			continue
		}
		resp.Items = append(resp.Items, s.answerItemLocked(k, it))
	}
	send := s.cfg.Send
	s.mu.Unlock()
	send(from, resp)
}

// answerItemLocked computes (or replays) one partial operation. Sign
// replays come from the consumed nonce entry itself — cache keyed by
// digest alone would be wrong, since two aggregators use different
// nonce sessions for the same request digest. Decrypt and beacon
// digests fully determine their answers, so they share a plain
// digest-keyed cache.
func (s *Service) answerItemLocked(k *serveKey, it ReqItem) RespItem {
	s.stats.PeerItems++
	out := RespItem{Digest: it.Digest}
	switch it.Op {
	case OpSign:
		aux := s.aux[it.Sid]
		if aux == nil || !IsAux(it.Sid) || IsBeacon(it.Sid) {
			if aux == nil && IsAux(it.Sid) && !IsBeacon(it.Sid) &&
				NonceCounter(it.Sid) < k.nonceFloor[NonceOwner(it.Sid)] {
				// Consumed and aged out of the tombstone ring: the
				// recorded partial is gone, and the nonce can never
				// serve again. Permanent, unlike NotReady.
				out.Status = StRefused
				return out
			}
			out.Status = StNotReady
			return out // not cached: the session may complete later
		}
		if aux.consumed {
			if aux.digest == it.Digest {
				// Re-ask (retry, kick): replay the recorded partial.
				s.stats.PeerCacheHits++
				out.Status = StOK
				out.Sigma = aux.sigma
				return out
			}
			// One nonce, one digest: this nonce already signed a
			// different request.
			out.Status = StRefused
			return out
		}
		c := thresh.Challenge(s.gr, aux.v.PublicKey(), k.pk, it.Payload)
		p := thresh.PartialSignPre(s.gr, s.cfg.Self, k.share, aux.share, c)
		aux.consumed = true
		aux.digest = it.Digest
		aux.sigma = p.Sigma
		aux.share = nil // drop the secret; the partial is all that remains
		aux.v = nil     // replay needs only sigma; aggregators hold their own copy
		k.consumedRing = append(k.consumedRing, it.Sid)
		if len(k.consumedRing) > s.cfg.CacheSize {
			old := k.consumedRing[0]
			k.consumedRing = k.consumedRing[1:]
			delete(s.aux, old)
			owner := NonceOwner(old)
			if f := NonceCounter(old) + 1; f > k.nonceFloor[owner] {
				k.nonceFloor[owner] = f
			}
		}
		out.Status = StOK
		out.Sigma = p.Sigma
		return out
	case OpDecrypt:
		if cached, ok := k.partials.get(it.Digest); ok {
			s.stats.PeerCacheHits++
			return cached
		}
		ct, err := decodeCiphertext(s.gr, it.Payload)
		if err != nil {
			out.Status = StBadOp
			return out
		}
		pd, err := thresh.ProveDecryption(s.gr, s.cfg.Self, k.share, k.pub(s.cfg.Self), ct, s.cfg.Rand)
		if err != nil {
			out.Status = StBadOp
			return out
		}
		out.Status = StOK
		out.D = pd.D
		out.E = pd.Proof.E
		out.Z = pd.Proof.Z
	case OpOpen:
		if cached, ok := k.partials.get(it.Digest); ok {
			s.stats.PeerCacheHits++
			return cached
		}
		aux := s.aux[it.Sid]
		if aux == nil || !IsBeacon(it.Sid) {
			out.Status = StNotReady
			return out
		}
		// Beacon shares are opened by design; no consumption.
		out.Status = StOK
		out.Share = aux.share
	default:
		out.Status = StBadOp
		return out
	}
	k.partials.put(it.Digest, out)
	return out
}

// handlePartialResp folds a peer's partials into the aggregator state.
func (s *Service) handlePartialResp(from msg.NodeID, m *PartialResp) {
	var fire []func()
	var acts []func()
	s.mu.Lock()
	if k := s.keys[uint64(m.Key)]; k != nil && !s.closed {
		s.recordItemsLocked(k, from, m.Items, &fire, &acts)
	}
	s.mu.Unlock()
	for _, f := range fire {
		f()
	}
	for _, a := range acts {
		a()
	}
}

// handlePrepare submits requested aux sessions, at most once each.
func (s *Service) handlePrepare(_ msg.NodeID, m *Prepare) {
	if s.cfg.Submit == nil {
		return
	}
	var todo []msg.SessionID
	s.mu.Lock()
	for _, sid := range m.Sids {
		if !validAux(sid, s.rows) || s.auxWait[sid] {
			continue
		}
		if _, have := s.aux[firstNonce(sid)]; have {
			continue
		}
		s.auxWait[sid] = true
		todo = append(todo, sid)
	}
	submit := s.cfg.Submit
	s.mu.Unlock()
	for _, sid := range todo {
		submit(sid)
	}
}

// recordItemsLocked records a sender's items and completes every
// request that reaches the t+1 threshold. Sign completions across
// the same delivery are verified together: optimistic unchecked
// combines, then one batched RLC signature verification, with
// per-item fallback and bad-partial eviction only on failure. A
// malformed OK sign or decrypt item evicts its sender like a bad partial.
func (s *Service) recordItemsLocked(k *serveKey, from msg.NodeID, items []RespItem, fire *[]func(), acts *[]func()) {
	t := s.cfg.T
	var signReady []*request
	for _, it := range items {
		req := k.inflight[it.Digest]
		if req == nil || req.done {
			continue
		}
		switch it.Status {
		case StOK:
		case StRefused, StUnknownKey:
			// Permanent for this request: the sender will never
			// contribute, which feeds the give-up accounting.
			if req.refused == nil {
				req.refused = make(map[msg.NodeID]bool)
			}
			req.refused[from] = true
			continue
		default:
			// NotReady is transient: the aux session may still
			// complete there; the retry kick re-asks.
			continue
		}
		switch req.op {
		case OpSign:
			if it.Sigma == nil || !s.gr.IsScalar(it.Sigma) {
				s.evictBadLocked(k, req, []msg.NodeID{from})
				continue
			}
			if _, dup := req.partials[from]; dup {
				continue
			}
			req.partials[from] = thresh.PartialSig{Signer: from, Sigma: it.Sigma}
			if len(req.partials) >= t+1 {
				signReady = append(signReady, req)
			}
		case OpDecrypt:
			// Only the aggregator's own share comes without a proof.
			proved := it.E != nil && it.Z != nil && s.gr.IsScalar(it.E) && s.gr.IsScalar(it.Z)
			if it.D == nil || !s.gr.IsElement(it.D) || (!proved && from != s.cfg.Self) {
				s.evictBadLocked(k, req, []msg.NodeID{from})
				continue
			}
			if _, dup := req.decParts[from]; dup {
				continue
			}
			req.decParts[from] = thresh.PartialDecryption{
				Decryptor: from, D: it.D, Proof: thresh.DLEQProof{E: it.E, Z: it.Z},
			}
			if len(req.decParts) >= t+1 {
				s.finishDecryptLocked(k, req, fire, acts)
			}
		case OpOpen:
			if it.Share == nil || !s.gr.IsScalar(it.Share) {
				continue
			}
			if _, dup := req.openPts[from]; dup {
				continue
			}
			// Beacon shares self-verify against the round commitment;
			// reject forgeries at the door so t+1 recorded ⇒ combinable.
			if !req.nonceV.VerifyShare(int64(from), it.Share) {
				s.evictBadLocked(k, req, []msg.NodeID{from})
				continue
			}
			req.openPts[from] = it.Share
			if len(req.openPts) >= t+1 {
				s.finishOpenLocked(k, req, fire)
			}
		}
	}
	if len(signReady) > 0 {
		s.finishSignsLocked(k, signReady, fire, acts)
	}
}

// finishSignsLocked completes signing requests that reached t+1
// partials: optimistic combine, batched final verification, fallback
// to identified verification on failure.
func (s *Service) finishSignsLocked(k *serveKey, reqs []*request, fire, acts *[]func()) {
	t := s.cfg.T
	type cand struct {
		req *request
		sig thresh.Signature
	}
	cands := make([]cand, 0, len(reqs))
	for _, req := range reqs {
		list := make([]thresh.PartialSig, 0, len(req.partials))
		for _, p := range req.partials {
			list = append(list, p)
		}
		sig, err := thresh.CombineUncheckedWith(s.gr, req.nonceV, t, list, s.lag)
		if err != nil {
			continue // lost partials since threshold check; retry later
		}
		cands = append(cands, cand{req: req, sig: sig})
	}
	if len(cands) == 0 {
		return
	}
	msgs := make([][]byte, len(cands))
	sigs := make([]thresh.Signature, len(cands))
	cs := make([]*big.Int, len(cands))
	for i, c := range cands {
		msgs[i] = c.req.payload
		sigs[i] = c.sig
		// Computed at flush time for this aggregator's own partial;
		// reusing it keeps the challenge hash off the verify path.
		cs[i] = c.req.challenge
	}
	if thresh.BatchVerifySignaturesPre(s.gr, k.pk, msgs, cs, sigs) {
		for _, c := range cands {
			s.completeLocked(k, c.req, Result{Sig: c.sig}, nil, fire)
		}
		return
	}
	// At least one bad partial slipped into an optimistic combine:
	// verify per item; failures get the identifying path — batch
	// partial verification names the bad signers, who are evicted and
	// excluded from future fan-outs, then the good partials combine.
	for _, c := range cands {
		if thresh.Verify(s.gr, k.pk, c.req.payload, c.sig) {
			s.completeLocked(k, c.req, Result{Sig: c.sig}, nil, fire)
			continue
		}
		req := c.req
		list := make([]thresh.PartialSig, 0, len(req.partials))
		for _, p := range req.partials {
			list = append(list, p)
		}
		valid := thresh.BatchVerifyPartials(s.gr, k.v, req.nonceV, req.payload, list)
		good := make([]thresh.PartialSig, 0, len(list))
		var bad []msg.NodeID
		for i, p := range list {
			if valid[i] {
				good = append(good, p)
			} else {
				bad = append(bad, p.Signer)
			}
		}
		s.evictBadLocked(k, req, bad)
		if len(good) >= t+1 {
			sig, err := thresh.CombineUnchecked(s.gr, req.nonceV, t, good)
			if err == nil && thresh.Verify(s.gr, k.pk, req.payload, sig) {
				s.completeLocked(k, req, Result{Sig: sig}, nil, fire)
				continue
			}
		}
		s.evictLocked(k, req, &thresh.PartialsError{Bad: bad, Valid: len(good), Needed: t + 1}, fire, acts)
	}
}

// evictBadLocked marks nodes as suspects (counted once each) and
// drops their contributions to the request.
func (s *Service) evictBadLocked(k *serveKey, req *request, bad []msg.NodeID) {
	for _, b := range bad {
		if !k.suspects[b] {
			k.suspects[b] = true
			s.stats.Evicted++
		}
		delete(req.partials, b)
		delete(req.decParts, b)
		delete(req.openPts, b)
	}
}

// evictLocked processes a failed combine: senders named by a
// PartialsError become suspects, and the request is re-fanned out —
// or failed when the threshold is provably out of reach.
func (s *Service) evictLocked(k *serveKey, req *request, err error, fire, acts *[]func()) {
	if pe, ok := err.(*thresh.PartialsError); ok {
		s.evictBadLocked(k, req, pe.Bad)
	}
	// The threshold is still reachable while recorded contributions
	// plus peers that could yet answer — not suspect, not permanently
	// refused for this request — cover t+1. Peers already asked still
	// count: their answers may be in flight, and re-asks replay
	// idempotently.
	possible := req.recorded()
	for _, p := range s.cfg.Peers {
		if p == s.cfg.Self || k.suspects[p] || req.refused[p] || req.contributed(p) {
			continue
		}
		possible++
	}
	if possible < s.cfg.T+1 {
		s.completeLocked(k, req, Result{}, fmt.Errorf("%w: %v", ErrUnavailable, err), fire)
		return
	}
	s.kickLocked(k, fire, acts)
}

// finishDecryptLocked combines the aggregator's own share, trusted,
// with peer partials, each DLEQ-verified against the memoised V(j)
// until t of them pass (inside CombineDecryptWith).
func (s *Service) finishDecryptLocked(k *serveKey, req *request, fire, acts *[]func()) {
	var own *thresh.PartialDecryption
	parts := make([]thresh.PartialDecryption, 0, len(req.decParts))
	for id, pd := range req.decParts {
		if id == s.cfg.Self {
			own = &pd
			continue
		}
		parts = append(parts, pd)
	}
	plain, err := thresh.CombineDecryptWith(s.gr, s.cfg.T, req.ct, own, parts, k.pub, s.lag)
	if err != nil {
		s.evictLocked(k, req, err, fire, acts)
		return
	}
	s.completeLocked(k, req, Result{Plain: plain}, nil, fire)
}

// finishOpenLocked interpolates a beacon opening from verified
// shares and derives the round output.
func (s *Service) finishOpenLocked(k *serveKey, req *request, fire *[]func()) {
	pts := make([]poly.Point, 0, len(req.openPts))
	for id, sh := range req.openPts {
		pts = append(pts, poly.Point{X: int64(id), Y: sh})
		if len(pts) == s.cfg.T+1 {
			break
		}
	}
	opened, err := poly.Interpolate(s.gr.Q(), pts, 0)
	if err != nil {
		s.completeLocked(k, req, Result{}, err, fire)
		return
	}
	if !s.gr.GExp(opened).Equal(req.nonceV.PublicKey()) {
		// Cannot happen with per-share verification; defensive.
		s.completeLocked(k, req, Result{}, fmt.Errorf("%w: beacon opening mismatch", ErrUnavailable), fire)
		return
	}
	res := Result{Beacon: BeaconResult{
		Round:       req.round,
		Output:      thresh.BeaconOutput(s.gr, req.round, opened),
		Opened:      opened,
		EphemeralPK: req.nonceV.PublicKey(),
	}}
	s.completeLocked(k, req, res, nil, fire)
}

// completeLocked finishes one request: caches the result, removes it
// from the in-flight set and queues its callbacks.
func (s *Service) completeLocked(k *serveKey, req *request, res Result, err error, fire *[]func()) {
	if req.done {
		return
	}
	req.done = true
	delete(k.inflight, req.digest)
	if err == nil {
		k.results.put(req.digest, res)
	}
	for _, cb := range req.cbs {
		cb := cb
		*fire = append(*fire, func() { cb(res, err) })
	}
}
