package dataplane

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sync"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/thresh"
)

// Config wires one node's data-plane service into its surroundings.
// The service is transport-agnostic: peer traffic goes through Send and
// retries are scheduled through Defer, both supplied by the runtime (the
// simulator-backed facade or the TCP serve path).
type Config struct {
	Group *group.Group
	Self  msg.NodeID
	N, T  int
	Peers []msg.NodeID // every participant, including Self

	// Send delivers a peer message on the data-plane session. Both
	// runtimes enqueue asynchronously, so it may be called while the
	// service lock is held.
	Send func(to msg.NodeID, body msg.Body)

	// Defer schedules fn after roughly RetryDelay (retry/batch
	// timers). nil disables timers; the runtime then pumps stalled
	// requests via Kick.
	Defer func(delay time.Duration, fn func())

	// Rand supplies signing nonce pairs and DLEQ nonces for decryption
	// and beacon partials.
	Rand io.Reader

	// Now is the admission-control clock (defaults to time.Now).
	Now func() time.Time

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

	// RetryDelay is the stall-retry interval (default 50ms). A signing
	// attempt still unanswered one full interval after it started is
	// superseded by a new one.
	RetryDelay time.Duration

	// CacheSize bounds the aggregator result cache, the peer partial
	// cache and each aggregator's spent-nonce tombstones, in entries per
	// key (default 1024).
	CacheSize int

	// Parallel runs decrypt and beacon combines off the service lock;
	// when it is nil or refuses one, it runs inline after the lock.
	Parallel commit.Parallel
}

// Signing preprocessing sizes. startBatch is the number of commitments
// an aggregator asks each peer for on first contact, and again whenever
// it has none of that peer's left; maxIssued bounds the unused nonce
// pairs a signer holds for one aggregator.
const (
	startBatch = 16
	maxIssued  = thresh.MaxCommitments
)

func (c *Config) applyDefaults() {
	if c.Now == nil {
		c.Now = time.Now
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
	Requests       uint64 // admitted client operations
	Shed           uint64 // admission-control rejections (= ShedRate + ShedBacklog)
	ShedRate       uint64 // of those, token-bucket rejections
	ShedBacklog    uint64 // of those, pending-queue-bound rejections
	ShedState      uint64 // rejections by key state (retiring / unknown key)
	Batches        uint64 // partial-request batches fanned out
	Items          uint64 // items across those batches
	CacheHits      uint64 // aggregator results served from cache
	Coalesced      uint64 // duplicate digests attached to in-flight ops
	PeerItems      uint64 // peer-side items answered
	PeerCacheHits  uint64 // of those, served from the partial cache
	Evicted        uint64 // bad partials evicted after verification
	SignAttempts   uint64 // signing attempts after a request's first (ROAST retries)
	InlineCombines uint64 // decrypt/beacon combines Parallel refused, run inline
}

// Service is one node's data plane: it serves partial operations to
// aggregating peers and aggregates partials for its own clients.
// All methods are safe for concurrent use.
type Service struct {
	cfg Config
	gr  *group.Group

	mu   sync.Mutex
	keys map[uint64]*serveKey // by key session ID
	// nonceID is the last nonce pair ID issued. Its high 32 bits are drawn
	// at random per process, so pairs of an earlier incarnation do not
	// share an ID with this one's.
	nonceID uint64
	timers  map[uint64]bool     // keys with an armed retry timer
	lag     *poly.LagrangeCache // combine coefficients at 0, by responder set
	stats   Stats
	closed  bool
}

// NewService builds a service. Keys are added with InstallKey as
// their DKG sessions complete.
func NewService(cfg Config) *Service {
	cfg.applyDefaults()
	return &Service{
		cfg:    cfg,
		gr:     cfg.Group,
		keys:   make(map[uint64]*serveKey),
		timers: make(map[uint64]bool),
		lag:    poly.NewLagrangeCache(cfg.Group.Q(), 0),
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
// share and commitment and invalidates the peer partial cache and the
// spent-nonce replays — old answers would not combine with new-epoch
// ones — restarts every signing attempt in flight and clears the
// suspects, so a Byzantine peer costs at most one bad partial per epoch.
func (s *Service) InstallKey(id msg.SessionID, share *big.Int, v *commit.Vector) (KeyInfo, error) {
	if share == nil || v == nil || !v.VerifyShare(int64(s.cfg.Self), share) {
		return KeyInfo{}, fmt.Errorf("dataplane: key %d share fails commitment check", id)
	}
	var fire, acts []func()
	var restart []*request
	s.mu.Lock()
	k := s.keys[uint64(id)]
	if k == nil {
		k = &serveKey{
			id:       id,
			inflight: make(map[[32]byte]*request),
			results:  newRing[Result](s.cfg.CacheSize),
			suspects: make(map[msg.NodeID]bool),
			partials: newRing[RespItem](s.cfg.CacheSize),
			book:     make(map[msg.NodeID][]thresh.Commitment),
			pools:    make(map[msg.NodeID]*noncePool),
		}
		s.keys[uint64(id)] = k
	} else {
		// Renewal epoch: cached partials and spent-pair replays mix epochs;
		// drop them.
		k.partials = newRing[RespItem](s.cfg.CacheSize)
		// A peer that renewed before this node answered under its new
		// share, which fails under both V(j) this node knew: evicted, it
		// was honest all along.
		clear(k.suspects)
		for _, p := range k.pools {
			p.spent, p.tombs = make(map[uint64]spentPair), nil
		}
		// Answers made under peers' old shares would fail against the new
		// V(j) (decrypt, beacon: the next tick asks again) or sum to no
		// signature (each sign attempt gives way): drop them.
		for _, req := range k.inflight {
			if req.op != OpSign {
				clear(req.decParts)
			} else if !req.done && req.live() {
				for _, a := range req.attempts {
					a.own = nil
				}
				restart = append(restart, req)
			}
		}
	}
	k.share = share
	k.prevV, k.v = k.v, v
	k.epoch++
	k.pubs = make(map[msg.NodeID]group.Element) // V(i) of the old epoch are stale
	k.pk = v.PublicKey()
	s.dispatchSignsLocked(k, restart, &fire, &acts)
	info := s.infoLocked(k)
	s.mu.Unlock()
	run(fire, acts)
	return info, nil
}

// run fires callbacks, then runs deferred actions, outside the lock.
func run(fire, acts []func()) {
	for _, f := range fire {
		f()
	}
	for _, a := range acts {
		a()
	}
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

// decodeCiphertext parses an OpDecrypt payload; c1 and c2 are the raw
// element encodings the payload's digest is computed over.
func decodeCiphertext(gr *group.Group, data []byte) (ct thresh.Ciphertext, c1, c2 []byte, err error) {
	r := msg.NewReader(data)
	c1 = r.Blob()
	c2 = r.Blob()
	if err = r.Done(); err != nil {
		return
	}
	if ct.C1, err = gr.DecodeCompressed(c1); err != nil {
		return
	}
	ct.C2, err = gr.DecodeCompressed(c2)
	return
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

// Beacon requests the round-th value of key's threshold coin. Rounds
// are 1-based; outputs are cached, so re-requesting a round is
// idempotent, and every aggregator obtains the same output.
func (s *Service) Beacon(key msg.SessionID, round uint64, cb Callback) error {
	if round == 0 {
		return fmt.Errorf("dataplane: beacon round 0 out of range")
	}
	return s.enqueue(key, &request{
		digest:  BeaconDigest(key, round),
		op:      OpBeacon,
		payload: binary.BigEndian.AppendUint64(nil, round),
		round:   round,
	}, cb)
}

// enqueue runs admission, dedup and queuing for one request.
func (s *Service) enqueue(key msg.SessionID, req *request, cb Callback) error {
	var fire, acts []func()
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
		// Signing needs the peers' commitments; nothing else is prepared.
		if req.op == OpSign {
			s.contactLocked(k)
		}
		if len(k.queue) >= s.cfg.MaxBatch {
			s.flushLocked(k, &fire, &acts)
		}
		return nil
	}()
	run(fire, acts)
	return err
}

// Flush dispatches key's queued requests now (callers that batch
// explicitly — SignBatch, the client server when a connection's read
// buffer drains — use it instead of waiting for the watermark).
func (s *Service) Flush(key msg.SessionID) {
	var fire, acts []func()
	s.mu.Lock()
	if k := s.keys[uint64(key)]; k != nil {
		s.flushLocked(k, &fire, &acts)
	}
	s.mu.Unlock()
	run(fire, acts)
}

// Kick is one retry tick for key: it re-fans out unanswered decrypt and
// beacon items to every eligible peer, supersedes signing attempts left
// unanswered for a full tick, and asks again for commitments that
// never came. Runtimes without timers (the deterministic simulator)
// call it when the event queue drains with requests still pending. A
// closed service ignores it, so its timer chain ends.
func (s *Service) Kick(key msg.SessionID) {
	var fire, acts []func()
	s.mu.Lock()
	if k := s.keys[uint64(key)]; k != nil && !s.closed {
		s.timers[uint64(key)] = false
		s.flushLocked(k, &fire, &acts) // dispatch anything still queued
		s.kickLocked(k, &fire, &acts)
		s.kickSignsLocked(k, &fire, &acts)
	}
	s.mu.Unlock()
	run(fire, acts)
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
	run(fire, nil)
}

// Activate eagerly moves a key to Serving and asks every peer for its
// starting batch of signing commitments, instead of waiting for the
// first Sign.
func (s *Service) Activate(id msg.SessionID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := s.keys[uint64(id)]; k != nil && k.state == StateReady {
		k.state = StateServing
		s.contactLocked(k)
	}
}

// flushLocked dispatches every queued request. Decrypt and beacon
// requests go as one batch: a single PartialReq per fan-out target
// carries all items. Each sign request starts its first FROST attempt,
// one PartialReq per signer.
func (s *Service) flushLocked(k *serveKey, fire, acts *[]func()) {
	if len(k.queue) == 0 {
		return
	}
	var ready, signs []*request
	for _, req := range k.queue {
		if req.op == OpSign {
			req.pending = make(map[msg.NodeID]bool, s.cfg.T)
			k.inflight[req.digest] = req
			signs = append(signs, req)
		} else {
			ready = append(ready, req)
		}
	}
	k.queue = nil
	s.dispatchSignsLocked(k, signs, fire, acts)
	if len(ready) == 0 {
		return
	}
	// The own share is never sent or cached: the combine folds it in,
	// trusted (InstallKey checked it). It counts like a peer item.
	items := make([]ReqItem, 0, len(ready))
	for _, req := range ready {
		if req.op == OpBeacon {
			req.ct.C1 = thresh.BeaconBase(s.gr, k.pk, req.round)
		}
		req.decParts = make(map[msg.NodeID]thresh.PartialDecryption, s.cfg.T+1)
		k.inflight[req.digest] = req
		items = append(items, ReqItem{Digest: req.digest, Op: req.op, Payload: req.payload})
		s.stats.PeerItems++
		s.combineLocked(k, req, fire, acts)
	}
	// Exactly t peers, as a ROAST coordinator asks: the retry tick, not
	// a spare, replaces a silent one.
	targets := s.fanoutTargetsLocked(k, s.cfg.T)
	req := &PartialReq{Key: k.id, Items: items}
	for _, to := range targets {
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

// kickLocked re-fans out every unanswered in-flight decrypt or beacon
// item to all eligible peers (idempotent: peers replay cached partials).
func (s *Service) kickLocked(k *serveKey, fire, acts *[]func()) {
	var items []ReqItem
	for _, req := range k.inflight {
		if req.done || req.op == OpSign || req.combining {
			continue
		}
		items = append(items, ReqItem{Digest: req.digest, Op: req.op, Payload: req.payload})
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
		s.cfg.Send(p, preq)
		sent = true
	}
	if sent {
		s.armTimerLocked(k, acts)
	}
}

// HandleMessage is the data-plane session handler: peer requests and
// peer responses.
func (s *Service) HandleMessage(from msg.NodeID, body msg.Body) {
	switch m := body.(type) {
	case *PartialReq:
		s.handlePartialReq(from, m)
	case *PartialResp:
		s.handlePartialResp(from, m)
	}
}

// handlePartialReq answers a peer aggregator's batch. The response also
// carries fresh commitments for that aggregator: one for each nonce pair
// the batch spent, plus the Want it asked for up to startBatch, so what
// one request can make this node draw is bounded by what it spent.
func (s *Service) handlePartialReq(from msg.NodeID, m *PartialReq) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	k := s.keys[uint64(m.Key)]
	resp := &PartialResp{Key: m.Key, Items: make([]RespItem, 0, len(m.Items))}
	issue := int(min(m.Want, startBatch))
	for _, it := range m.Items {
		switch {
		case k == nil:
			resp.Items = append(resp.Items, RespItem{Digest: it.Digest, Status: StUnknownKey})
		case it.Op == OpSign:
			out, spent := s.answerSignLocked(k, from, it)
			if spent {
				issue++
			}
			resp.Items = append(resp.Items, out)
		default:
			resp.Items = append(resp.Items, s.answerItemLocked(k, it))
		}
	}
	if k != nil && issue > 0 {
		resp.Commits = s.issueLocked(k, from, issue)
	}
	send := s.cfg.Send
	s.mu.Unlock()
	send(from, resp)
}

// nextNonceIDLocked returns a fresh nonce pair ID, drawing the
// process's epoch on first use.
func (s *Service) nextNonceIDLocked() uint64 {
	if s.nonceID == 0 {
		var epoch [4]byte
		io.ReadFull(s.cfg.Rand, epoch[:]) //nolint:errcheck // a zero epoch only weakens the restart ledger
		s.nonceID = uint64(binary.BigEndian.Uint32(epoch[:])) << 32
	}
	s.nonceID++
	return s.nonceID
}

// issueLocked draws n fresh nonce pairs for aggregator to and returns
// their encoded commitments.
func (s *Service) issueLocked(k *serveKey, to msg.NodeID, n int) []byte {
	pool := k.pools[to]
	if pool == nil {
		pool = &noncePool{unused: make(map[uint64]*thresh.NoncePair), spent: make(map[uint64]spentPair)}
		k.pools[to] = pool
	}
	if len(pool.unused)+n > maxIssued {
		// An aggregator that never spends cannot grow the pool; one that
		// still holds some of these commitments is refused and asks again.
		clear(pool.unused)
	}
	list := make([]thresh.Commitment, 0, n)
	for i := 0; i < n; i++ {
		pair, err := thresh.NewNoncePair(s.gr, s.cfg.Self, s.nextNonceIDLocked(), k.share, s.cfg.Rand)
		if err != nil {
			break
		}
		pool.unused[pair.ID] = pair
		list = append(list, pair.Commitment)
	}
	return thresh.EncodeCommitments(s.gr, list)
}

// answerSignLocked answers one FROST sign item from aggregator from: z
// under this node's pair in the item's commitment list B, which must be
// a pair issued to from, unspent, and named byte for byte as issued.
// The pair is spent — its secrets erased — before the answer exists. A
// re-ask of the same (m, B) replays the answer; any other use of a
// spent pair is refused. spent reports a pair spent by this item.
func (s *Service) answerSignLocked(k *serveKey, from msg.NodeID, it ReqItem) (out RespItem, spent bool) {
	s.stats.PeerItems++
	out = RespItem{Digest: it.Digest, Status: StBadOp}
	list, err := thresh.ParseCommitments(it.B)
	if err != nil || len(list) != s.cfg.T+1 {
		return out, false
	}
	own := -1
	for i, c := range list {
		if c.Signer == s.cfg.Self {
			own = i
		}
	}
	if own < 0 {
		return out, false
	}
	id := list[own].ID
	out.Nonce = id
	out.Status = StRefused
	pool := k.pools[from]
	if pool == nil {
		return out, false
	}
	d := SignDigest(k.id, it.Payload)
	digest := sha256.Sum256(append(d[:], it.B...)) // names the (m, B)
	if sp, ok := pool.spent[id]; ok {
		if sp.digest == digest {
			s.stats.PeerCacheHits++
			out.Status, out.Sigma = StOK, sp.z
		}
		return out, false
	}
	pair := pool.unused[id]
	if pair == nil || !pair.Matches(list[own]) {
		return out, false
	}
	out.Status = StBadOp
	for i := range list {
		if i == own {
			list[i] = pair.Commitment
		} else if list[i].Decode(s.gr) != nil {
			return out, false
		}
	}
	bind, err := thresh.Bind(s.gr, k.pk, it.Payload, it.B, list, s.lag)
	if err != nil {
		return out, false
	}
	z, err := bind.Sign(s.gr, own, pair, k.share) // erases (d, e)
	if err != nil {
		return out, false
	}
	pool.spend(id, digest, z, s.cfg.CacheSize)
	out.Status, out.Sigma = StOK, z
	return out, true
}

// answerItemLocked computes (or replays) one decrypt or beacon partial:
// D = h^{s_i} with a DLEQ proof, where h is the ciphertext's C1 or the
// round's base H_r. This node derives H_r from its own key and the
// round, never taking a base from the asker. Before the cache is
// touched, the item's digest must be the one this node derives from its
// payload: the digest then fully determines the answer, so decrypts and
// beacon rounds share a plain digest-keyed cache, and no asker can plant
// an answer under another request's digest.
func (s *Service) answerItemLocked(k *serveKey, it ReqItem) RespItem {
	s.stats.PeerItems++
	out := RespItem{Digest: it.Digest, Status: StBadOp}
	var h group.Element
	var round uint64
	switch it.Op {
	case OpDecrypt:
		ct, c1, c2, err := decodeCiphertext(s.gr, it.Payload)
		if err != nil || it.Digest != DecryptDigest(k.id, c1, c2) {
			return out
		}
		h = ct.C1
	case OpBeacon:
		if len(it.Payload) != 8 {
			return out
		}
		round = binary.BigEndian.Uint64(it.Payload)
		if round == 0 || it.Digest != BeaconDigest(k.id, round) {
			return out
		}
	default:
		return out
	}
	if cached, ok := k.partials.get(it.Digest); ok {
		s.stats.PeerCacheHits++
		return cached
	}
	if h == nil {
		h = thresh.BeaconBase(s.gr, k.pk, round)
	}
	pd, err := thresh.ProveDecryption(s.gr, s.cfg.Self, k.share, k.pub(s.cfg.Self), h, s.cfg.Rand)
	if err != nil {
		return out
	}
	out.Status, out.D, out.E, out.Z = StOK, pd.D, pd.Proof.E, pd.Proof.Z
	k.partials.put(it.Digest, out)
	return out
}

// handlePartialResp folds a peer's commitments and partials into the
// aggregator state; new commitments may let waiting sign requests start.
// Commitments are booked only once this node has asked for some: a
// reply to a previous incarnation's fetch does not fill a restarted
// node's books.
func (s *Service) handlePartialResp(from msg.NodeID, m *PartialResp) {
	var fire, acts []func()
	s.mu.Lock()
	if k := s.keys[uint64(m.Key)]; k != nil && !s.closed {
		commits := k.fetched && len(m.Commits) > 0
		if commits {
			s.bookLocked(k, from, m.Commits)
		}
		s.recordItemsLocked(k, from, m.Items, &fire, &acts)
		if commits {
			s.dispatchSignsLocked(k, s.waitingSignsLocked(k), &fire, &acts)
		}
	}
	s.mu.Unlock()
	run(fire, acts)
}

// recordItemsLocked records a sender's items and starts the combine of
// every decrypt or beacon request that reaches t peer partials. Sign
// attempts completed by the same delivery are verified together. A
// malformed OK item evicts its sender like a bad partial.
func (s *Service) recordItemsLocked(k *serveKey, from msg.NodeID, items []RespItem, fire *[]func(), acts *[]func()) {
	var finished []*attempt
	var restart []*request
	for _, it := range items {
		req := k.inflight[it.Digest]
		if req == nil || req.done {
			continue
		}
		if req.op == OpSign {
			if a := s.recordSignLocked(k, req, from, it); a != nil {
				finished = append(finished, a)
			} else if !req.done && !req.live() {
				restart = append(restart, req)
			}
			continue
		}
		switch it.Status {
		case StOK:
		case StRefused, StUnknownKey, StBadOp:
			// Permanent for this request: the sender will never
			// contribute, which feeds the give-up accounting.
			if req.refused == nil {
				req.refused = make(map[msg.NodeID]bool)
			}
			req.refused[from] = true
			continue
		default:
			continue
		}
		proved := it.E != nil && it.Z != nil && s.gr.IsScalar(it.E) && s.gr.IsScalar(it.Z)
		if it.D == nil || !s.gr.IsElement(it.D) || !proved {
			s.evictBadLocked(k, req, []msg.NodeID{from})
			continue
		}
		if _, dup := req.decParts[from]; dup {
			continue
		}
		req.decParts[from] = thresh.PartialDecryption{
			Decryptor: from, D: it.D, Proof: thresh.DLEQProof{E: it.E, Z: it.Z},
		}
		s.combineLocked(k, req, fire, acts)
	}
	restart = append(restart, s.finishSignsLocked(k, finished, fire)...)
	s.dispatchSignsLocked(k, restart, fire, acts)
}

// --- signing (FROST with ROAST-style retries) -------------------------

// contactLocked asks every peer, once per key, for its starting batch
// of signing commitments.
func (s *Service) contactLocked(k *serveKey) {
	for _, p := range s.cfg.Peers {
		if p != s.cfg.Self && !k.fetched {
			s.fetchLocked(k, p)
		}
	}
	k.fetched = true
}

// fetchLocked asks peer p for a batch of fresh commitments.
func (s *Service) fetchLocked(k *serveKey, p msg.NodeID) {
	s.cfg.Send(p, &PartialReq{Key: k.id, Want: startBatch})
}

// bookLocked adds the commitments peer from issued to this node. A
// malformed list, or one naming another signer, is evicted like a bad
// partial.
func (s *Service) bookLocked(k *serveKey, from msg.NodeID, enc []byte) {
	fresh, err := thresh.ParseCommitments(enc)
	for i := range fresh {
		if err == nil && (fresh[i].Signer != from || fresh[i].Decode(s.gr) != nil) {
			err = thresh.ErrBadArguments
		}
	}
	list := append(k.book[from], fresh...)
	if err != nil {
		s.evictBadLocked(k, nil, []msg.NodeID{from})
	} else if !k.suspects[from] {
		k.book[from] = list[max(0, len(list)-maxIssued):] // a peer holds no more
	}
}

// pickSignersLocked chooses the t peers that sign with this aggregator
// in req's next attempt: in rotation, non-suspect peers with an unused
// commitment that have answered everything req asked them and never
// refused it. Nil if there are not t.
func (s *Service) pickSignersLocked(k *serveKey, req *request) []msg.NodeID {
	t, n := s.cfg.T, len(s.cfg.Peers)
	out := make([]msg.NodeID, 0, t)
	for i := 0; i < n && len(out) < t; i++ {
		p := s.cfg.Peers[(k.rotor+i)%n]
		if p != s.cfg.Self && !k.suspects[p] && !req.pending[p] && !req.refused[p] && len(k.book[p]) > 0 {
			out = append(out, p)
			if len(out) == t {
				k.rotor = (k.rotor + i + 1) % n
			}
		}
	}
	if len(out) < t {
		return nil
	}
	return out
}

// startAttemptLocked starts req's next attempt: the aggregator's own
// fresh pair and the picked peers' oldest commitments make B, and each
// peer's item is added to out. It returns nil when too few peers have
// commitments now.
func (s *Service) startAttemptLocked(k *serveKey, req *request, out map[msg.NodeID][]ReqItem) *attempt {
	peers := s.pickSignersLocked(k, req)
	if peers == nil {
		return nil
	}
	own, err := thresh.NewNoncePair(s.gr, s.cfg.Self, s.nextNonceIDLocked(), k.share, s.cfg.Rand)
	if err != nil {
		return nil
	}
	list := []thresh.Commitment{own.Commitment}
	for _, p := range peers {
		list = append(list, k.book[p][0])
		k.book[p] = k.book[p][1:]
	}
	slices.SortFunc(list, func(x, y thresh.Commitment) int { return cmp.Compare(x.Signer, y.Signer) })
	enc := thresh.EncodeCommitments(s.gr, list)
	bind, err := thresh.Bind(s.gr, k.pk, req.payload, enc, list, s.lag)
	if err != nil {
		return nil
	}
	a := &attempt{req: req, bind: bind, own: own, z: make(map[msg.NodeID]*big.Int, len(peers))}
	req.attempts, req.gen = append(req.attempts, a), k.gen
	for _, p := range peers {
		req.pending[p] = true
		out[p] = append(out[p], ReqItem{Digest: req.digest, Op: OpSign, Payload: req.payload, B: enc})
	}
	return a
}

// dispatchSignsLocked starts an attempt for each request and sends the
// items, one PartialReq per signer. A request that finds too few
// signers with commitments waits for the next ones to arrive, or fails
// once fewer than t peers are left unsuspected.
func (s *Service) dispatchSignsLocked(k *serveKey, reqs []*request, fire, acts *[]func()) {
	out := make(map[msg.NodeID][]ReqItem)
	var solo []*attempt
	first, waiting := 0, false
	for _, req := range reqs {
		a := s.startAttemptLocked(k, req, out)
		switch {
		case a == nil && len(s.cfg.Peers)-1-len(k.suspects) < s.cfg.T:
			s.completeLocked(k, req, Result{}, fmt.Errorf("%w: fewer than %d unsuspected peers", ErrUnavailable, s.cfg.T), fire)
		case a == nil:
			waiting = true
		case len(req.attempts) == 1:
			first++
		default:
			s.stats.SignAttempts++
		}
		if a != nil && s.cfg.T == 0 { // the aggregator signs alone
			solo = append(solo, a)
		}
	}
	for _, p := range s.cfg.Peers {
		if items := out[p]; len(items) > 0 {
			s.cfg.Send(p, &PartialReq{Key: k.id, Items: items})
		}
	}
	if first > 0 {
		s.stats.Batches++
		s.stats.Items += uint64(first)
	}
	// A request left waiting for commitments needs the retry tick too:
	// it re-asks peers whose fetch was lost.
	if len(out) > 0 || waiting {
		s.armTimerLocked(k, acts)
	}
	s.finishSignsLocked(k, solo, fire)
}

// waitingSignsLocked lists the in-flight sign requests with no attempt
// that can finish.
func (s *Service) waitingSignsLocked(k *serveKey) []*request {
	var out []*request
	for _, req := range k.inflight {
		if req.op == OpSign && !req.done && !req.live() {
			out = append(out, req)
		}
	}
	return out
}

// recordSignLocked records peer from's answer to one of req's attempts
// and returns the attempt if that answer completed it. Any other answer
// ends every attempt still waiting on from. A refusal also drops the
// refuser's commitments — it no longer holds their pairs, say after a
// restart — and asks it for new ones; an answer under a nonce ID that no
// attempt of req gave from, or a malformed one, names from as faulty.
func (s *Service) recordSignLocked(k *serveKey, req *request, from msg.NodeID, it RespItem) *attempt {
	delete(req.pending, from)
	var a *attempt
	for _, at := range req.attempts {
		if i := at.bind.Index(from); i >= 0 && at.bind.List[i].ID == it.Nonce {
			a = at
		}
	}
	switch {
	case it.Status == StOK && a != nil && s.gr.IsScalar(it.Sigma):
		if a.own == nil {
			return nil
		}
		a.z[from] = it.Sigma
		if len(a.z) == s.cfg.T {
			return a
		}
		return nil
	case it.Status == StOK:
		s.evictBadLocked(k, req, []msg.NodeID{from})
	case it.Status == StRefused || it.Status == StUnknownKey:
		if req.refused == nil {
			req.refused = make(map[msg.NodeID]bool)
		}
		req.refused[from] = true
		delete(k.book, from)
		if it.Status == StRefused && !k.suspects[from] {
			s.fetchLocked(k, from)
		}
	}
	for _, at := range req.attempts {
		if at.bind.Index(from) >= 0 && at.z[from] == nil {
			at.own = nil
		}
	}
	return nil
}

// finishSignsLocked completes attempts that every peer member answered:
// the aggregator adds its own z, trusted, sums, and verifies the whole
// delivery's signatures in one batch. Only on failure does it check each
// peer's z_i against V(i), evicting every signer whose answer fails. It
// returns the requests that need a new attempt.
func (s *Service) finishSignsLocked(k *serveKey, done []*attempt, fire *[]func()) []*request {
	var ok []*attempt
	var msgs [][]byte
	var sigs []thresh.Signature
	var cs []*big.Int
	for _, a := range done {
		b := a.bind
		zs := make([]*big.Int, len(b.List))
		for i, cm := range b.List {
			zs[i] = a.z[cm.Signer]
		}
		self := b.Index(s.cfg.Self)
		var err error
		if a.own == nil {
			continue
		} else if zs[self], err = b.Sign(s.gr, self, a.own, k.share); err != nil {
			a.own = nil
			continue
		}
		ok, msgs, cs = append(ok, a), append(msgs, a.req.payload), append(cs, b.C)
		sigs = append(sigs, b.Aggregate(s.gr, zs))
	}
	if len(sigs) > 0 {
		// The key's pk is the one fixed full-width base every batch
		// verification collapses onto; precomputed tables turn that
		// term into short table lookups on the shared multi-exp chain.
		// Only an aggregator reads them, so they are built on its first
		// signed delivery (a no-op once built).
		s.gr.Precompute(k.pk)
	}
	batchOK := thresh.BatchVerifySignaturesPre(s.gr, k.pk, msgs, cs, sigs)
	var restart []*request
	for i, a := range ok {
		if batchOK || thresh.Verify(s.gr, k.pk, a.req.payload, sigs[i]) {
			s.completeLocked(k, a.req, Result{Sig: sigs[i]}, nil, fire)
			continue
		}
		a.own = nil
		var bad []msg.NodeID
		for j, cm := range a.bind.List {
			if cm.Signer != s.cfg.Self && !a.bind.VerifyShare(s.gr, j, a.z[cm.Signer], k.pub(cm.Signer)) {
				bad = append(bad, cm.Signer)
			}
		}
		if len(bad) == 0 { // every peer's answer checks out: the fault is this node's
			s.completeLocked(k, a.req, Result{}, fmt.Errorf("%w: own signature share invalid", ErrUnavailable), fire)
			continue
		}
		s.evictBadLocked(k, a.req, bad)
		if !a.req.live() {
			restart = append(restart, a.req)
		}
	}
	return restart
}

// kickSignsLocked is the signing half of a retry tick. A request whose
// newest attempt has stayed unanswered for a full tick (any tick
// without timers: the runtime then kicks only once nothing else can
// move) gets a new attempt among the peers that have answered it — as
// ROAST does, but not while the current attempt can still finish in
// time. Peers this node has no commitments from are asked again.
func (s *Service) kickSignsLocked(k *serveKey, fire, acts *[]func()) {
	if !k.fetched {
		return
	}
	k.gen++
	age := uint64(1)
	if s.cfg.Defer != nil {
		age = 2
	}
	var retry []*request
	for _, req := range k.inflight {
		if req.op == OpSign && !req.done && (!req.live() || req.gen+age <= k.gen) {
			retry = append(retry, req)
		}
	}
	for _, p := range s.cfg.Peers {
		if p != s.cfg.Self && !k.suspects[p] && len(k.book[p]) == 0 {
			s.fetchLocked(k, p)
		}
	}
	s.dispatchSignsLocked(k, retry, fire, acts)
	if len(k.inflight) > 0 {
		s.armTimerLocked(k, acts)
	}
}

// evictBadLocked marks nodes as suspects (counted once each), drops
// their contributions to req (if any) and forgets their commitments.
func (s *Service) evictBadLocked(k *serveKey, req *request, bad []msg.NodeID) {
	for _, b := range bad {
		if !k.suspects[b] {
			k.suspects[b] = true
			s.stats.Evicted++
		}
		delete(k.book, b)
		if req != nil {
			delete(req.decParts, b)
		}
	}
}

// evictLocked handles a failed combine: the senders in bad become
// suspects, then req combines again from the partials left, is re-fanned
// out, or fails when the threshold is provably out of reach.
func (s *Service) evictLocked(k *serveKey, req *request, bad []msg.NodeID, fire, acts *[]func()) {
	s.evictBadLocked(k, req, bad)
	// The threshold is still reachable while recorded partials plus
	// peers that could yet answer cover t: not suspect, not refused for
	// this request, and maybe asked already (re-asks replay).
	possible := len(req.decParts)
	for _, p := range s.cfg.Peers {
		if _, in := req.decParts[p]; p == s.cfg.Self || k.suspects[p] || req.refused[p] || in {
			continue
		}
		possible++
	}
	switch {
	case possible < s.cfg.T:
		s.completeLocked(k, req, Result{}, fmt.Errorf("%w: %d peers can answer, %d needed", ErrUnavailable, possible, s.cfg.T), fire)
	case len(req.decParts) >= s.cfg.T:
		s.combineLocked(k, req, fire, acts)
	default:
		s.kickLocked(k, fire, acts)
	}
}

// combine is what a decrypt or beacon combine snapshots under the lock
// to run outside it; lambda[0] is this node's coefficient.
type combine struct {
	req    *request
	epoch  uint64
	share  *big.Int
	parts  []thresh.PartialDecryption
	pubs   []group.Element
	prevV  *commit.Vector
	lambda []*big.Int
	inline bool // Parallel refused it
}

// combineLocked starts req's combine over its first t peer partials in
// roster order, once the lock is released (on Parallel, else inline).
func (s *Service) combineLocked(k *serveKey, req *request, fire, acts *[]func()) {
	if req.combining || req.done {
		return
	}
	c := &combine{req: req, epoch: k.epoch, share: k.share, prevV: k.prevV}
	idx := []int64{int64(s.cfg.Self)}
	for _, id := range s.cfg.Peers {
		if pd, ok := req.decParts[id]; ok && len(c.parts) < s.cfg.T {
			c.parts, c.pubs, idx = append(c.parts, pd), append(c.pubs, k.pub(id)), append(idx, int64(id))
		}
	}
	if len(c.parts) < s.cfg.T { // a sender outside the roster never counts
		return
	}
	var err error
	if c.lambda, err = s.lag.Coeffs(idx); err != nil {
		s.completeLocked(k, req, Result{}, err, fire)
		return
	}
	req.combining = true
	*acts = append(*acts, func() {
		if p := s.cfg.Parallel; p == nil || !p.Submit(func() { s.runCombine(k, c) }) {
			c.inline = p != nil
			s.runCombine(k, c)
		}
	})
}

// runCombine checks the peer proofs, with each V(j) on comb tables (the
// first job of a key epoch to meet V(j) builds them; Precompute is a
// no-op afterwards), and combines h^s = h^{λ_self·s_self}·Π D_j^{λ_j}
// (h = C1 or H_r): the own term holds the share and stays on the
// constant-time ladder, the published partials combine on the
// variable-time chain. Re-locked, it completes req or evicts; a partial
// that passes under the sender's previous V(j) is dropped without blame
// for the retry tick to ask again, and a job whose key epoch moved on is
// redone, blaming no one.
func (s *Service) runCombine(k *serveKey, c *combine) {
	req, h := c.req, c.req.ct.C1
	for _, y := range c.pubs {
		s.gr.Precompute(y)
	}
	var bad, stale []msg.NodeID
	for i, pd := range c.parts {
		switch {
		case thresh.VerifyDecryption(s.gr, c.pubs[i], h, pd):
		case c.prevV != nil && thresh.VerifyDecryption(s.gr, c.prevV.Eval(int64(pd.Decryptor)), h, pd):
			stale = append(stale, pd.Decryptor)
		default:
			bad = append(bad, pd.Decryptor)
		}
	}
	var res Result
	var err error
	if bad == nil && stale == nil {
		hs := s.gr.Mul(thresh.OwnTerm(s.gr, h, c.lambda[0], c.share), thresh.CombinePublic(s.gr, c.parts, c.lambda[1:]))
		if req.op == OpBeacon {
			res.Beacon = BeaconResult{Round: req.round, Output: thresh.BeaconOutput(s.gr, req.round, hs), Value: hs}
		} else {
			res.Plain, err = s.gr.Div(req.ct.C2, hs)
		}
	}
	var fire, acts []func()
	s.mu.Lock()
	req.combining = false
	if c.inline {
		s.stats.InlineCombines++
	}
	switch {
	case req.done:
	case k.epoch != c.epoch:
		s.evictLocked(k, req, nil, &fire, &acts)
	case bad != nil || stale != nil:
		for _, id := range stale {
			delete(req.decParts, id)
		}
		if bad == nil && len(req.decParts) < s.cfg.T {
			// Asked now, the late peers would replay the same partials
			// from their caches: the retry tick asks again.
			s.armTimerLocked(k, &acts)
		} else {
			s.evictLocked(k, req, bad, &fire, &acts)
		}
	default:
		s.completeLocked(k, req, res, err, &fire)
	}
	s.mu.Unlock()
	run(fire, acts)
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
