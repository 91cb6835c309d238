package dkg

import (
	"sort"
	"testing"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/vss"
)

// This white-box test drives the worst Byzantine-leader behaviour the
// protocol must survive: a leader that constructs two *valid* but
// different proposals (both with genuine R̂ proofs) and shows each to
// half the cluster. Safety demands no two honest nodes ever complete
// with different Q sets; liveness demands the pessimistic phase
// eventually completes everyone under an honest leader.

// equivLeader wraps a real Node whose own proposals are suppressed;
// once it has t+2 completed sharings it sends conflicting proposals.
type equivLeader struct {
	inner *Node
	env   *simnet.Env
	n, t  int
	sent  bool
}

// suppressSends drops the inner node's leader proposals (and its
// lead-ch messages) while letting VSS traffic through.
type suppressSends struct {
	env *simnet.Env
}

func (s suppressSends) Send(to msg.NodeID, body msg.Body) {
	switch body.(type) {
	case *SendMsg, *LeadChMsg:
		return
	}
	s.env.Send(to, body)
}
func (s suppressSends) SetTimer(uint64, int64) {}
func (s suppressSends) StopTimer(uint64)       {}

func (e *equivLeader) HandleMessage(from msg.NodeID, body msg.Body) {
	e.inner.Handle(from, body)
	e.maybeEquivocate()
}
func (e *equivLeader) HandleTimer(uint64) {}
func (e *equivLeader) HandleRecover()     {}

// maybeEquivocate crafts two overlapping-but-different valid
// proposals from t+2 completed sharings and partitions the cluster.
func (e *equivLeader) maybeEquivocate() {
	if e.sent || len(e.inner.vssDone) < e.t+2 {
		return
	}
	e.sent = true
	dealers := make([]msg.NodeID, 0, len(e.inner.vssDone))
	for d := range e.inner.vssDone {
		dealers = append(dealers, d)
	}
	sort.Slice(dealers, func(i, j int) bool { return dealers[i] < dealers[j] })
	mk := func(ds []msg.NodeID) *Proposal {
		p := &Proposal{
			Q:         ds,
			CHashes:   make([][32]byte, len(ds)),
			Kind:      KindVSS,
			VSSProofs: make([][]vss.SignedReady, len(ds)),
		}
		for i, d := range ds {
			p.CHashes[i] = e.inner.vssDone[d].C.Hash()
			p.VSSProofs[i] = e.inner.vssNodes[d].ReadyProof()
		}
		return p
	}
	q1 := mk(dealers[:e.t+1])    // first t+1 dealers
	q2 := mk(dealers[1 : e.t+2]) // shifted window: different set
	for j := 1; j <= e.n; j++ {
		prop := q1
		if j > e.n/2 {
			prop = q2
		}
		e.env.Send(msg.NodeID(j), &SendMsg{Tau: 1, View: 1, Prop: prop})
	}
}

func TestEquivocatingLeaderSafetyAndLiveness(t *testing.T) {
	const n, tt = 7, 2
	gr := group.Test256()
	for seed := uint64(1); seed <= 4; seed++ {
		scheme := sig.Ed25519{}
		dir := sig.NewDirectory(scheme)
		privs := make(map[msg.NodeID][]byte, n)
		keyRand := randutil.NewReader(seed * 101)
		for i := 1; i <= n; i++ {
			priv, pub, err := scheme.GenerateKey(keyRand)
			if err != nil {
				t.Fatal(err)
			}
			if err := dir.Add(int64(i), pub); err != nil {
				t.Fatal(err)
			}
			privs[msg.NodeID(i)] = priv
		}
		net := simnet.New(simnet.Options{Seed: seed})
		params := func(id msg.NodeID) Params {
			return Params{
				Group: gr, N: n, T: tt,
				Directory: dir, SignKey: privs[id],
				TimeoutBase: 3000,
			}
		}
		honest := make(map[msg.NodeID]*Node, n-1)
		var leader *equivLeader

		// Node 1 (initial leader) is the equivocator.
		env1 := net.Env(1)
		inner, err := NewNode(params(1), 1, 1, suppressSends{env: env1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		leader = &equivLeader{inner: inner, env: env1, n: n, t: tt}
		net.Register(1, leader)

		type adapter struct{ nd *Node }
		for i := 2; i <= n; i++ {
			id := msg.NodeID(i)
			nd, err := NewNode(params(id), 1, id, net.Env(id), Options{})
			if err != nil {
				t.Fatal(err)
			}
			honest[id] = nd
			a := adapter{nd: nd}
			net.Register(id, handlerFuncs{
				msg:   a.nd.Handle,
				timer: a.nd.HandleTimer,
			})
		}
		// Everyone deals (including the equivocator's inner node, so
		// its VSS completions generate valid proof material).
		if err := inner.Start(randutil.NewReader(seed*7 + 1)); err != nil {
			t.Fatal(err)
		}
		for id, nd := range honest {
			if err := nd.Start(randutil.NewReader(seed*7 + uint64(id))); err != nil {
				t.Fatal(err)
			}
		}
		net.RunUntil(func() bool {
			for _, nd := range honest {
				if !nd.Done() {
					return false
				}
			}
			return true
		}, 2_000_000)
		net.Run(100_000)

		// Safety: all completed honest nodes agree exactly.
		var refQ []msg.NodeID
		for id, nd := range honest {
			if !nd.Done() {
				t.Fatalf("seed %d: node %d never completed (liveness)", seed, id)
			}
			q := nd.Result().Q
			if refQ == nil {
				refQ = q
				continue
			}
			if len(q) != len(refQ) {
				t.Fatalf("seed %d: conflicting Q sizes", seed)
			}
			for i := range q {
				if q[i] != refQ[i] {
					t.Fatalf("seed %d: conflicting Q sets %v vs %v", seed, q, refQ)
				}
			}
		}
		// The equivocator really did equivocate.
		if !leader.sent {
			t.Fatalf("seed %d: adversary never sent conflicting proposals", seed)
		}
	}
}

// handlerFuncs adapts bare functions to simnet.Handler.
type handlerFuncs struct {
	msg   func(msg.NodeID, msg.Body)
	timer func(uint64)
}

func (h handlerFuncs) HandleMessage(from msg.NodeID, body msg.Body) { h.msg(from, body) }
func (h handlerFuncs) HandleTimer(id uint64) {
	if h.timer != nil {
		h.timer(id)
	}
}
func (h handlerFuncs) HandleRecover() {}

// TestLockGuardRefusesConflictingReady exercises the safety-critical
// lock rule directly: once a node has readied one proposal it must
// never ready a different one, even under a full echo quorum.
func TestLockGuardRefusesConflictingReady(t *testing.T) {
	const n, tt = 7, 2
	gr := group.Test256()
	scheme := sig.Ed25519{}
	dir := sig.NewDirectory(scheme)
	privs := make(map[msg.NodeID][]byte, n)
	r := randutil.NewReader(5)
	for i := 1; i <= n; i++ {
		priv, pub, err := scheme.GenerateKey(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Add(int64(i), pub); err != nil {
			t.Fatal(err)
		}
		privs[msg.NodeID(i)] = priv
	}
	var sent []msg.Body
	sender := senderFunc(func(_ msg.NodeID, body msg.Body) { sent = append(sent, body) })
	nd, err := NewNode(Params{
		Group: gr, N: n, T: tt, Directory: dir, SignKey: privs[1],
	}, 1, 1, sender, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var h1, h2 [32]byte
	h1[0], h2[0] = 1, 2
	prop1 := &Proposal{Q: []msg.NodeID{2, 3, 4}, CHashes: [][32]byte{h1, h1, h1}, Kind: KindEcho}
	prop2 := &Proposal{Q: []msg.NodeID{3, 4, 5}, CHashes: [][32]byte{h2, h2, h2}, Kind: KindEcho}
	echoFor := func(signer msg.NodeID, prop *Proposal) *EchoMsg {
		sigBytes, err := scheme.Sign(privs[signer], EchoTranscript(1, prop.Digest(1)))
		if err != nil {
			t.Fatal(err)
		}
		return &EchoMsg{Tau: 1, Prop: prop, Sig: sigBytes}
	}
	countReadies := func() int {
		k := 0
		for _, b := range sent {
			if _, ok := b.(*ReadyMsg); ok {
				k++
			}
		}
		return k
	}
	// Echo quorum (⌈(7+2+1)/2⌉ = 5) for prop1 → node locks and
	// broadcasts ready.
	for _, s := range []msg.NodeID{2, 3, 4, 5, 6} {
		nd.Handle(s, echoFor(s, prop1))
	}
	if got := countReadies(); got != n {
		t.Fatalf("expected %d readies after first quorum, got %d", n, got)
	}
	// Echo quorum for a conflicting proposal must NOT produce readies.
	for _, s := range []msg.NodeID{2, 3, 4, 5, 6} {
		nd.Handle(s, echoFor(s, prop2))
	}
	if got := countReadies(); got != n {
		t.Fatalf("lock violated: %d readies after conflicting quorum", got)
	}
}

type senderFunc func(msg.NodeID, msg.Body)

func (f senderFunc) Send(to msg.NodeID, body msg.Body) { f(to, body) }
func (f senderFunc) SetTimer(uint64, int64)            {}
func (f senderFunc) StopTimer(uint64)                  {}
