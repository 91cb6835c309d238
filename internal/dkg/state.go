package dkg

import (
	"bytes"
	"fmt"
	"sort"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/vss"
)

// State codec: MarshalState captures a DKG node's complete session
// state — view/leader-change progress, proposal quorums and the lock,
// the decided set, the DKG-level outgoing log and help counters, the
// Q̂/R̂ bookkeeping, and every embedded HybridVSS instance's state —
// in a deterministic binary form; UnmarshalState restores it into a
// freshly constructed node. Together with the delivered-frame WAL
// (internal/store) this gives true process-restart recovery: snapshot
// + replay rebuilds the state machine, and the protocol's own
// recover/help machinery (Fig. 1, §5.3) covers the frames lost while
// the process was down.
//
// Timers are deliberately not persisted: wall-clock deadlines are
// meaningless across a restart. Instead a single flag records whether
// the completion timer was armed, and restore re-arms it fresh for the
// current view, which preserves the liveness argument (delay(t) is
// merely restarted, not skipped).

// v2 appended the certificate-mode block (fallback latch, suppressed
// classic messages and per-digest certificate state). v3 dropped the
// per-sharing copy of R_d, which the embedded VSS state already holds.
// v4 added the further coordinates of batched sessions to the completed
// sharings and the result, which a session of one secret and one output
// encodes as it did before. v5 keeps
// every counted echo/ready signature with a cursor over the verified
// ones, since signatures are checked only when the lock draws its M set.
// Restores of older snapshots fail the magic check and fall back to WAL
// replay.
const dkgStateMagic = "hybriddkg/dkg-state/v5"

const stateListMax = 1 << 20

// MarshalState serialises the node's full session state, including the
// embedded per-dealer VSS instances.
func (nd *Node) MarshalState() ([]byte, error) {
	w := msg.NewWriter(8192)
	w.Blob([]byte(dkgStateMagic))
	w.U64(nd.tau)

	w.Bool(nd.started)
	w.U64(nd.curView)
	encodeU64Set(w, nd.sendSeen)
	encodeU64Set(w, nd.proposedView)
	encodeSignedQs(w, nd.leaderProof)

	// Quorum states, sorted by digest.
	digests := make([][32]byte, 0, len(nd.qstates))
	for d := range nd.qstates {
		digests = append(digests, d)
	}
	sort.Slice(digests, func(i, j int) bool { return bytes.Compare(digests[i][:], digests[j][:]) < 0 })
	w.U32(uint32(len(digests)))
	for _, d := range digests {
		qs := nd.qstates[d]
		w.Blob(d[:])
		qs.prop.encode(w)
		qs.echo.encode(w)
		qs.ready.encode(w)
	}

	// Lock and adopted material.
	w.Bool(nd.lock != nil)
	if nd.lock != nil {
		nd.lock.prop.encode(w)
		w.Blob(nd.lock.digest[:])
		w.U8(uint8(nd.lock.kind))
		encodeSignedQs(w, nd.lock.sigs)
	}
	encodeProposalPtr(w, nd.adoptedM)
	encodeProposalPtr(w, nd.adoptedVSS)

	// Leader-change state.
	views := make([]uint64, 0, len(nd.lcVotes))
	for v := range nd.lcVotes {
		views = append(views, v)
	}
	sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
	w.U32(uint32(len(views)))
	for _, v := range views {
		w.U64(v)
		votes := nd.lcVotes[v]
		ids := make([]msg.NodeID, 0, len(votes))
		for id := range votes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.U32(uint32(len(ids)))
		for _, id := range ids {
			w.Node(id)
			w.Blob(votes[id])
		}
	}
	w.Bool(nd.lcJoined)
	encodeU64Set(w, nd.lcSent)
	w.U32(uint32(nd.lcCount))

	// Decision and completion.
	encodeProposalPtr(w, nd.decided)
	w.Bool(nd.done)
	if nd.done {
		if err := encodeResult(w, nd.result); err != nil {
			return nil, err
		}
	}

	// Recovery bookkeeping and timers.
	if err := msg.EncodeBodyLog(w, nd.outLog); err != nil {
		return nil, err
	}
	msg.EncodeCounterMap(w, nd.helpFrom)
	w.U32(uint32(nd.helpTotal))
	w.Bool(nd.timerArmed)

	// Completed sharings (Q̂/R̂ bookkeeping).
	dealers := make([]msg.NodeID, 0, len(nd.vssDone))
	for d := range nd.vssDone {
		dealers = append(dealers, d)
	}
	sort.Slice(dealers, func(i, j int) bool { return dealers[i] < dealers[j] })
	w.U32(uint32(len(dealers)))
	for _, d := range dealers {
		ev := nd.vssDone[d]
		w.Node(d)
		if err := vss.EncodeMatrixPtr(w, ev.C); err != nil {
			return nil, err
		}
		w.BigPtr(ev.Share)
	}

	// Embedded VSS instances, dealer order 1..n.
	for d := 1; d <= nd.params.N; d++ {
		vs, err := nd.vssNodes[msg.NodeID(d)].MarshalState()
		if err != nil {
			return nil, fmt.Errorf("dkg: marshal vss state for dealer %d: %w", d, err)
		}
		w.Blob(vs)
	}

	// Certificate mode (state v2). Committees are pure functions of
	// (τ, digest) and are re-sampled on restore, not persisted.
	w.Bool(nd.certFloodActive)
	w.U32(uint32(len(nd.certSuppressed)))
	for _, b := range nd.certSuppressed {
		if err := msg.EncodeBody(w, b); err != nil {
			return nil, err
		}
	}
	certDigests := make([][32]byte, 0, len(nd.dcerts))
	for d := range nd.dcerts {
		certDigests = append(certDigests, d)
	}
	sort.Slice(certDigests, func(i, j int) bool {
		return bytes.Compare(certDigests[i][:], certDigests[j][:]) < 0
	})
	w.U32(uint32(len(certDigests)))
	for _, d := range certDigests {
		dc := nd.dcerts[d]
		w.Blob(d[:])
		dc.prop.encode(w)
		w.Bool(dc.signedEcho)
		w.Bool(dc.signedReady)
		w.Bool(dc.echoDone)
		w.Bool(dc.readyDone)
		w.Bool(dc.echoCertSent)
		w.Bool(dc.readyCertSent)
		encodeSigMap(w, dc.relayEcho)
		encodeSigMap(w, dc.relayReady)
	}
	return w.Bytes(), nil
}

// UnmarshalState restores state captured by MarshalState into a
// freshly constructed node with the same parameters, session counter
// and identity. The codec decodes the logged outgoing messages.
// Completion callbacks do not re-fire; if the node was mid-protocol,
// the armed completion timer is re-armed fresh for the current view.
func (nd *Node) UnmarshalState(codec *msg.Codec, data []byte) error {
	if nd.started || nd.curView != uint64(nd.params.InitialLeader) || len(nd.qstates) != 0 {
		return fmt.Errorf("%w: UnmarshalState on a non-fresh node", ErrBadParams)
	}
	if codec == nil {
		return fmt.Errorf("%w: nil codec", ErrBadParams)
	}
	r := msg.NewReader(data)
	if string(r.Blob()) != dkgStateMagic {
		return fmt.Errorf("dkg: bad state magic")
	}
	if tau := r.U64(); tau != nd.tau {
		return fmt.Errorf("dkg: snapshot for session %d restored into session %d", tau, nd.tau)
	}

	nd.started = r.Bool()
	nd.curView = r.U64()
	nd.sendSeen = decodeU64Set(r)
	nd.proposedView = decodeU64Set(r)
	nd.leaderProof = decodeSignedQs(r)

	nQS, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.qstates = make(map[[32]byte]*qstate, nQS)
	for i := 0; i < nQS; i++ {
		var d [32]byte
		db := r.Blob()
		if len(db) != 32 {
			return fmt.Errorf("dkg: bad qstate digest length %d", len(db))
		}
		copy(d[:], db)
		prop := decodeProposal(r)
		if prop == nil {
			return fmt.Errorf("dkg: bad qstate proposal encoding")
		}
		qs := &qstate{prop: prop, digest: d, echo: decodeTally(r), ready: decodeTally(r)}
		if qs.echo.checked > len(qs.echo.sigs) || qs.ready.checked > len(qs.ready.sigs) {
			return fmt.Errorf("dkg: qstate cursor past its signatures")
		}
		nd.qstates[d] = qs
	}

	if r.Bool() {
		prop := decodeProposal(r)
		if prop == nil {
			return fmt.Errorf("dkg: bad lock proposal encoding")
		}
		lk := &lockState{prop: prop}
		db := r.Blob()
		if len(db) != 32 {
			return fmt.Errorf("dkg: bad lock digest length %d", len(db))
		}
		copy(lk.digest[:], db)
		lk.kind = ProofKind(r.U8())
		lk.sigs = decodeSignedQs(r)
		nd.lock = lk
	}
	if nd.adoptedM, err = decodeProposalPtr(r); err != nil {
		return err
	}
	if nd.adoptedVSS, err = decodeProposalPtr(r); err != nil {
		return err
	}

	nLC, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.lcVotes = make(map[uint64]map[msg.NodeID][]byte, nLC)
	for i := 0; i < nLC; i++ {
		v := r.U64()
		nVotes, err := r.ListLen(stateListMax)
		if err != nil {
			return err
		}
		votes := make(map[msg.NodeID][]byte, nVotes)
		for j := 0; j < nVotes; j++ {
			id := r.Node()
			votes[id] = r.Blob()
		}
		nd.lcVotes[v] = votes
	}
	nd.lcJoined = r.Bool()
	nd.lcSent = decodeU64Set(r)
	nd.lcCount = int(r.U32())

	if nd.decided, err = decodeProposalPtr(r); err != nil {
		return err
	}
	nd.done = r.Bool()
	if nd.done {
		if nd.result, err = decodeResult(r, nd); err != nil {
			return err
		}
	}

	if nd.outLog, err = codec.DecodeBodyLog(r); err != nil {
		return err
	}
	if nd.helpFrom, err = msg.DecodeCounterMap(r); err != nil {
		return err
	}
	nd.helpTotal = int(r.U32())
	wasArmed := r.Bool()

	nDealers, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.vssDone = make(map[msg.NodeID]vss.SharedEvent, nDealers)
	for i := 0; i < nDealers; i++ {
		d := r.Node()
		c, err := vss.DecodeMatrixPtr(r, nd.params.Group)
		if err != nil {
			return err
		}
		share := r.BigPtr()
		if c == nil || share == nil {
			return fmt.Errorf("dkg: vssDone dealer %d incomplete", d)
		}
		if d < 1 || int(d) > nd.params.N {
			return fmt.Errorf("dkg: vssDone dealer %d out of range", d)
		}
		nd.vssDone[d] = vss.SharedEvent{Session: vss.SessionID{Dealer: d, Tau: nd.tau}, C: c, Share: share}
	}

	for d := 1; d <= nd.params.N; d++ {
		vs := r.Blob()
		if err := r.Err(); err != nil {
			return err
		}
		if err := nd.vssNodes[msg.NodeID(d)].UnmarshalState(codec, vs); err != nil {
			return fmt.Errorf("dkg: restore vss state for dealer %d: %w", d, err)
		}
	}
	nd.certFloodActive = r.Bool()
	nSupp, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.certSuppressed = nil
	for i := 0; i < nSupp; i++ {
		b, err := codec.DecodeBody(r)
		if err != nil {
			return fmt.Errorf("dkg: decode suppressed message: %w", err)
		}
		nd.certSuppressed = append(nd.certSuppressed, b)
	}
	nCerts, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.dcerts = make(map[[32]byte]*dcertState, nCerts)
	for i := 0; i < nCerts; i++ {
		var d [32]byte
		db := r.Blob()
		if len(db) != 32 {
			return fmt.Errorf("dkg: bad cert digest length %d", len(db))
		}
		copy(d[:], db)
		prop := decodeProposal(r)
		if prop == nil {
			return fmt.Errorf("dkg: bad cert proposal encoding")
		}
		dc := &dcertState{comm: nd.certCommittee(d), prop: prop}
		dc.signedEcho = r.Bool()
		dc.signedReady = r.Bool()
		dc.echoDone = r.Bool()
		dc.readyDone = r.Bool()
		dc.echoCertSent = r.Bool()
		dc.readyCertSent = r.Bool()
		if dc.relayEcho, err = decodeSigMap(r); err != nil {
			return err
		}
		if dc.relayReady, err = decodeSigMap(r); err != nil {
			return err
		}
		nd.dcerts[d] = dc
	}
	if err := r.Done(); err != nil {
		return err
	}

	if wasArmed && !nd.done && nd.decided == nil {
		nd.armTimer()
	}
	return nil
}

// RestoreNode constructs a node for session tau and restores the given
// snapshot into it — the one-call form of NewNode + UnmarshalState
// used by engine restore factories.
func RestoreNode(params Params, tau uint64, self msg.NodeID, runtime Runtime, opts Options, codec *msg.Codec, state []byte) (*Node, error) {
	nd, err := NewNode(params, tau, self, runtime, opts)
	if err != nil {
		return nil, err
	}
	if err := nd.UnmarshalState(codec, state); err != nil {
		return nil, err
	}
	return nd, nil
}

// --- helpers ---------------------------------------------------------

func encodeU64Set(w *msg.Writer, set map[uint64]bool) {
	vs := make([]uint64, 0, len(set))
	for v, ok := range set {
		if ok {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

func decodeU64Set(r *msg.Reader) map[uint64]bool {
	n := r.U32()
	if r.Err() != nil || int(n) > stateListMax {
		return make(map[uint64]bool)
	}
	set := make(map[uint64]bool, n)
	for i := 0; i < int(n); i++ {
		set[r.U64()] = true
	}
	return set
}

func (t *tally) encode(w *msg.Writer) {
	w.NodeSet(t.seen)
	encodeSignedQs(w, t.sigs)
	w.U32(uint32(t.checked))
	w.U32(uint32(t.count))
}

func decodeTally(r *msg.Reader) tally {
	return tally{seen: r.NodeSet(), sigs: decodeSignedQs(r), checked: int(r.U32()), count: int(r.U32())}
}

// encodeSigMap appends a signer→certificate-signature map in sorted
// signer order (a relay's in-progress collection).
func encodeSigMap(w *msg.Writer, m map[int64][]byte) {
	signers := make([]int64, 0, len(m))
	for s := range m {
		signers = append(signers, s)
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
	w.U32(uint32(len(signers)))
	for _, s := range signers {
		w.U64(uint64(s))
		w.Blob(m[s])
	}
}

func decodeSigMap(r *msg.Reader) (map[int64][]byte, error) {
	n, err := r.ListLen(stateListMax)
	if err != nil {
		return nil, err
	}
	out := make(map[int64][]byte, n)
	for i := 0; i < n; i++ {
		s := int64(r.U64())
		out[s] = r.Blob()
	}
	return out, r.Err()
}

func encodeProposalPtr(w *msg.Writer, p *Proposal) {
	w.Bool(p != nil)
	if p != nil {
		p.encode(w)
	}
}

func decodeProposalPtr(r *msg.Reader) (*Proposal, error) {
	if !r.Bool() {
		return nil, nil
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	p := decodeProposal(r)
	if p == nil {
		return nil, fmt.Errorf("dkg: bad proposal encoding in state")
	}
	return p, nil
}

func encodeResult(w *msg.Writer, ev *CompletedEvent) error {
	if ev == nil || ev.V == nil || ev.Share == nil {
		return fmt.Errorf("dkg: done without a complete result")
	}
	w.U64(ev.FinalView)
	w.Nodes(ev.Q)
	if err := vss.EncodeMatrixPtr(w, ev.C); err != nil {
		return err
	}
	vEnc, err := ev.V.MarshalBinary()
	if err != nil {
		return err
	}
	w.Blob(vEnc)
	w.Big(ev.Share)
	return nil
}

func decodeResult(r *msg.Reader, nd *Node) (*CompletedEvent, error) {
	ev := &CompletedEvent{Tau: nd.tau}
	ev.FinalView = r.U64()
	ev.Q = r.Nodes()
	var err error
	if ev.C, err = vss.DecodeMatrixPtr(r, nd.params.Group); err != nil {
		return nil, err
	}
	vEnc := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ev.V, err = commit.UnmarshalVector(nd.params.Group, vEnc); err != nil {
		return nil, err
	}
	ev.Share = r.Big()
	ev.PublicKey = ev.V.PublicKey()
	return ev, nil
}
