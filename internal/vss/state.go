package vss

import (
	"bytes"
	"fmt"
	"math/big"
	"sort"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
)

// State codec: MarshalState serialises a node's complete protocol
// state — the share material, commitment counters (A_C, e_C, r_C), the
// outgoing log B and the help counters c/c_ℓ of Fig. 1 — into a
// deterministic binary form; UnmarshalState restores it into a freshly
// constructed node. This is the durable-snapshot surface used by
// internal/store: snapshot + WAL replay is what makes the paper's
// crash-recovery assumption (§3: state survives the crash) true across
// OS process lifetimes.
//
// Determinism: map-keyed state is emitted in sorted key order, so the
// same protocol state always produces identical bytes. Callbacks are
// NOT re-fired during restore — a recovered node must not re-announce
// completions its pre-crash incarnation already delivered.

// v2 added the per-commitment deferred-verification queue (batched
// point verification). v3 added certificate mode: the per-commitment
// echo-flood latch, the per-commitment certificate state (signer
// progress, relay collections, parked certificates) and the node-level
// fallback latch. Older snapshots fail the magic check and the engine
// falls back to full-WAL replay, which reconstructs the same state.
// v4 wrote the share, the matrix, each point and the row polynomials
// as lists with one entry per coordinate of a batched sharing. Sharings
// carry one secret again, and the lists stay as the framing of a value
// (see encodeOptScalar), so v4 snapshots still restore.
const vssStateMagic = "hybriddkg/vss-state/v4"

// stateListMax bounds decoded list lengths, mirroring the wire
// decoders' guards so a corrupt snapshot cannot force huge allocations.
const stateListMax = 1 << 20

// MarshalState serialises the node's full protocol state.
func (nd *Node) MarshalState() ([]byte, error) {
	w := msg.NewWriter(4096)
	w.Blob([]byte(vssStateMagic))

	w.Bool(nd.dealt)
	w.Bool(nd.sendHandled)
	w.Bool(nd.done)
	encodeOptScalar(w, nd.share)
	if err := encodeOptMatrix(w, nd.outC); err != nil {
		return nil, err
	}
	EncodeSignedReadies(w, nd.certProof)
	w.NodeSet(nd.echoSeen)
	w.NodeSet(nd.readySeen)

	// Commitment states, sorted by digest.
	hashes := sortedHashes(nd.cstates)
	w.U32(uint32(len(hashes)))
	for _, h := range hashes {
		cs := nd.cstates[h]
		w.Blob(h[:])
		if err := encodeOptMatrix(w, cs.c); err != nil {
			return nil, err
		}
		ids := make([]msg.NodeID, 0, len(cs.points))
		for id := range cs.points {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.U32(uint32(len(ids)))
		for _, id := range ids {
			w.Node(id)
			encodeOptScalar(w, cs.points[id])
		}
		w.U32(uint32(cs.echoCount))
		w.U32(uint32(cs.readyCount))
		EncodeSignedReadies(w, cs.readySigs)
		w.Bool(cs.sentReady)
		w.Bool(cs.echoFlooded)
		encodeOptPoly(w, cs.aBar)
		encodeOptPoly(w, cs.aRow)
		w.U32(uint32(len(cs.unverified)))
		for _, pp := range cs.unverified {
			w.Node(pp.from)
			encodeOptScalar(w, pp.alpha)
			w.Bool(pp.ready)
			w.Blob(pp.sig)
			w.Bool(pp.buffered)
		}
	}

	// Pending (hashed-mode) points, sorted by digest.
	pendHashes := make([][32]byte, 0, len(nd.pending))
	for h := range nd.pending {
		pendHashes = append(pendHashes, h)
	}
	sort.Slice(pendHashes, func(i, j int) bool {
		return bytes.Compare(pendHashes[i][:], pendHashes[j][:]) < 0
	})
	w.U32(uint32(len(pendHashes)))
	for _, h := range pendHashes {
		pps := nd.pending[h]
		w.Blob(h[:])
		w.U32(uint32(len(pps)))
		for _, pp := range pps {
			w.Node(pp.from)
			encodeOptScalar(w, pp.alpha)
			w.Bool(pp.ready)
			w.Blob(pp.sig)
		}
	}

	if err := msg.EncodeBodyLog(w, nd.outLog); err != nil {
		return nil, err
	}
	msg.EncodeCounterMap(w, nd.helpFrom)
	w.U32(uint32(nd.helpTotal))

	// Rec state.
	w.Bool(nd.recStarted)
	w.NodeSet(nd.recSeen)
	w.U32(uint32(len(nd.recPoints)))
	for _, pt := range nd.recPoints {
		w.U64(uint64(pt.X))
		w.Big(pt.Y)
	}
	w.U32(uint32(len(nd.recPending)))
	for i := range nd.recPending {
		w.Node(nd.recPendingSrc[i])
		nd.recPending[i].Session.encode(w)
		w.BigPtr(nd.recPending[i].Share)
	}
	w.BigPtr(nd.reconstructed)

	// Certificate-mode state (v3).
	w.Bool(nd.certFloodActive)
	certHashes := make([][32]byte, 0, len(nd.certs))
	for h := range nd.certs {
		certHashes = append(certHashes, h)
	}
	sort.Slice(certHashes, func(i, j int) bool {
		return bytes.Compare(certHashes[i][:], certHashes[j][:]) < 0
	})
	w.U32(uint32(len(certHashes)))
	for _, h := range certHashes {
		cst := nd.certs[h]
		w.Blob(h[:])
		w.Bool(cst.signedEcho)
		w.Bool(cst.signedReady)
		w.Bool(cst.readySignaled)
		w.Bool(cst.echoDone)
		w.Bool(cst.readyDone)
		w.Bool(cst.echoCertSent)
		w.Bool(cst.readyCertSent)
		w.Bool(cst.pendingEcho)
		if cst.pendingReady != nil {
			w.Bool(true)
			EncodeCertificate(w, cst.pendingReady)
		} else {
			w.Bool(false)
		}
		encodeCertSigMap(w, cst.relayEcho)
		encodeCertSigMap(w, cst.relayReady)
	}
	return w.Bytes(), nil
}

// encodeCertSigMap serialises a relay's collected certificate-form
// signatures in sorted signer order.
func encodeCertSigMap(w *msg.Writer, m map[int64][]byte) {
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

func decodeCertSigMap(r *msg.Reader) (map[int64][]byte, error) {
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

// UnmarshalState restores state captured by MarshalState into a
// freshly constructed node with the same parameters, session and
// identity. The codec decodes the logged outgoing messages (the B set
// retransmitted by the recovery protocol). Completion callbacks do not
// re-fire.
func (nd *Node) UnmarshalState(codec *msg.Codec, data []byte) error {
	if nd.dealt || nd.sendHandled || nd.done || len(nd.cstates) != 0 || len(nd.echoSeen) != 0 {
		return fmt.Errorf("%w: UnmarshalState on a non-fresh node", ErrBadParams)
	}
	if codec == nil {
		return fmt.Errorf("%w: nil codec", ErrBadParams)
	}
	r := msg.NewReader(data)
	if string(r.Blob()) != vssStateMagic {
		return fmt.Errorf("vss: bad state magic")
	}

	nd.dealt = r.Bool()
	nd.sendHandled = r.Bool()
	nd.done = r.Bool()
	var err error
	if nd.share, err = decodeOptScalar(r); err != nil {
		return err
	}
	if nd.outC, err = nd.decodeOptMatrix(r); err != nil {
		return err
	}
	nd.certProof = DecodeSignedReadies(r)
	nd.echoSeen = r.NodeSet()
	nd.readySeen = r.NodeSet()

	nCS, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.cstates = make(map[[32]byte]*cstate, nCS)
	for i := 0; i < nCS; i++ {
		var h [32]byte
		hb := r.Blob()
		if len(hb) != 32 {
			return fmt.Errorf("vss: bad cstate digest length %d", len(hb))
		}
		copy(h[:], hb)
		cs := &cstate{h: h, points: make(map[msg.NodeID]*big.Int)}
		if cs.c, err = nd.decodeOptMatrix(r); err != nil {
			return err
		}
		nPts, err := r.ListLen(stateListMax)
		if err != nil {
			return err
		}
		for j := 0; j < nPts; j++ {
			id := r.Node()
			if cs.points[id], err = decodeScalar(r); err != nil {
				return err
			}
		}
		cs.echoCount = int(r.U32())
		cs.readyCount = int(r.U32())
		cs.readySigs = DecodeSignedReadies(r)
		cs.sentReady = r.Bool()
		cs.echoFlooded = r.Bool()
		if cs.aBar, err = nd.decodeOptPoly(r); err != nil {
			return err
		}
		if cs.aRow, err = nd.decodeOptPoly(r); err != nil {
			return err
		}
		nUnv, err := r.ListLen(stateListMax)
		if err != nil {
			return err
		}
		for j := 0; j < nUnv; j++ {
			pp := pendingPoint{from: r.Node()}
			if pp.alpha, err = decodeScalar(r); err != nil {
				return err
			}
			pp.ready, pp.sig, pp.buffered = r.Bool(), r.Blob(), r.Bool()
			cs.unverified = append(cs.unverified, pp)
		}
		nd.cstates[h] = cs
	}

	nPend, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.pending = make(map[[32]byte][]pendingPoint, nPend)
	for i := 0; i < nPend; i++ {
		var h [32]byte
		hb := r.Blob()
		if len(hb) != 32 {
			return fmt.Errorf("vss: bad pending digest length %d", len(hb))
		}
		copy(h[:], hb)
		nPts, err := r.ListLen(stateListMax)
		if err != nil {
			return err
		}
		pps := make([]pendingPoint, 0, nPts)
		for j := 0; j < nPts; j++ {
			// Buffered before any check ran: a v4 snapshot may hold a point
			// vector of any length here. One that is not a single scalar
			// restores as nil, which the range check rejects as it
			// rejected the vector.
			pp := pendingPoint{from: r.Node()}
			v, err := decodeScalars(r, stateListMax)
			if err != nil {
				return err
			}
			if len(v) == 1 {
				pp.alpha = v[0]
			}
			pp.ready, pp.sig = r.Bool(), r.Blob()
			pps = append(pps, pp)
		}
		nd.pending[h] = pps
	}

	if nd.outLog, err = codec.DecodeBodyLog(r); err != nil {
		return err
	}
	if nd.helpFrom, err = msg.DecodeCounterMap(r); err != nil {
		return err
	}
	nd.helpTotal = int(r.U32())

	nd.recStarted = r.Bool()
	nd.recSeen = r.NodeSet()
	nRec, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.recPoints = nil
	for i := 0; i < nRec; i++ {
		nd.recPoints = append(nd.recPoints, poly.Point{X: int64(r.U64()), Y: r.Big()})
	}
	nRP, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	nd.recPending, nd.recPendingSrc = nil, nil
	for i := 0; i < nRP; i++ {
		src := r.Node()
		sess := decodeSession(r)
		share := r.BigPtr()
		nd.recPending = append(nd.recPending, RecShareMsg{Session: sess, Share: share})
		nd.recPendingSrc = append(nd.recPendingSrc, src)
	}
	nd.reconstructed = r.BigPtr()

	// Certificate-mode state (v3). Committees are re-sampled rather
	// than persisted — they are a pure function of session and hash.
	nd.certFloodActive = r.Bool()
	nCert, err := r.ListLen(stateListMax)
	if err != nil {
		return err
	}
	for i := 0; i < nCert; i++ {
		var h [32]byte
		hb := r.Blob()
		if len(hb) != 32 {
			return fmt.Errorf("vss: bad cert-state digest length %d", len(hb))
		}
		copy(h[:], hb)
		cst := nd.certStateFor(h)
		cst.signedEcho = r.Bool()
		cst.signedReady = r.Bool()
		cst.readySignaled = r.Bool()
		cst.echoDone = r.Bool()
		cst.readyDone = r.Bool()
		cst.echoCertSent = r.Bool()
		cst.readyCertSent = r.Bool()
		cst.pendingEcho = r.Bool()
		if r.Bool() {
			cst.pendingReady = DecodeCertificate(r)
			if cst.pendingReady == nil {
				return fmt.Errorf("vss: bad parked certificate in snapshot")
			}
		}
		if cst.relayEcho, err = decodeCertSigMap(r); err != nil {
			return err
		}
		if cst.relayReady, err = decodeCertSigMap(r); err != nil {
			return err
		}
	}
	return r.Done()
}

// --- values in list framing ------------------------------------------

// encodeOptScalar appends x as a list of one scalar, or nil as the
// empty list.
func encodeOptScalar(w *msg.Writer, x *big.Int) {
	if x == nil {
		w.U32(0)
		return
	}
	w.U32(1)
	w.Big(x)
}

// decodeOptScalar reads what encodeOptScalar wrote.
func decodeOptScalar(r *msg.Reader) (*big.Int, error) {
	n, err := r.ListLen(1)
	if err != nil || n == 0 {
		return nil, err
	}
	return r.Big(), r.Err()
}

// decodeScalar reads a scalar encodeOptScalar wrote, which must be
// there.
func decodeScalar(r *msg.Reader) (*big.Int, error) {
	x, err := decodeOptScalar(r)
	if err == nil && x == nil {
		err = fmt.Errorf("vss: snapshot point missing")
	}
	return x, err
}

// encodeOptMatrix appends a dealing's matrix as a list of one; nil
// (digest known, matrix not) encodes as the empty list.
func encodeOptMatrix(w *msg.Writer, c *commit.Matrix) error {
	if c == nil {
		w.U32(0)
		return nil
	}
	enc, err := c.MarshalBinary()
	if err != nil {
		return err
	}
	w.U32(1)
	w.Blob(enc)
	return nil
}

func (nd *Node) decodeOptMatrix(r *msg.Reader) (*commit.Matrix, error) {
	n, err := r.ListLen(1)
	if err != nil || n == 0 {
		return nil, err
	}
	enc := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	c, err := commit.UnmarshalMatrix(nd.params.Group, enc)
	if err != nil {
		return nil, err
	}
	if !nd.wellFormed(c) {
		return nil, fmt.Errorf("vss: snapshot dealing is not a degree-%d matrix", nd.params.T)
	}
	return c, nil
}

// encodeOptPoly appends a row polynomial as a list of one; nil encodes
// as the empty list.
func encodeOptPoly(w *msg.Writer, p *poly.Poly) {
	if p == nil {
		w.U32(0)
		return
	}
	w.U32(1)
	EncodePolyPtr(w, p)
}

func (nd *Node) decodeOptPoly(r *msg.Reader) (*poly.Poly, error) {
	n, err := r.ListLen(1)
	if err != nil || n == 0 {
		return nil, err
	}
	p, err := DecodePolyPtr(r, nd.params.Group.Q())
	if err == nil && p == nil {
		err = fmt.Errorf("vss: snapshot row polynomial missing")
	}
	return p, err
}

// --- nullable crypto-object helpers (shared with internal/dkg) -------

// EncodeMatrixPtr appends a nullable commitment matrix.
func EncodeMatrixPtr(w *msg.Writer, m *commit.Matrix) error {
	if m == nil {
		w.Bool(false)
		return nil
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		return err
	}
	w.Bool(true)
	w.Blob(enc)
	return nil
}

// DecodeMatrixPtr reads a matrix written by EncodeMatrixPtr.
func DecodeMatrixPtr(r *msg.Reader, gr *group.Group) (*commit.Matrix, error) {
	if !r.Bool() {
		return nil, nil
	}
	enc := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return commit.UnmarshalMatrix(gr, enc)
}

// EncodePolyPtr appends a nullable polynomial (ascending coefficients).
func EncodePolyPtr(w *msg.Writer, p *poly.Poly) {
	if p == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	coeffs := p.Coeffs()
	w.U32(uint32(len(coeffs)))
	for _, c := range coeffs {
		w.Big(c)
	}
}

// DecodePolyPtr reads a polynomial written by EncodePolyPtr.
func DecodePolyPtr(r *msg.Reader, q *big.Int) (*poly.Poly, error) {
	if !r.Bool() {
		return nil, nil
	}
	n, err := r.ListLen(4096)
	if err != nil {
		return nil, err
	}
	coeffs := make([]*big.Int, n)
	for i := range coeffs {
		coeffs[i] = r.Big()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return poly.FromCoeffs(q, coeffs)
}

func sortedHashes(m map[[32]byte]*cstate) [][32]byte {
	out := make([][32]byte, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}
