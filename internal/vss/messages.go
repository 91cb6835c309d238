package vss

import (
	"fmt"
	"math/big"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/sig"
)

// SessionID identifies a sharing (P_d, τ): the dealer plus a counter.
type SessionID struct {
	Dealer msg.NodeID
	Tau    uint64
}

// String implements fmt.Stringer.
func (s SessionID) String() string { return fmt.Sprintf("(P%d,%d)", s.Dealer, s.Tau) }

func (s SessionID) encode(w *msg.Writer) {
	w.Node(s.Dealer)
	w.U64(s.Tau)
}

func decodeSession(r *msg.Reader) SessionID {
	return SessionID{Dealer: r.Node(), Tau: r.U64()}
}

func decodeMatrixBlob(r *msg.Reader, gr *group.Group) (*commit.Matrix, error) {
	enc := r.Blob()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return commit.UnmarshalMatrix(gr, enc)
}

// encodeScalars writes a length-prefixed list of scalars, a row's
// coefficients.
func encodeScalars(w *msg.Writer, v []*big.Int) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.Big(x)
	}
}

// decodeScalars reads what encodeScalars wrote, refusing a list longer
// than limit.
func decodeScalars(r *msg.Reader, limit int) ([]*big.Int, error) {
	n, err := r.ListLen(limit)
	if err != nil {
		return nil, err
	}
	var v []*big.Int
	for i := 0; i < n; i++ {
		v = append(v, r.Big())
	}
	return v, r.Err()
}

// maxCoeffs bounds a row polynomial on the wire.
const maxCoeffs = 4096

// SendMsg is the dealer's (P_d, τ, send, C, a) message: the full
// commitment matrix plus the recipient's row polynomial a_i(y)=f(i,y).
// During share renewal the dealer omits the polynomials when
// retransmitting (only the commitments are resent, §5.2); OmitPoly
// marks such redacted retransmissions.
type SendMsg struct {
	Session  SessionID
	C        *commit.Matrix
	A        []*big.Int // coefficients of a_i(y), ascending; nil if OmitPoly
	OmitPoly bool
	// Compressed selects the wire-format-v2 matrix encoding on the
	// marshal side only; decoding auto-detects the version, so the flag
	// is not itself serialised and both forms decode to equal messages.
	Compressed bool
}

var _ msg.Body = (*SendMsg)(nil)

// MsgType implements msg.Body.
func (m *SendMsg) MsgType() msg.Type { return msg.TVSSSend }

// marshalMatrix encodes a commitment matrix in the configured wire
// format.
func marshalMatrix(c *commit.Matrix, compressed bool) ([]byte, error) {
	if compressed {
		return c.MarshalCompressed()
	}
	return c.MarshalBinary()
}

// MarshalBinary implements msg.Body.
func (m *SendMsg) MarshalBinary() ([]byte, error) {
	cEnc, err := marshalMatrix(m.C, m.Compressed)
	if err != nil {
		return nil, err
	}
	w := msg.NewWriter(64 + len(cEnc))
	m.Session.encode(w)
	w.Blob(cEnc)
	w.Bool(m.OmitPoly)
	if !m.OmitPoly {
		encodeScalars(w, m.A)
	}
	return w.Bytes(), nil
}

func decodeSend(gr *group.Group) msg.Decoder {
	return func(data []byte) (msg.Body, error) {
		r := msg.NewReader(data)
		out := &SendMsg{Session: decodeSession(r)}
		var err error
		if out.C, err = decodeMatrixBlob(r, gr); err != nil {
			return nil, err
		}
		out.OmitPoly = r.Bool()
		if !out.OmitPoly {
			if out.A, err = decodeScalars(r, maxCoeffs); err != nil {
				return nil, err
			}
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// EchoMsg is (P_d, τ, echo, C, α). In the default protocol the full
// commitment matrix travels in every echo (the O(κn⁴) configuration);
// with the hashed-commitment optimisation only its digest does
// (O(κn³), §3 efficiency discussion).
type EchoMsg struct {
	Session SessionID
	C       *commit.Matrix // nil in hashed/dedup mode
	CHash   [32]byte       // always set: the digest of C
	Alpha   *big.Int
	// Compressed selects the v2 matrix encoding (marshal side only).
	Compressed bool
}

var _ msg.Body = (*EchoMsg)(nil)

// MsgType implements msg.Body.
func (m *EchoMsg) MsgType() msg.Type { return msg.TVSSEcho }

// encodeCommitRef writes an echo/ready's reference to the commitment:
// the matrix itself, or its digest.
func encodeCommitRef(w *msg.Writer, c *commit.Matrix, cHash [32]byte, compressed bool) error {
	if c == nil {
		w.Bool(false)
		w.Blob(cHash[:])
		return nil
	}
	enc, err := marshalMatrix(c, compressed)
	if err != nil {
		return err
	}
	w.Bool(true)
	w.Blob(enc)
	return nil
}

// decodeCommitRef reads what encodeCommitRef wrote: a matrix and its
// digest, or a digest and a nil matrix.
func decodeCommitRef(r *msg.Reader, gr *group.Group) (*commit.Matrix, [32]byte, error) {
	var h [32]byte
	if r.Bool() {
		c, err := decodeMatrixBlob(r, gr)
		if err != nil {
			return nil, h, err
		}
		return c, c.Hash(), nil
	}
	blob := r.Blob()
	if r.Err() != nil {
		return nil, h, r.Err()
	}
	if len(blob) != 32 {
		return nil, h, fmt.Errorf("vss: bad commitment hash length %d", len(blob))
	}
	copy(h[:], blob)
	return nil, h, nil
}

// MarshalBinary implements msg.Body.
func (m *EchoMsg) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(128)
	m.Session.encode(w)
	if err := encodeCommitRef(w, m.C, m.CHash, m.Compressed); err != nil {
		return nil, err
	}
	w.Big(m.Alpha)
	return w.Bytes(), nil
}

func decodeEcho(gr *group.Group) msg.Decoder {
	return func(data []byte) (msg.Body, error) {
		r := msg.NewReader(data)
		out := &EchoMsg{Session: decodeSession(r)}
		var err error
		if out.C, out.CHash, err = decodeCommitRef(r, gr); err != nil {
			return nil, err
		}
		out.Alpha = r.Big()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// ReadyMsg is (P_d, τ, ready, C, α), optionally signed (extended
// HybridVSS, §4): the signature covers ReadyTranscript so that a set
// of n−t−f of them is a transferable completion proof R_d for the DKG
// leader's proposal.
type ReadyMsg struct {
	Session SessionID
	C       *commit.Matrix // nil in hashed/dedup mode
	CHash   [32]byte
	Alpha   *big.Int
	Sig     []byte // empty outside extended mode
	// Compressed selects the v2 matrix encoding (marshal side only).
	Compressed bool
}

var _ msg.Body = (*ReadyMsg)(nil)

// MsgType implements msg.Body.
func (m *ReadyMsg) MsgType() msg.Type { return msg.TVSSReady }

// MarshalBinary implements msg.Body.
func (m *ReadyMsg) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(160)
	m.Session.encode(w)
	if err := encodeCommitRef(w, m.C, m.CHash, m.Compressed); err != nil {
		return nil, err
	}
	w.Big(m.Alpha)
	w.Blob(m.Sig)
	return w.Bytes(), nil
}

func decodeReady(gr *group.Group) msg.Decoder {
	return func(data []byte) (msg.Body, error) {
		r := msg.NewReader(data)
		out := &ReadyMsg{Session: decodeSession(r)}
		var err error
		if out.C, out.CHash, err = decodeCommitRef(r, gr); err != nil {
			return nil, err
		}
		out.Alpha = r.Big()
		out.Sig = r.Blob()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// HelpMsg is (P_d, τ, help): a recovering node's request for
// retransmission of the messages it missed while crashed.
type HelpMsg struct {
	Session SessionID
}

var _ msg.Body = (*HelpMsg)(nil)

// MsgType implements msg.Body.
func (m *HelpMsg) MsgType() msg.Type { return msg.TVSSHelp }

// MarshalBinary implements msg.Body.
func (m *HelpMsg) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(16)
	m.Session.encode(w)
	return w.Bytes(), nil
}

func decodeHelp(data []byte) (msg.Body, error) {
	r := msg.NewReader(data)
	out := &HelpMsg{Session: decodeSession(r)}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchMsg is a pull request for the full commitment matrix behind a
// digest referenced by an echo/ready (dedup-dealings mode): the
// requester buffered points under CHash but never saw the matrix.
type FetchMsg struct {
	Session SessionID
	CHash   [32]byte
}

var _ msg.Body = (*FetchMsg)(nil)

// MsgType implements msg.Body.
func (m *FetchMsg) MsgType() msg.Type { return msg.TVSSFetch }

// MarshalBinary implements msg.Body.
func (m *FetchMsg) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(56)
	m.Session.encode(w)
	w.Blob(m.CHash[:])
	return w.Bytes(), nil
}

func decodeFetch(data []byte) (msg.Body, error) {
	r := msg.NewReader(data)
	out := &FetchMsg{Session: decodeSession(r)}
	blob := r.Blob()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(blob) != 32 {
		return nil, fmt.Errorf("vss: bad commitment hash length %d", len(blob))
	}
	copy(out.CHash[:], blob)
	return out, nil
}

// MatrixMsg answers a FetchMsg with the commitment matrix.
// It is self-authenticating: the receiver recomputes the digest from
// the decoded entries, so the reply needs no signature and may come
// from any node that resolved the digest.
type MatrixMsg struct {
	Session SessionID
	C       *commit.Matrix
	// Compressed selects the v2 matrix encoding (marshal side only).
	Compressed bool
}

var _ msg.Body = (*MatrixMsg)(nil)

// MsgType implements msg.Body.
func (m *MatrixMsg) MsgType() msg.Type { return msg.TVSSMatrix }

// MarshalBinary implements msg.Body.
func (m *MatrixMsg) MarshalBinary() ([]byte, error) {
	cEnc, err := marshalMatrix(m.C, m.Compressed)
	if err != nil {
		return nil, err
	}
	w := msg.NewWriter(24 + len(cEnc))
	m.Session.encode(w)
	w.Blob(cEnc)
	return w.Bytes(), nil
}

func decodeMatrix(gr *group.Group) msg.Decoder {
	return func(data []byte) (msg.Body, error) {
		r := msg.NewReader(data)
		out := &MatrixMsg{Session: decodeSession(r)}
		var err error
		if out.C, err = decodeMatrixBlob(r, gr); err != nil {
			return nil, err
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// RecShareMsg carries a node's share during the Rec protocol.
type RecShareMsg struct {
	Session SessionID
	Share   *big.Int
}

var _ msg.Body = (*RecShareMsg)(nil)

// MsgType implements msg.Body.
func (m *RecShareMsg) MsgType() msg.Type { return msg.TRecShare }

// MarshalBinary implements msg.Body.
func (m *RecShareMsg) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(48)
	m.Session.encode(w)
	w.Big(m.Share)
	return w.Bytes(), nil
}

func decodeRecShare(data []byte) (msg.Body, error) {
	r := msg.NewReader(data)
	out := &RecShareMsg{Session: decodeSession(r)}
	out.Share = r.Big()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// Certificate phases: which flood a certificate replaces.
const (
	// CertEcho certificates attest an echo quorum of the signer
	// committee for one commitment hash.
	CertEcho uint8 = 1
	// CertReady certificates attest a ready (completion) quorum.
	CertReady uint8 = 2
)

// CertSignMsg is a committee member's signed echo/ready attestation
// for one commitment hash, sent to the sampled relay committee instead
// of being flooded to all n nodes (certificate mode). It carries no
// evaluation point: points travel only in the dealer's send and in the
// flood-fallback path.
type CertSignMsg struct {
	Session SessionID
	Phase   uint8 // CertEcho or CertReady
	CHash   [32]byte
	Sig     []byte // scheme-encoded, over Echo-/ReadyTranscript
}

var _ msg.Body = (*CertSignMsg)(nil)

// MsgType implements msg.Body.
func (m *CertSignMsg) MsgType() msg.Type { return msg.TVSSCertSign }

// MarshalBinary implements msg.Body.
func (m *CertSignMsg) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(128)
	m.Session.encode(w)
	w.U8(m.Phase)
	w.Blob(m.CHash[:])
	w.Blob(m.Sig)
	return w.Bytes(), nil
}

func decodeCertSign(data []byte) (msg.Body, error) {
	r := msg.NewReader(data)
	out := &CertSignMsg{Session: decodeSession(r)}
	out.Phase = r.U8()
	h := r.Blob()
	if len(h) != 32 {
		return nil, fmt.Errorf("vss: bad cert-sign hash length %d", len(h))
	}
	copy(out.CHash[:], h)
	out.Sig = r.Blob()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// CertMsg is a relay's multicast of an assembled quorum certificate
// for one commitment hash.
type CertMsg struct {
	Session SessionID
	Phase   uint8 // CertEcho or CertReady
	CHash   [32]byte
	Cert    *sig.Certificate
}

var _ msg.Body = (*CertMsg)(nil)

// MsgType implements msg.Body.
func (m *CertMsg) MsgType() msg.Type { return msg.TVSSCert }

// MarshalBinary implements msg.Body.
func (m *CertMsg) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(256)
	m.Session.encode(w)
	w.U8(m.Phase)
	w.Blob(m.CHash[:])
	EncodeCertificate(w, m.Cert)
	return w.Bytes(), nil
}

func decodeCert(data []byte) (msg.Body, error) {
	r := msg.NewReader(data)
	out := &CertMsg{Session: decodeSession(r)}
	out.Phase = r.U8()
	h := r.Blob()
	if len(h) != 32 {
		return nil, fmt.Errorf("vss: bad cert hash length %d", len(h))
	}
	copy(out.CHash[:], h)
	out.Cert = DecodeCertificate(r)
	if out.Cert == nil {
		return nil, fmt.Errorf("vss: bad certificate encoding")
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeCertificate serialises a quorum certificate (shared with the
// DKG layer's certificate messages).
func EncodeCertificate(w *msg.Writer, c *sig.Certificate) {
	w.U32(uint32(len(c.Signers)))
	for i, s := range c.Signers {
		w.U64(uint64(s))
		w.Blob(c.Sigs[i])
	}
}

// DecodeCertificate reads a certificate written by EncodeCertificate;
// nil on malformed input.
func DecodeCertificate(r *msg.Reader) *sig.Certificate {
	n := r.U32()
	if r.Err() != nil || n == 0 || n > 65536 {
		return nil
	}
	c := &sig.Certificate{Signers: make([]int64, n), Sigs: make([][]byte, n)}
	for i := range c.Signers {
		c.Signers[i] = int64(r.U64())
		c.Sigs[i] = r.Blob()
	}
	if r.Err() != nil {
		return nil
	}
	return c
}

// RegisterCodec installs decoders for all VSS message types.
func RegisterCodec(c *msg.Codec, gr *group.Group) error {
	if err := c.Register(msg.TVSSSend, decodeSend(gr)); err != nil {
		return err
	}
	if err := c.Register(msg.TVSSEcho, decodeEcho(gr)); err != nil {
		return err
	}
	if err := c.Register(msg.TVSSReady, decodeReady(gr)); err != nil {
		return err
	}
	if err := c.Register(msg.TVSSHelp, decodeHelp); err != nil {
		return err
	}
	if err := c.Register(msg.TVSSFetch, decodeFetch); err != nil {
		return err
	}
	if err := c.Register(msg.TVSSMatrix, decodeMatrix(gr)); err != nil {
		return err
	}
	if err := c.Register(msg.TVSSCertSign, decodeCertSign); err != nil {
		return err
	}
	if err := c.Register(msg.TVSSCert, decodeCert); err != nil {
		return err
	}
	return c.Register(msg.TRecShare, decodeRecShare)
}

// SignedReady is one node's signed attestation that it sent ready for
// commitment CHash in this session. n−t−f of them form the R_d
// completion proof used by the DKG (Fig. 2).
type SignedReady struct {
	Signer msg.NodeID
	Sig    []byte
}

// ReadyTranscript is the byte string a ReadyMsg signature covers. It
// binds the dealer, the session counter and the commitment, but not
// the recipient-specific evaluation α (whose integrity verify-point
// enforces cryptographically).
func ReadyTranscript(session SessionID, cHash [32]byte) []byte {
	w := msg.NewWriter(64)
	w.Blob([]byte("hybriddkg/vss-ready/v1"))
	session.encode(w)
	w.Blob(cHash[:])
	return w.Bytes()
}

// EchoTranscript is the byte string a certificate-mode echo signature
// covers. Flood-mode echoes are unsigned (verify-point authenticates
// their evaluation); certificate mode replaces the point check with a
// signature over the session/commitment binding, under its own domain
// so echo and ready attestations can never be confused.
func EchoTranscript(session SessionID, cHash [32]byte) []byte {
	w := msg.NewWriter(64)
	w.Blob([]byte("hybriddkg/vss-echo/v1"))
	session.encode(w)
	w.Blob(cHash[:])
	return w.Bytes()
}

// EncodeSignedReadies / DecodeSignedReadies serialise proof sets for
// embedding in DKG messages.
func EncodeSignedReadies(w *msg.Writer, proofs []SignedReady) {
	w.U32(uint32(len(proofs)))
	for _, p := range proofs {
		w.Node(p.Signer)
		w.Blob(p.Sig)
	}
}

// DecodeSignedReadies reads a proof set written by EncodeSignedReadies.
func DecodeSignedReadies(r *msg.Reader) []SignedReady {
	n := r.U32()
	if r.Err() != nil {
		return nil
	}
	if n > 65536 {
		return nil
	}
	out := make([]SignedReady, n)
	for i := range out {
		out[i].Signer = r.Node()
		out[i].Sig = r.Blob()
	}
	return out
}
