// Package msg defines the message substrate shared by every protocol
// in the repository: node identifiers, session identifiers, the Body
// interface implemented by all protocol messages, and a codec registry
// used by the TCP transport to decode messages received from the wire.
//
// The paper's system design (§7) is a deterministic state machine
// driven by operator, network and timer messages; Body models the
// network messages. Protocol packages (vss, dkg, rbc, groupmod,
// proactive) define their own concrete Body types and register
// decoders with a Codec.
package msg

import (
	"errors"
	"fmt"
)

// NodeID is a 1-based node index; the paper assumes each node has a
// unique identifying index published alongside its certificate (§2.3).
type NodeID int64

// SessionID identifies one protocol instance multiplexed over a shared
// runtime (the φ/τ counters of §5–§6 generalised to arbitrary
// concurrent instances). Session 0 is the legacy single-instance
// session used by runtimes that predate multiplexing.
type SessionID uint64

// String implements fmt.Stringer.
func (s SessionID) String() string { return fmt.Sprintf("session(%d)", uint64(s)) }

// Type tags every wire message. Values are centralised here so the
// codec registry cannot collide across protocol packages.
type Type uint8

// Message type tags. Grouped by protocol.
const (
	// HybridVSS (Fig. 1) and Rec.
	TVSSSend Type = iota + 1
	TVSSEcho
	TVSSReady
	TVSSHelp
	TRecShare

	// DKG (Figs. 2–3).
	TDKGSend
	TDKGEcho
	TDKGReady
	TDKGLeadCh
	TDKGHelp

	// Reliable broadcast (Backes–Cachin, used by group modification).
	TRBCSend
	TRBCEcho
	TRBCReady

	// Group modification (§6) and proactive phases (§5).
	TGroupModProposal
	TClockTick
	TSubshare

	// Wire format v2: commitment dedup by hash reference. A node that
	// buffered points for an unknown commitment hash pulls the full
	// matrix from a peer that referenced it (TVSSFetch) and receives it
	// as TVSSMatrix.
	TVSSFetch
	TVSSMatrix

	// Threshold data plane (internal/dataplane): partial-operation
	// fan-out between an aggregator and its peers. The slot after them
	// carried beacon-window provisioning when beacon rounds were DKGs; it
	// stays reserved so the codes after it keep their values.
	TDataReq
	TDataResp
	_

	// Quorum certificates (certificate mode): committee members send
	// signed echo/ready attestations to sampled relays (TVSSCertSign /
	// TDKGCertSign); relays multicast the assembled certificates
	// (TVSSCert / TDKGCert).
	TVSSCertSign
	TVSSCert
	TDKGCertSign
	TDKGCert
)

// String implements fmt.Stringer for diagnostics and accounting keys.
func (t Type) String() string {
	switch t {
	case TVSSSend:
		return "vss-send"
	case TVSSEcho:
		return "vss-echo"
	case TVSSReady:
		return "vss-ready"
	case TVSSHelp:
		return "vss-help"
	case TRecShare:
		return "rec-share"
	case TDKGSend:
		return "dkg-send"
	case TDKGEcho:
		return "dkg-echo"
	case TDKGReady:
		return "dkg-ready"
	case TDKGLeadCh:
		return "dkg-lead-ch"
	case TDKGHelp:
		return "dkg-help"
	case TRBCSend:
		return "rbc-send"
	case TRBCEcho:
		return "rbc-echo"
	case TRBCReady:
		return "rbc-ready"
	case TGroupModProposal:
		return "groupmod-proposal"
	case TClockTick:
		return "clock-tick"
	case TSubshare:
		return "subshare"
	case TVSSFetch:
		return "vss-fetch"
	case TVSSMatrix:
		return "vss-matrix"
	case TDataReq:
		return "data-req"
	case TDataResp:
		return "data-resp"
	case TVSSCertSign:
		return "vss-cert-sign"
	case TVSSCert:
		return "vss-cert"
	case TDKGCertSign:
		return "dkg-cert-sign"
	case TDKGCert:
		return "dkg-cert"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Body is a protocol message. Implementations must be immutable after
// construction (they are shared across simulated nodes without
// copying) and must produce a canonical binary encoding.
type Body interface {
	// MsgType returns the wire tag.
	MsgType() Type
	// MarshalBinary encodes the message payload (excluding the tag).
	MarshalBinary() ([]byte, error)
}

// Errors returned by the codec.
var (
	ErrUnknownType   = errors.New("msg: unknown message type")
	ErrDuplicateType = errors.New("msg: decoder already registered")
	ErrBadEnvelope   = errors.New("msg: malformed envelope")
)

// Decoder turns a payload back into a Body. Decoders typically close
// over group parameters and signature schemes.
type Decoder func(data []byte) (Body, error)

// Codec is a registry of per-type decoders. It is how the transport
// layer reconstructs typed messages; the simulator passes Body values
// directly and uses the codec only for byte accounting.
type Codec struct {
	decoders map[Type]Decoder
}

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	return &Codec{decoders: make(map[Type]Decoder)}
}

// Register installs a decoder for t.
func (c *Codec) Register(t Type, d Decoder) error {
	if _, dup := c.decoders[t]; dup {
		return fmt.Errorf("%w: %v", ErrDuplicateType, t)
	}
	c.decoders[t] = d
	return nil
}

// Decode reconstructs a Body from its tag and payload.
func (c *Codec) Decode(t Type, payload []byte) (Body, error) {
	d, ok := c.decoders[t]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownType, t)
	}
	return d(payload)
}

// Envelope is the unit carried by the transport: a routed, typed,
// encoded message tagged with the protocol instance it belongs to.
type Envelope struct {
	From, To NodeID
	Session  SessionID
	Type     Type
	Payload  []byte
}

// Seal encodes a Body into an Envelope for the legacy session 0.
func Seal(from, to NodeID, body Body) (Envelope, error) {
	return SealSession(from, to, 0, body)
}

// SealSession encodes a Body into an Envelope routed to one session.
func SealSession(from, to NodeID, session SessionID, body Body) (Envelope, error) {
	payload, err := body.MarshalBinary()
	if err != nil {
		return Envelope{}, fmt.Errorf("msg: seal %v: %w", body.MsgType(), err)
	}
	return Envelope{From: from, To: to, Session: session, Type: body.MsgType(), Payload: payload}, nil
}

// Open decodes an Envelope back into a Body using the codec.
func (c *Codec) Open(env Envelope) (Body, error) {
	return c.Decode(env.Type, env.Payload)
}

// WireSize returns the encoded size of a body in bytes including its
// one-byte tag, as counted by the communication-complexity benches.
func WireSize(body Body) int {
	payload, err := body.MarshalBinary()
	if err != nil {
		return 1
	}
	return 1 + len(payload)
}
