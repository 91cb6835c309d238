package dataplane

import (
	"fmt"
	"math/big"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
)

// ReqItem is one partial-operation request. Digest is the request's
// dedup/cache key (a hash over op, key and operands — never the
// client's request ID, so retransmitted client requests coalesce).
type ReqItem struct {
	Digest  [32]byte
	Op      uint8
	Payload []byte // sign: message; decrypt: blob(C1) ‖ blob(C2), compressed; beacon: round
	B       []byte // sign: the signing set's commitment list (thresh.EncodeCommitments)
}

// PartialReq asks a peer for partial operations against one key. It
// is the coalescing unit: an aggregator batches all same-key requests
// that arrive within a flush window into one PartialReq per peer. Want
// asks for that many fresh signing commitments on top of the one each
// answered sign item brings back (first contact, lost books); it is
// encoded only when non-zero, after the items.
type PartialReq struct {
	Key   msg.SessionID
	Want  uint32
	Items []ReqItem
}

// MsgType implements msg.Body.
func (*PartialReq) MsgType() msg.Type { return msg.TDataReq }

// MarshalBinary implements msg.Body.
func (m *PartialReq) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(16 + len(m.Items)*64)
	w.U64(uint64(m.Key))
	w.U32(uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		w.Blob(it.Digest[:])
		w.U8(it.Op)
		w.Blob(it.Payload)
		if it.Op == OpSign {
			w.Blob(it.B)
		}
	}
	if m.Want > 0 { // optional trailer: decrypt and beacon traffic never carries it
		w.U32(m.Want)
	}
	return w.Bytes(), nil
}

func decodePartialReq(data []byte) (msg.Body, error) {
	r := msg.NewReader(data)
	m := &PartialReq{Key: msg.SessionID(r.U64())}
	n := r.U32()
	if n > maxItemsPerReq {
		return nil, fmt.Errorf("%w: %d items", msg.ErrBadEnvelope, n)
	}
	m.Items = make([]ReqItem, n)
	for i := range m.Items {
		it := &m.Items[i]
		d := r.Blob()
		if len(d) != 32 && r.Err() == nil {
			return nil, fmt.Errorf("%w: digest length %d", msg.ErrBadEnvelope, len(d))
		}
		copy(it.Digest[:], d)
		it.Op = r.U8()
		it.Payload = r.Blob()
		if it.Op == OpSign {
			it.B = r.Blob()
		}
	}
	if r.More() {
		m.Want = r.U32()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// maxItemsPerReq bounds decode-side allocation.
const maxItemsPerReq = 4096

// RespItem is one partial-operation result. Status selects which of
// the optional fields are present.
type RespItem struct {
	Digest [32]byte
	Status uint8
	Sigma  *big.Int      // sign: z_i
	Nonce  uint64        // sign: ID of the nonce pair z_i was made with
	D      group.Element // decrypt: C1^{s_i}; beacon: H_r^{s_i}
	E, Z   *big.Int      // decrypt, beacon: Chaum–Pedersen DLEQ proof
}

// PartialResp carries a peer's answers for one PartialReq, and the
// fresh signing commitments it issues to the asking aggregator (encoded
// only when present, after the items).
type PartialResp struct {
	Key     msg.SessionID
	Commits []byte // thresh.EncodeCommitments, all of the sender's
	Items   []RespItem
}

// MsgType implements msg.Body.
func (*PartialResp) MsgType() msg.Type { return msg.TDataResp }

// Field-presence bits in the RespItem encoding.
const (
	fSigma uint8 = 1 << 0
	fDec   uint8 = 1 << 1
)

// MarshalBinary implements msg.Body.
func (m *PartialResp) MarshalBinary() ([]byte, error) {
	w := msg.NewWriter(16 + len(m.Commits) + len(m.Items)*96)
	w.U64(uint64(m.Key))
	w.U32(uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		w.Blob(it.Digest[:])
		w.U8(it.Status)
		var mask uint8
		if it.Sigma != nil {
			mask |= fSigma
		}
		if it.D != nil {
			mask |= fDec
		}
		w.U8(mask)
		if mask&fSigma != 0 {
			w.Big(it.Sigma)
			w.U64(it.Nonce)
		}
		if mask&fDec != 0 {
			w.Blob(it.D.Bytes())
			w.Big(it.E)
			w.Big(it.Z)
		}
	}
	if len(m.Commits) > 0 { // optional trailer, as PartialReq.Want
		w.Blob(m.Commits)
	}
	return w.Bytes(), nil
}

func decodePartialResp(gr *group.Group, data []byte) (msg.Body, error) {
	r := msg.NewReader(data)
	m := &PartialResp{Key: msg.SessionID(r.U64())}
	n := r.U32()
	if n > maxItemsPerReq {
		return nil, fmt.Errorf("%w: %d items", msg.ErrBadEnvelope, n)
	}
	m.Items = make([]RespItem, n)
	for i := range m.Items {
		it := &m.Items[i]
		d := r.Blob()
		if len(d) != 32 && r.Err() == nil {
			return nil, fmt.Errorf("%w: digest length %d", msg.ErrBadEnvelope, len(d))
		}
		copy(it.Digest[:], d)
		it.Status = r.U8()
		mask := r.U8()
		if mask&fSigma != 0 {
			it.Sigma = r.Big()
			it.Nonce = r.U64()
		}
		if mask&fDec != 0 {
			db := r.Blob()
			if r.Err() == nil {
				el, err := gr.DecodeElement(db)
				if err != nil {
					return nil, err
				}
				it.D = el
			}
			it.E = r.Big()
			it.Z = r.Big()
		}
	}
	if r.More() {
		m.Commits = r.Blob()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// RegisterCodec installs the data-plane decoders into a codec (the
// TCP transport's decode path; the simulator passes bodies directly).
func RegisterCodec(c *msg.Codec, gr *group.Group) error {
	if err := c.Register(msg.TDataReq, decodePartialReq); err != nil {
		return err
	}
	return c.Register(msg.TDataResp, func(data []byte) (msg.Body, error) {
		return decodePartialResp(gr, data)
	})
}
