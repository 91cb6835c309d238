package dataplane

import (
	"math/big"
	"testing"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
)

func TestPartialReqRoundtrip(t *testing.T) {
	in := &PartialReq{
		Key:  42,
		Want: 16,
		Items: []ReqItem{
			{Digest: [32]byte{1, 2, 3}, Op: OpSign, Payload: []byte("hello"), B: []byte{0, 0, 0, 0}},
			{Digest: [32]byte{4}, Op: OpDecrypt, Payload: []byte{0, 0, 0, 1, 9}},
			{Digest: [32]byte{5}, Op: OpBeacon, Payload: []byte{0, 0, 1, 0, 0, 0, 0, 3}},
		},
	}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body, err := decodePartialReq(data)
	if err != nil {
		t.Fatal(err)
	}
	out := body.(*PartialReq)
	if out.Key != in.Key || out.Want != in.Want || len(out.Items) != len(in.Items) {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	for i := range in.Items {
		a, b := in.Items[i], out.Items[i]
		if a.Digest != b.Digest || a.Op != b.Op || string(a.Payload) != string(b.Payload) || string(a.B) != string(b.B) {
			t.Fatalf("item %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestPartialRespRoundtrip(t *testing.T) {
	gr := group.Test256()
	in := &PartialResp{
		Key:     7,
		Commits: []byte("commitments"),
		Items: []RespItem{
			{Digest: [32]byte{1}, Status: StOK, Sigma: big.NewInt(12345), Nonce: 1<<32 | 9},
			{Digest: [32]byte{2}, Status: StOK, D: gr.GExp(big.NewInt(9)), E: big.NewInt(4), Z: big.NewInt(5)},
			{Digest: [32]byte{4}, Status: StRefused},
		},
	}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body, err := decodePartialResp(gr, data)
	if err != nil {
		t.Fatal(err)
	}
	out := body.(*PartialResp)
	if out.Key != in.Key || string(out.Commits) != string(in.Commits) || len(out.Items) != 3 {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	if out.Items[0].Sigma.Cmp(in.Items[0].Sigma) != 0 || out.Items[0].Nonce != in.Items[0].Nonce {
		t.Fatal("sign fields mismatch")
	}
	if !out.Items[1].D.Equal(in.Items[1].D) || out.Items[1].E.Cmp(in.Items[1].E) != 0 || out.Items[1].Z.Cmp(in.Items[1].Z) != 0 {
		t.Fatal("decrypt fields mismatch")
	}
	if out.Items[2].Status != StRefused || out.Items[2].Sigma != nil || out.Items[2].D != nil {
		t.Fatalf("status-only item decoded wrong: %+v", out.Items[2])
	}
}

func TestWireDecodeRejectsMalformed(t *testing.T) {
	gr := group.Test256()

	// Truncated buffers.
	if _, err := decodePartialReq([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated PartialReq accepted")
	}
	if _, err := decodePartialResp(gr, []byte{1}); err == nil {
		t.Fatal("truncated PartialResp accepted")
	}

	// Oversized item counts are rejected before allocation.
	w := msg.NewWriter(16)
	w.U64(1)
	w.U32(maxItemsPerReq + 1)
	if _, err := decodePartialReq(w.Bytes()); err == nil {
		t.Fatal("oversized item count accepted")
	}

	// Wrong digest length.
	w = msg.NewWriter(64)
	w.U64(1)
	w.U32(1)
	w.Blob(make([]byte, 31))
	w.U8(OpSign)
	w.Blob(nil)
	if _, err := decodePartialReq(w.Bytes()); err == nil {
		t.Fatal("31-byte digest accepted")
	}

	// Trailing garbage.
	good := &PartialReq{Key: 1, Want: 1}
	data, _ := good.MarshalBinary()
	if _, err := decodePartialReq(append(data, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestRegisterCodec(t *testing.T) {
	gr := group.Test256()
	c := msg.NewCodec()
	if err := RegisterCodec(c, gr); err != nil {
		t.Fatal(err)
	}
	in := &PartialReq{Key: 3, Items: []ReqItem{{Digest: [32]byte{8}, Op: OpSign, Payload: []byte("m")}}}
	data, _ := in.MarshalBinary()
	body, err := c.Decode(msg.TDataReq, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := body.(*PartialReq); got.Key != 3 || len(got.Items) != 1 {
		t.Fatalf("codec decode mismatch: %+v", got)
	}
}
