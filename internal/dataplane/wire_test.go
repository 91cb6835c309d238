package dataplane

import (
	"math/big"
	"testing"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
)

func TestSessionIDDerivation(t *testing.T) {
	key := msg.SessionID(0xABCDEF)
	nonce := NonceSID(key, 5, 0x123456)
	if !IsAux(nonce) || IsBeacon(nonce) {
		t.Fatalf("nonce sid %x: IsAux=%v IsBeacon=%v", uint64(nonce), IsAux(nonce), IsBeacon(nonce))
	}
	if AuxKey(nonce) != uint64(key) {
		t.Fatalf("AuxKey = %x, want %x", AuxKey(nonce), uint64(key))
	}
	if NonceOwner(nonce) != 5 {
		t.Fatalf("NonceOwner = %d, want 5", NonceOwner(nonce))
	}

	beacon := BeaconSID(key, 77)
	if !IsAux(beacon) || !IsBeacon(beacon) {
		t.Fatalf("beacon sid %x: IsAux=%v IsBeacon=%v", uint64(beacon), IsAux(beacon), IsBeacon(beacon))
	}
	if AuxKey(beacon) != uint64(key) || BeaconRound(beacon) != 77 {
		t.Fatalf("beacon sid decodes to key %x round %d", AuxKey(beacon), BeaconRound(beacon))
	}

	// Distinct owners/counters/rounds never collide.
	if NonceSID(key, 5, 1) == NonceSID(key, 6, 1) || NonceSID(key, 5, 1) == NonceSID(key, 5, 2) {
		t.Fatal("nonce sid collision")
	}
	if nonce == beacon {
		t.Fatal("nonce/beacon sid collision")
	}
	// Plain key sessions and the peer session are not aux sessions.
	if IsAux(key) || IsAux(PeerSession) {
		t.Fatal("non-aux sid classified as aux")
	}

	// Width is read off the session id: 1 for everything but a nonce
	// session that carries it, whose other fields it leaves alone.
	for _, sid := range []msg.SessionID{key, PeerSession, beacon, nonce} {
		if w := AuxWidth(sid); w != 1 {
			t.Fatalf("AuxWidth(%x) = %d, want 1", uint64(sid), w)
		}
	}
	if NonceSessionSID(key, 5, 0x123456, 1) != nonce {
		t.Fatal("a width-1 nonce session is not named by its nonce's id")
	}
	for _, w := range []int{2, 4, 8, 16} {
		wide := NonceSessionSID(key, 5, 0x123450, w)
		if AuxWidth(wide) != w || !IsAux(wide) || IsBeacon(wide) || AuxKey(wide) != uint64(key) ||
			NonceOwner(wide) != 5 || NonceCounter(wide) != 0x123450 || !validAux(wide, 1) || !validAux(wide, 3) {
			t.Fatalf("width-%d nonce session %x decodes wrongly", w, uint64(wide))
		}
	}
	// Ids no derivation produces are not run: a width on a beacon round,
	// a width above 16, nonces past the counter's end, stray bits.
	for _, sid := range []msg.SessionID{
		beacon | 1<<widthShift,
		nonce | 5<<widthShift,
		NonceSessionSID(key, 5, 1<<24-8, 16),
		nonce | 1<<59,
		key,
	} {
		if validAux(sid, 1) {
			t.Fatalf("sid %x accepted as an auxiliary session", uint64(sid))
		}
	}
	// The counter's end is measured in nonces produced: at three rows a
	// width-16 session needs 48 counters, not 16.
	if sid := NonceSessionSID(key, 5, 1<<24-16, 16); !validAux(sid, 1) || validAux(sid, 3) {
		t.Fatalf("sid %x: the counter bound ignores the session's yield", uint64(sid))
	}
}

func TestPartialReqRoundtrip(t *testing.T) {
	in := &PartialReq{
		Key: 42,
		Items: []ReqItem{
			{Digest: [32]byte{1, 2, 3}, Op: OpSign, Sid: NonceSID(42, 1, 0), Payload: []byte("hello")},
			{Digest: [32]byte{4}, Op: OpDecrypt, Payload: []byte{0, 0, 0, 1, 9}},
			{Digest: [32]byte{5}, Op: OpOpen, Sid: BeaconSID(42, 3)},
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
	if out.Key != in.Key || len(out.Items) != len(in.Items) {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	for i := range in.Items {
		a, b := in.Items[i], out.Items[i]
		if a.Digest != b.Digest || a.Op != b.Op || a.Sid != b.Sid || string(a.Payload) != string(b.Payload) {
			t.Fatalf("item %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestPartialRespRoundtrip(t *testing.T) {
	gr := group.Test256()
	in := &PartialResp{
		Key: 7,
		Items: []RespItem{
			{Digest: [32]byte{1}, Status: StOK, Sigma: big.NewInt(12345)},
			{Digest: [32]byte{2}, Status: StOK, D: gr.GExp(big.NewInt(9)), E: big.NewInt(4), Z: big.NewInt(5)},
			{Digest: [32]byte{3}, Status: StOK, Share: big.NewInt(678)},
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
	if out.Key != in.Key || len(out.Items) != 4 {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	if out.Items[0].Sigma.Cmp(in.Items[0].Sigma) != 0 {
		t.Fatal("sigma mismatch")
	}
	if !out.Items[1].D.Equal(in.Items[1].D) || out.Items[1].E.Cmp(in.Items[1].E) != 0 || out.Items[1].Z.Cmp(in.Items[1].Z) != 0 {
		t.Fatal("decrypt fields mismatch")
	}
	if out.Items[2].Share.Cmp(in.Items[2].Share) != 0 {
		t.Fatal("share mismatch")
	}
	if out.Items[3].Status != StRefused || out.Items[3].Sigma != nil || out.Items[3].D != nil {
		t.Fatalf("status-only item decoded wrong: %+v", out.Items[3])
	}
}

func TestPrepareRoundtrip(t *testing.T) {
	in := &Prepare{Key: 9, Sids: []msg.SessionID{NonceSID(9, 2, 0), BeaconSID(9, 1)}}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body, err := decodePrepare(data)
	if err != nil {
		t.Fatal(err)
	}
	out := body.(*Prepare)
	if out.Key != 9 || len(out.Sids) != 2 || out.Sids[0] != in.Sids[0] || out.Sids[1] != in.Sids[1] {
		t.Fatalf("roundtrip mismatch: %+v", out)
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
	if _, err := decodePrepare([]byte{}); err == nil {
		t.Fatal("empty Prepare accepted")
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
	w.U64(0)
	w.Blob(nil)
	if _, err := decodePartialReq(w.Bytes()); err == nil {
		t.Fatal("31-byte digest accepted")
	}

	// Trailing garbage.
	good := &Prepare{Key: 1, Sids: []msg.SessionID{BeaconSID(1, 1)}}
	data, _ := good.MarshalBinary()
	if _, err := decodePrepare(append(data, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestRegisterCodec(t *testing.T) {
	gr := group.Test256()
	c := msg.NewCodec()
	if err := RegisterCodec(c, gr); err != nil {
		t.Fatal(err)
	}
	in := &PartialReq{Key: 3, Items: []ReqItem{{Digest: [32]byte{8}, Op: OpSign, Sid: NonceSID(3, 1, 0), Payload: []byte("m")}}}
	data, _ := in.MarshalBinary()
	body, err := c.Decode(msg.TDataReq, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := body.(*PartialReq); got.Key != 3 || len(got.Items) != 1 {
		t.Fatalf("codec decode mismatch: %+v", got)
	}
}
