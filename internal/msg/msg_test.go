package msg

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

// fakeBody is a minimal Body for codec tests.
type fakeBody struct {
	payload []byte
}

func (f fakeBody) MsgType() Type                  { return TVSSSend }
func (f fakeBody) MarshalBinary() ([]byte, error) { return f.payload, nil }

func TestTypeStrings(t *testing.T) {
	seen := make(map[string]Type)
	for tt := TVSSSend; tt <= TVSSMatrix; tt++ {
		s := tt.String()
		if s == "" {
			t.Fatalf("empty String for %d", tt)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("types %d and %d share string %q", prev, tt, s)
		}
		seen[s] = tt
	}
	if Type(200).String() == "" {
		t.Error("unknown type has empty string")
	}
}

// TestTypeCodes pins every message type's wire code. The codes are
// iota-assigned, so removing a slot from the middle of the list would
// silently renumber every type after it, and nodes of two builds would
// misread each other's frames; a retired type keeps its slot, blank.
func TestTypeCodes(t *testing.T) {
	for _, c := range []struct {
		tt   Type
		code uint8
	}{
		{TVSSSend, 1}, {TVSSEcho, 2}, {TVSSReady, 3}, {TVSSHelp, 4}, {TRecShare, 5},
		{TDKGSend, 6}, {TDKGEcho, 7}, {TDKGReady, 8}, {TDKGLeadCh, 9}, {TDKGHelp, 10},
		{TRBCSend, 11}, {TRBCEcho, 12}, {TRBCReady, 13},
		{TGroupModProposal, 14}, {TClockTick, 15}, {TSubshare, 16},
		{TVSSFetch, 17}, {TVSSMatrix, 18},
		{TDataReq, 19}, {TDataResp, 20}, // 21: reserved (beacon-window provisioning)
		{TVSSCertSign, 22}, {TVSSCert, 23}, {TDKGCertSign, 24}, {TDKGCert, 25},
	} {
		if uint8(c.tt) != c.code {
			t.Errorf("%v has code %d, want %d", c.tt, uint8(c.tt), c.code)
		}
	}
}

func TestCodecRegisterDecode(t *testing.T) {
	c := NewCodec()
	if err := c.Register(TVSSSend, func(data []byte) (Body, error) {
		return fakeBody{payload: data}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(TVSSSend, nil); err == nil {
		t.Error("duplicate registration succeeded")
	}
	body, err := c.Decode(TVSSSend, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body.(fakeBody).payload) != "hi" {
		t.Error("payload mismatch")
	}
	if _, err := c.Decode(TVSSEcho, nil); err == nil {
		t.Error("decode of unregistered type succeeded")
	}
}

func TestSealOpen(t *testing.T) {
	c := NewCodec()
	if err := c.Register(TVSSSend, func(data []byte) (Body, error) {
		return fakeBody{payload: data}, nil
	}); err != nil {
		t.Fatal(err)
	}
	env, err := Seal(1, 2, fakeBody{payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if env.From != 1 || env.To != 2 || env.Type != TVSSSend {
		t.Errorf("envelope fields: %+v", env)
	}
	body, err := c.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if string(body.(fakeBody).payload) != "x" {
		t.Error("round-trip mismatch")
	}
}

func TestWireSize(t *testing.T) {
	if got := WireSize(fakeBody{payload: []byte("abcd")}); got != 5 {
		t.Errorf("WireSize = %d, want 5", got)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.U32(1 << 20)
	w.U64(1 << 40)
	w.Node(33)
	w.Nodes([]NodeID{1, 2, 3})
	w.Big(big.NewInt(123456789))
	w.Big(nil)
	w.Blob([]byte("blob"))
	w.Bool(true)
	w.Bool(false)

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 1<<20 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Node(); got != 33 {
		t.Errorf("Node = %d", got)
	}
	nodes := r.Nodes()
	if len(nodes) != 3 || nodes[0] != 1 || nodes[2] != 3 {
		t.Errorf("Nodes = %v", nodes)
	}
	if got := r.Big(); got.Int64() != 123456789 {
		t.Errorf("Big = %v", got)
	}
	if got := r.Big(); got.Sign() != 0 {
		t.Errorf("nil Big decoded to %v", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte("blob")) {
		t.Errorf("Blob = %q", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter(16)
	w.U64(42)
	data := w.Bytes()
	r := NewReader(data[:4])
	_ = r.U64()
	if r.Err() == nil {
		t.Error("truncated U64 not detected")
	}
	// Error sticks.
	_ = r.U8()
	if r.Err() == nil {
		t.Error("sticky error cleared")
	}
}

func TestReaderTrailing(t *testing.T) {
	w := NewWriter(8)
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	_ = r.U8()
	if err := r.Done(); err == nil {
		t.Error("trailing byte not detected")
	}
}

func TestReaderHostileLengths(t *testing.T) {
	// A node list claiming 2^31 entries must not allocate.
	w := NewWriter(8)
	w.U32(1 << 31)
	r := NewReader(w.Bytes())
	if nodes := r.Nodes(); nodes != nil || r.Err() == nil {
		t.Error("hostile node list length accepted")
	}
	// A blob claiming more bytes than remain must fail cleanly.
	w2 := NewWriter(8)
	w2.U32(1000)
	r2 := NewReader(w2.Bytes())
	if b := r2.Blob(); b != nil || r2.Err() == nil {
		t.Error("hostile blob length accepted")
	}
}

// TestReaderBigMinimality: only the minimal byte form of an integer
// decodes; a leading zero byte (same value, longer encoding) is a
// malformed envelope.
func TestReaderBigMinimality(t *testing.T) {
	w := NewWriter(16)
	w.Big(big.NewInt(0x1234))
	r := NewReader(w.Bytes())
	if got := r.Big(); got == nil || got.Int64() != 0x1234 {
		t.Fatalf("minimal encoding rejected: %v (err %v)", got, r.Err())
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	// Same value, padded with one leading zero byte.
	padded := NewWriter(16)
	padded.U32(3)
	padded.buf = append(padded.buf, 0x00, 0x12, 0x34)
	r2 := NewReader(padded.Bytes())
	if got := r2.Big(); got != nil || r2.Err() == nil {
		t.Fatalf("non-minimal encoding accepted: %v", got)
	}
	// The error sticks.
	_ = r2.U8()
	if r2.Err() == nil {
		t.Error("sticky error cleared after bad Big")
	}

	// A bare zero-length encoding is the canonical zero and stays valid.
	zero := NewWriter(8)
	zero.Big(big.NewInt(0))
	r3 := NewReader(zero.Bytes())
	if got := r3.Big(); got == nil || got.Sign() != 0 || r3.Err() != nil {
		t.Fatalf("canonical zero rejected: %v (err %v)", got, r3.Err())
	}

	// But an explicit single zero byte is the padded form of zero.
	zeroByte := NewWriter(8)
	zeroByte.U32(1)
	zeroByte.buf = append(zeroByte.buf, 0x00)
	r4 := NewReader(zeroByte.Bytes())
	if got := r4.Big(); got != nil || r4.Err() == nil {
		t.Fatalf("padded zero accepted: %v", got)
	}
}

// TestQuickWireRoundTrip fuzzes the primitive round trip.
func TestQuickWireRoundTrip(t *testing.T) {
	f := func(a uint8, b uint32, c uint64, blob []byte, flag bool) bool {
		w := NewWriter(32)
		w.U8(a)
		w.U32(b)
		w.U64(c)
		w.Blob(blob)
		w.Bool(flag)
		r := NewReader(w.Bytes())
		okA := r.U8() == a
		okB := r.U32() == b
		okC := r.U64() == c
		okBlob := bytes.Equal(r.Blob(), blob)
		okFlag := r.Bool() == flag
		return okA && okB && okC && okBlob && okFlag && r.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSealSession: envelopes carry their session identifier; Seal is
// the legacy session-0 form.
func TestSealSession(t *testing.T) {
	body := fakeBody{payload: []byte{1, 2, 3}}
	env, err := SealSession(1, 2, 7, body)
	if err != nil {
		t.Fatal(err)
	}
	if env.Session != 7 || env.From != 1 || env.To != 2 {
		t.Fatalf("bad envelope: %+v", env)
	}
	legacy, err := Seal(1, 2, body)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Session != 0 {
		t.Fatalf("Seal produced session %v", legacy.Session)
	}
	if got := SessionID(7).String(); got != "session(7)" {
		t.Fatalf("String() = %q", got)
	}
}
