package vss_test

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"testing"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/vss"
)

// recordedBodies holds, per message type, a valid body and the trailing
// section a sharing of two secrets appended to it, both as the encoder
// of batched dealings wrote them (toy64 group, t = 1, session (P3, 9)).
var recordedBodies = []struct {
	typ        msg.Type
	body, more string
}{
	{msg.TVSSSend,
		"000000000000000300000000000000090000002800000001000000080f13cb58f53badff0000000856da3f549afed7ec000000081cb54f4cdbc4d71b00000000020000000469027ee5000000041dec4f91",
		"01000000280000000100000008485918a08f7cf7d4000000081955a114bedab098000000086bffc525d436fa4200000002000000048b4753a900000004a83dd512"},
	{msg.TVSSEcho,
		"000000000000000300000000000000090000000020adb4cef0f62be3f572db01f5ecca212c621e5d8a0df7af16904aca7890833b6e00000004a4db1e07",
		"0100000004ebfd6f04"},
	{msg.TVSSReady,
		"000000000000000300000000000000090000000020adb4cef0f62be3f572db01f5ecca212c621e5d8a0df7af16904aca7890833b6e00000004a4db1e07000000020102",
		"0100000004ebfd6f04"},
	{msg.TVSSMatrix,
		"000000000000000300000000000000090000002800000001000000080f13cb58f53badff0000000856da3f549afed7ec000000081cb54f4cdbc4d71b",
		"01000000280000000100000008485918a08f7cf7d4000000081955a114bedab098000000086bffc525d436fa42"},
}

func recordedCodec(tb testing.TB) *msg.Codec {
	tb.Helper()
	codec := msg.NewCodec()
	if err := vss.RegisterCodec(codec, group.Toy64()); err != nil {
		tb.Fatal(err)
	}
	return codec
}

func unhex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestWideCodecRoundTrips: a sharing carries one secret, and its
// messages are byte for byte what they were before batched dealings
// existed. A recorded body still decodes and re-encodes to its own
// bytes; the same body with the trailing section that carried a batched
// dealing's further secrets no longer decodes; and an echo's layout,
// written out by hand, is the one it always had.
func TestWideCodecRoundTrips(t *testing.T) {
	codec := recordedCodec(t)
	for _, rec := range recordedBodies {
		body := unhex(t, rec.body)
		m, err := codec.Decode(rec.typ, body)
		if err != nil {
			t.Fatalf("%v: recorded body does not decode: %v", rec.typ, err)
		}
		enc, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: re-marshal: %v", rec.typ, err)
		}
		if !bytes.Equal(enc, body) {
			t.Errorf("%v: encoding moved", rec.typ)
		}
		wide := append(append([]byte(nil), body...), unhex(t, rec.more)...)
		if _, err := codec.Decode(rec.typ, wide); err == nil {
			t.Errorf("%v: body with a trailing section decoded", rec.typ)
		}
	}

	sess := vss.SessionID{Dealer: 3, Tau: 9}
	echo := &vss.EchoMsg{Session: sess, CHash: [32]byte{4, 5, 6}, Alpha: big.NewInt(1234)}
	w := msg.NewWriter(64)
	w.Node(3)
	w.U64(9)
	w.Bool(false)
	w.Blob(echo.CHash[:])
	w.Big(echo.Alpha)
	enc, err := echo.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, w.Bytes()) {
		t.Fatal("echo encoding moved")
	}
}

func fuzzDecoder(f *testing.F, typ msg.Type) {
	codec := recordedCodec(f)
	for _, rec := range recordedBodies {
		if rec.typ != typ {
			continue
		}
		body := unhex(f, rec.body)
		f.Add(body)
		f.Add(unhex(f, rec.body+rec.more))
		// The same message with its matrix in the compressed encoding.
		m, err := codec.Decode(typ, body)
		if err != nil {
			f.Fatal(err)
		}
		switch m := m.(type) {
		case *vss.SendMsg:
			m.Compressed = true
		case *vss.MatrixMsg:
			m.Compressed = true
		default:
			continue
		}
		enc, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := codec.Decode(typ, data)
		if err != nil {
			return
		}
		// What decodes re-encodes, and to something that decodes again.
		enc, err := body.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", typ, err)
		}
		if _, err := codec.Decode(typ, enc); err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", typ, err)
		}
	})
}

func FuzzDecodeSend(f *testing.F)   { fuzzDecoder(f, msg.TVSSSend) }
func FuzzDecodeEcho(f *testing.F)   { fuzzDecoder(f, msg.TVSSEcho) }
func FuzzDecodeReady(f *testing.F)  { fuzzDecoder(f, msg.TVSSReady) }
func FuzzDecodeMatrix(f *testing.F) { fuzzDecoder(f, msg.TVSSMatrix) }
