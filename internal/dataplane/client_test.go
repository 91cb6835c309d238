package dataplane

import (
	"bufio"
	"context"
	"errors"
	"math/big"
	"net"
	"testing"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
)

// soloRig is a one-node cluster (n=1, t=0) behind a real TCP client
// server: every request completes synchronously from the node's own
// share, so the protocol paths can be tested without a simulator pump.
type soloRig struct {
	svc  *Service
	srv  *Server
	keyP *poly.Poly
	keyV *commit.Vector
	gr   *group.Group
}

func newSoloRig(t *testing.T, tweak func(*Config)) *soloRig {
	t.Helper()
	gr := group.P256()
	rng := randutil.NewReader(0x50F0)
	rig := &soloRig{gr: gr}
	cfg := Config{
		Group: gr,
		Self:  1,
		N:     1,
		T:     0,
		Peers: []msg.NodeID{1},
		Send:  func(msg.NodeID, msg.Body) {},
		Rand:  rng,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rig.svc = NewService(cfg)
	keyP, err := poly.NewRandom(gr.Q(), 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	rig.keyP, rig.keyV = keyP, commit.NewVector(gr, keyP)
	if _, err := rig.svc.InstallKey(1, keyP.EvalInt(1), rig.keyV); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rig.srv = NewServer(ln, rig.svc)
	t.Cleanup(rig.srv.Close)
	return rig
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestClientEndToEnd(t *testing.T) {
	rig := newSoloRig(t, nil)
	cli, err := Dial(rig.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := testCtx(t)

	if cli.GroupName() != "p256" {
		t.Fatalf("group name %q", cli.GroupName())
	}
	if n, th := cli.Roster(); n != 1 || th != 0 {
		t.Fatalf("roster (%d, %d)", n, th)
	}

	info, err := cli.KeyInfo(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.PublicKey.Equal(rig.keyV.PublicKey()) {
		t.Fatal("key info public key mismatch")
	}

	message := []byte("over the wire")
	sig, err := cli.Sign(ctx, 1, message)
	if err != nil {
		t.Fatal(err)
	}
	if !thresh.Verify(rig.gr, rig.keyV.PublicKey(), message, sig) {
		t.Fatal("signature from client does not verify")
	}

	plainIn := rig.gr.GExp(big.NewInt(424242))
	ct, err := thresh.Encrypt(rig.gr, rig.keyV.PublicKey(), plainIn, randutil.NewReader(5))
	if err != nil {
		t.Fatal(err)
	}
	plainOut, err := cli.Decrypt(ctx, 1, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !plainOut.Equal(plainIn) {
		t.Fatal("decryption mismatch")
	}

	bout, err := cli.Beacon(ctx, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bout.Output != thresh.BeaconOutput(rig.gr, 1, bout.Value) {
		t.Fatal("beacon output does not match its value")
	}
	if !rig.gr.Exp(thresh.BeaconBase(rig.gr, rig.keyV.PublicKey(), 1), rig.keyP.Secret()).Equal(bout.Value) {
		t.Fatal("beacon value is not H_1^s")
	}
}

// TestClientDuplicateDigestHitsCache: re-submitting the same operation
// returns the cached result without a second partial round.
func TestClientDuplicateDigestHitsCache(t *testing.T) {
	rig := newSoloRig(t, nil)
	cli, err := Dial(rig.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := testCtx(t)

	message := []byte("same thing twice")
	sig1, err := cli.Sign(ctx, 1, message)
	if err != nil {
		t.Fatal(err)
	}
	before := rig.svc.Stats()
	sig2, err := cli.Sign(ctx, 1, message)
	if err != nil {
		t.Fatal(err)
	}
	after := rig.svc.Stats()
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("second identical request missed the cache: %+v -> %+v", before, after)
	}
	if !sig1.R.Equal(sig2.R) || sig1.Sigma.Cmp(sig2.Sigma) != 0 {
		t.Fatal("cached signature differs")
	}
	// Beacon rounds are idempotent the same way.
	b1, err := cli.Beacon(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := cli.Beacon(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Output != b2.Output {
		t.Fatal("beacon round not idempotent")
	}
}

func TestClientUnknownKey(t *testing.T) {
	rig := newSoloRig(t, nil)
	cli, err := Dial(rig.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := testCtx(t)

	_, err = cli.Sign(ctx, 12345, []byte("m"))
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Code != CodeUnknownKey {
		t.Fatalf("unknown key error: %v", err)
	}
	_, err = cli.KeyInfo(ctx, 12345)
	if !errors.As(err, &ce) || ce.Code != CodeUnknownKey {
		t.Fatalf("unknown key info error: %v", err)
	}
}

func TestClientOverloadShed(t *testing.T) {
	rig := newSoloRig(t, func(cfg *Config) {
		cfg.Rate = 0.001 // one token, essentially never refilled
		cfg.Burst = 1
	})
	cli, err := Dial(rig.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := testCtx(t)

	if _, err := cli.Sign(ctx, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	_, err = cli.Sign(ctx, 1, []byte("second"))
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Code != CodeOverloaded {
		t.Fatalf("shed request error: %v", err)
	}
	// The connection survives a shed; a duplicate of the first request
	// still answers from the cache.
	if _, err := cli.Sign(ctx, 1, []byte("first")); err != nil {
		t.Fatalf("connection unusable after shed: %v", err)
	}
}

func TestClientRetiringKey(t *testing.T) {
	rig := newSoloRig(t, nil)
	rig.svc.Retire(1)
	cli, err := Dial(rig.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Sign(testCtx(t), 1, []byte("m"))
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Code != CodeRetiring {
		t.Fatalf("retiring key error: %v", err)
	}
}

// rawConn dials without the Client wrapper so tests can send
// hand-crafted (and deliberately broken) frames.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

func expectError(t *testing.T, br *bufio.Reader, code uint8) *ClientError {
	t.Helper()
	ftype, payload, err := readFrame(br)
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if ftype != FError {
		t.Fatalf("frame type 0x%02x, want FError", ftype)
	}
	var ce *ClientError
	if err := decodeError(payload); !errors.As(err, &ce) || ce.Code != code {
		t.Fatalf("error %v, want code %d", err, code)
	}
	return ce
}

func expectClosed(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if _, _, err := readFrame(br); err == nil {
		t.Fatal("connection still open, want close")
	}
}

func TestClientHelloVersionMismatch(t *testing.T) {
	rig := newSoloRig(t, nil)
	conn, br := rawConn(t, rig.srv.Addr())
	hello := append([]byte(ClientMagic), 0, 99) // version 99
	if err := writeFrame(conn, FClientHello, hello); err != nil {
		t.Fatal(err)
	}
	expectError(t, br, CodeBadVersion)
	expectClosed(t, br)
}

func TestClientHelloBadMagic(t *testing.T) {
	rig := newSoloRig(t, nil)
	conn, br := rawConn(t, rig.srv.Addr())
	hello := append([]byte("NOPE"), byte(ClientVersion>>8), byte(ClientVersion))
	if err := writeFrame(conn, FClientHello, hello); err != nil {
		t.Fatal(err)
	}
	expectError(t, br, CodeMalformed)
	expectClosed(t, br)
}

func TestClientHelloWrongFirstFrame(t *testing.T) {
	rig := newSoloRig(t, nil)
	conn, br := rawConn(t, rig.srv.Addr())
	// A request before the hello is a protocol violation.
	if err := writeFrame(conn, FSignReq, []byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	expectError(t, br, CodeMalformed)
	expectClosed(t, br)
}

// doHello performs a valid handshake on a raw connection.
func doHello(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	hello := append([]byte(ClientMagic), byte(ClientVersion>>8), byte(ClientVersion))
	if err := writeFrame(conn, FClientHello, hello); err != nil {
		t.Fatal(err)
	}
	ftype, _, err := readFrame(br)
	if err != nil || ftype != FServerHello {
		t.Fatalf("handshake: type=0x%02x err=%v", ftype, err)
	}
}

func TestClientMalformedRequestPayload(t *testing.T) {
	rig := newSoloRig(t, nil)
	conn, br := rawConn(t, rig.srv.Addr())
	doHello(t, conn, br)
	// A truncated sign request (reqID only, no key or message).
	if err := writeFrame(conn, FSignReq, []byte{0, 0, 0, 0, 0, 0, 0, 7}); err != nil {
		t.Fatal(err)
	}
	expectError(t, br, CodeMalformed)
	expectClosed(t, br)
}

func TestClientUnknownFrameType(t *testing.T) {
	rig := newSoloRig(t, nil)
	conn, br := rawConn(t, rig.srv.Addr())
	doHello(t, conn, br)
	if err := writeFrame(conn, 0x6E, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	expectError(t, br, CodeMalformed)
	expectClosed(t, br)
}

func TestClientBadCiphertext(t *testing.T) {
	rig := newSoloRig(t, nil)
	conn, br := rawConn(t, rig.srv.Addr())
	doHello(t, conn, br)
	// Well-formed frame whose ciphertext bytes are not group elements:
	// the server reports bad-request but keeps the connection open.
	w := msg.NewWriter(64)
	w.U64(1)
	w.U64(1)
	w.Blob([]byte{1, 2, 3})
	w.Blob([]byte{4, 5, 6})
	if err := writeFrame(conn, FDecryptReq, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectError(t, br, CodeBadRequest)
	// Still serviceable.
	w = msg.NewWriter(16)
	w.U64(2)
	w.U64(1)
	if err := writeFrame(conn, FKeyInfoReq, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	ftype, _, err := readFrame(br)
	if err != nil || ftype != FKeyInfoResp {
		t.Fatalf("connection dead after bad request: type=0x%02x err=%v", ftype, err)
	}
}

func TestClientOversizedFrameRejected(t *testing.T) {
	rig := newSoloRig(t, nil)
	conn, br := rawConn(t, rig.srv.Addr())
	// A frame header claiming 2 MB closes the connection outright.
	var hdr [4]byte
	hdr[0] = 0x00
	hdr[1] = 0x20 // 0x00200000 = 2 MiB
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, br)
}

// TestDialRefusesOtherGroups: a client never adopts the group a server
// hello names. A server announcing a Z_p* parameter set — toy64 would
// let it pass off 64-bit signatures and plaintexts as verified — is
// refused with ErrUnsupportedGroup; one announcing p256 is accepted.
func TestDialRefusesOtherGroups(t *testing.T) {
	for _, name := range []string{"test256", "toy64", "p256"} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, _, err := readFrame(bufio.NewReader(conn)); err != nil {
					return
				}
				w := msg.NewWriter(32)
				w.U8(0)
				w.Blob([]byte(name))
				w.U32(4)
				w.U32(1)
				hello := append([]byte{byte(ClientVersion >> 8), byte(ClientVersion)}, w.Bytes()...)
				_ = writeFrame(conn, FServerHello, hello)
				_, _ = conn.Read(make([]byte, 1)) // hold the connection until the client is done
			}()
			cli, err := Dial(ln.Addr().String())
			if name == ServedGroup {
				if err != nil {
					t.Fatalf("p256 hello refused: %v", err)
				}
				defer cli.Close()
				if cli.GroupName() != ServedGroup {
					t.Fatalf("group %q", cli.GroupName())
				}
				return
			}
			if !errors.Is(err, ErrUnsupportedGroup) {
				t.Fatalf("hello naming %q: err = %v, want ErrUnsupportedGroup", name, err)
			}
		})
	}
}
