package sig

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hybriddkg/internal/group"
	"hybriddkg/internal/randutil"
)

func schemes() []Scheme {
	return []Scheme{
		NewSchnorr(group.Test256()),
		Ed25519{},
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			r := randutil.NewReader(1)
			priv, pub, err := s.GenerateKey(r)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("ready message for session (P_d, tau)")
			sg, err := s.Sign(priv, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Verify(pub, msg, sg) {
				t.Fatal("valid signature rejected")
			}
		})
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			r := randutil.NewReader(2)
			priv, pub, err := s.GenerateKey(r)
			if err != nil {
				t.Fatal(err)
			}
			priv2, pub2, err := s.GenerateKey(r)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("original")
			sg, err := s.Sign(priv, msg)
			if err != nil {
				t.Fatal(err)
			}
			if s.Verify(pub, []byte("different"), sg) {
				t.Error("signature verified for different message")
			}
			if s.Verify(pub2, msg, sg) {
				t.Error("signature verified under wrong key")
			}
			bad := append([]byte{}, sg...)
			bad[len(bad)-1] ^= 0x01
			if s.Verify(pub, msg, bad) {
				t.Error("tampered signature verified")
			}
			if s.Verify(pub, msg, nil) {
				t.Error("nil signature verified")
			}
			sg2, err := s.Sign(priv2, msg)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(sg, sg2) {
				t.Error("different keys produced identical signatures")
			}
		})
	}
}

func TestSchnorrDeterministic(t *testing.T) {
	s := NewSchnorr(group.Test256())
	r := randutil.NewReader(3)
	priv, _, err := s.GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("msg")
	a, _ := s.Sign(priv, msg)
	b, _ := s.Sign(priv, msg)
	if !bytes.Equal(a, b) {
		t.Error("Schnorr signing is not deterministic")
	}
}

func TestSchnorrRejectsBadPrivateKey(t *testing.T) {
	s := NewSchnorr(group.Test256())
	if _, err := s.Sign(group.Test256().Q().Bytes(), []byte("m")); err == nil {
		t.Error("Sign accepted out-of-range private scalar")
	}
	if _, err := s.Sign(nil, []byte("m")); err == nil {
		t.Error("Sign accepted empty private key")
	}
}

func TestSchnorrVerifyRejectsBadPub(t *testing.T) {
	s := NewSchnorr(group.Test256())
	if s.Verify([]byte{0x02}, []byte("m"), []byte{0, 1, 5, 0, 1, 7}) {
		t.Error("Verify accepted non-element public key")
	}
}

func TestEd25519RejectsBadSizes(t *testing.T) {
	var e Ed25519
	if _, err := e.Sign([]byte("short"), []byte("m")); err == nil {
		t.Error("Sign accepted short key")
	}
	if e.Verify([]byte("short"), []byte("m"), []byte("sig")) {
		t.Error("Verify accepted short public key")
	}
}

func TestNullScheme(t *testing.T) {
	var n Null
	priv, pub, err := n.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := n.Sign(priv, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if !n.Verify(pub, []byte("anything"), sg) {
		t.Error("null scheme rejected")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ed25519", "null", "schnorr-test256", "schnorr-prod2048"} {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("scheme %q has empty name", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) succeeded")
	}
}

func TestDirectory(t *testing.T) {
	s := Ed25519{}
	d := NewDirectory(s)
	r := randutil.NewReader(4)
	priv1, pub1, _ := s.GenerateKey(r)
	_, pub2, _ := s.GenerateKey(r)
	if err := d.Add(1, pub1); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(2, pub2); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(1, pub2); err == nil {
		t.Error("duplicate Add succeeded")
	}
	msg := []byte("hello")
	sg, _ := s.Sign(priv1, msg)
	if !d.Verify(1, msg, sg) {
		t.Error("directory rejected valid signature")
	}
	if d.Verify(2, msg, sg) {
		t.Error("directory verified signature under wrong node")
	}
	if d.Verify(9, msg, sg) {
		t.Error("directory verified signature for unknown node")
	}
	if _, err := d.PublicKey(9); err == nil {
		t.Error("PublicKey(9) succeeded")
	}
	got, err := d.PublicKey(1)
	if err != nil || !bytes.Equal(got, pub1) {
		t.Error("PublicKey(1) mismatch")
	}
	if len(d.Nodes()) != 2 {
		t.Errorf("Nodes() = %v", d.Nodes())
	}
	// Key rotation after reboot (§5.1).
	privNew, pubNew, _ := s.GenerateKey(r)
	d.Replace(1, pubNew)
	if d.Verify(1, msg, sg) {
		t.Error("old signature verified after rotation")
	}
	sgNew, _ := s.Sign(privNew, msg)
	if !d.Verify(1, msg, sgNew) {
		t.Error("new signature rejected after rotation")
	}
	d.Remove(2)
	if d.Verify(2, msg, sg) {
		t.Error("removed node still verifies")
	}
	if d.Scheme().Name() != "ed25519" {
		t.Error("Scheme() mismatch")
	}
}

// TestQuickSchnorrNonMalleable: random tamper positions never verify.
func TestQuickSchnorrNonMalleable(t *testing.T) {
	s := NewSchnorr(group.Test256())
	r := randutil.NewReader(5)
	priv, pub, err := s.GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the quick brown fox")
	sg, err := s.Sign(priv, msg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, xor uint8) bool {
		if xor == 0 {
			return true
		}
		bad := append([]byte{}, sg...)
		bad[int(pos)%len(bad)] ^= xor
		return !s.Verify(pub, msg, bad)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestVerifyCache: memoized verdicts match the uncached ones, repeat
// verifications hit the cache, and key rotation invalidates it.
func TestVerifyCache(t *testing.T) {
	s := Ed25519{}
	r := randutil.NewReader(9)
	d := NewDirectory(s)
	priv, pub, err := s.GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(1, pub); err != nil {
		t.Fatal(err)
	}
	d.EnableVerifyCache(8)
	msg := []byte("cached message")
	sg, err := s.Sign(priv, msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !d.Verify(1, msg, sg) {
			t.Fatal("valid signature rejected")
		}
	}
	hits, misses := d.VerifyCacheStats()
	if hits != 4 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 4/1", hits, misses)
	}
	// Negative verdicts are memoized too.
	bad := append([]byte{}, sg...)
	bad[0] ^= 1
	for i := 0; i < 3; i++ {
		if d.Verify(1, msg, bad) {
			t.Fatal("tampered signature verified")
		}
	}
	// Unknown nodes bypass the cache entirely.
	if d.Verify(42, msg, sg) {
		t.Fatal("unknown node verified")
	}
	// Rotation must drop memoized verdicts for the old key.
	privNew, pubNew, err := s.GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	d.Replace(1, pubNew)
	if d.Verify(1, msg, sg) {
		t.Fatal("old-key signature verified after rotation")
	}
	sgNew, err := s.Sign(privNew, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Verify(1, msg, sgNew) {
		t.Fatal("new-key signature rejected")
	}
}

// TestVerifyCacheCapacity: the memo never exceeds its capacity; a
// wholesale clear keeps verdicts correct afterwards.
func TestVerifyCacheCapacity(t *testing.T) {
	s := Ed25519{}
	r := randutil.NewReader(10)
	d := NewDirectory(s)
	priv, pub, err := s.GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(1, pub); err != nil {
		t.Fatal(err)
	}
	d.EnableVerifyCache(4)
	for i := 0; i < 20; i++ {
		msg := []byte{byte(i)}
		sg, err := s.Sign(priv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Verify(1, msg, sg) {
			t.Fatalf("message %d rejected", i)
		}
	}
	if !d.Verify(1, []byte{19}, mustSign(t, s, priv, []byte{19})) {
		t.Fatal("verdict wrong after cache clears")
	}
}

func mustSign(t *testing.T, s Scheme, priv, msg []byte) []byte {
	t.Helper()
	sg, err := s.Sign(priv, msg)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// gateScheme is Ed25519 whose Verify announces that it has started and
// then waits for release, so a test can hold a verification in flight.
type gateScheme struct {
	Ed25519
	calls   atomic.Int64
	started chan struct{}
	release chan struct{}
}

func (g *gateScheme) Verify(pub, msg, sigBytes []byte) bool {
	g.calls.Add(1)
	g.started <- struct{}{}
	<-g.release
	return g.Ed25519.Verify(pub, msg, sigBytes)
}

// TestVerifySingleFlight: a second goroutine asking for a key whose
// verification is in flight waits for that verdict instead of running
// the scheme again, and a verdict computed across a key rotation is
// not what the memo answers with afterwards.
func TestVerifySingleFlight(t *testing.T) {
	g := &gateScheme{started: make(chan struct{}, 4), release: make(chan struct{})}
	d := NewDirectory(g)
	r := randutil.NewReader(11)
	priv, pub, err := g.GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(1, pub); err != nil {
		t.Fatal(err)
	}
	d.EnableVerifyCache(0)
	m := []byte("single flight")
	sg := mustSign(t, g, priv, m)

	verdicts := make(chan bool, 2)
	go func() { d.Speculate(1, m, sg); verdicts <- true }()
	<-g.started // the speculative verification is now in flight
	go func() { verdicts <- d.Verify(1, m, sg) }()
	// The inline caller registers its hit before it starts waiting.
	for {
		if hits, _ := d.VerifyCacheStats(); hits == 1 {
			break
		}
		runtime.Gosched()
	}
	close(g.release)
	if !<-verdicts || !<-verdicts {
		t.Fatal("valid signature rejected")
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("scheme ran %d times for one key, want 1", n)
	}
	if stored, used := d.SpeculationStats(); stored != 1 || used != 1 {
		t.Fatalf("stored=%d used=%d, want 1/1", stored, used)
	}

	// Rotation while a verification is in flight: the old-key verdict
	// must not answer for the new key.
	g.release = make(chan struct{})
	m2 := []byte("across a rotation")
	sg2 := mustSign(t, g, priv, m2)
	go func() { verdicts <- d.Verify(1, m2, sg2) }()
	<-g.started
	_, pubNew, err := g.GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	d.Replace(1, pubNew)
	close(g.release)
	<-verdicts // whichever key that call saw; it started before the rotation
	if d.Verify(1, m2, sg2) {
		t.Fatal("old-key signature verified after rotation")
	}
}
