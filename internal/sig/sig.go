// Package sig provides the digital-signature layer of the paper's
// system model (§2.3): each node holds a long-term signing key whose
// public key is known to all nodes (the PKI substitute), and protocol
// messages that feed agreement decisions (ready, echo, lead-ch) are
// signed so that sets of them act as transferable validity proofs
// (the R/M sets of Figures 2–3).
//
// Three schemes are provided:
//
//   - Schnorr signatures over the library's own discrete-log group
//     (self-contained, no curve dependencies),
//   - Ed25519 (crypto/ed25519, fast), and
//   - a Null scheme that signs nothing and verifies everything, for
//     benchmarks that isolate protocol cost from signature cost.
//
// Keys and signatures are opaque byte strings so they move through the
// wire codec unchanged.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"hybriddkg/internal/group"
)

// Errors returned by signature operations.
var (
	ErrBadKey       = errors.New("sig: malformed key")
	ErrUnknownNode  = errors.New("sig: unknown node index")
	ErrUnknownName  = errors.New("sig: unknown scheme name")
	ErrSignFailed   = errors.New("sig: signing failed")
	ErrDuplicateKey = errors.New("sig: duplicate node index")
)

// Scheme is a digital-signature scheme secure against adaptive
// chosen-message attack (the paper's requirement in §2.3).
type Scheme interface {
	// Name identifies the scheme on the wire and in configs.
	Name() string
	// GenerateKey creates a key pair using randomness from r.
	GenerateKey(r io.Reader) (priv, pub []byte, err error)
	// Sign signs msg with priv.
	Sign(priv, msg []byte) ([]byte, error)
	// Verify reports whether sigBytes is a valid signature on msg
	// under pub.
	Verify(pub, msg, sigBytes []byte) bool
}

// ByName returns the scheme registered under name ("schnorr-test256",
// "schnorr-prod2048", "ed25519", "null").
func ByName(name string) (Scheme, error) {
	switch name {
	case "ed25519":
		return Ed25519{}, nil
	case "null":
		return Null{}, nil
	case "schnorr-test256":
		return NewSchnorr(group.Test256()), nil
	case "schnorr-prod2048":
		return NewSchnorr(group.Prod2048()), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
}

// Schnorr implements Schnorr signatures over a discrete-log group.
// Nonces are derived deterministically from the key and message
// (hash-based, RFC 6979 style) so signing needs no randomness source.
type Schnorr struct {
	gr *group.Group
}

var _ Scheme = Schnorr{}

// NewSchnorr returns a Schnorr scheme over gr.
func NewSchnorr(gr *group.Group) Schnorr { return Schnorr{gr: gr} }

// Name implements Scheme.
func (s Schnorr) Name() string { return fmt.Sprintf("schnorr-%s", s.gr.Name()) }

// GenerateKey implements Scheme. The private key encodes the scalar x;
// the public key encodes the element y = g^x.
func (s Schnorr) GenerateKey(r io.Reader) ([]byte, []byte, error) {
	x, err := s.gr.RandNonZeroScalar(r)
	if err != nil {
		return nil, nil, err
	}
	y := s.gr.GExp(x)
	return x.Bytes(), s.gr.EncodeElement(y), nil
}

// Sign implements Scheme. The signature is (c, z) with
// c = H(R ‖ pub ‖ msg), z = k − c·x, R = g^k.
func (s Schnorr) Sign(priv, msg []byte) ([]byte, error) {
	x := new(big.Int).SetBytes(priv)
	if err := s.gr.CheckScalar(x); err != nil || x.Sign() == 0 {
		return nil, fmt.Errorf("%w: private scalar out of range", ErrBadKey)
	}
	y := s.gr.GExp(x)
	// Deterministic nonce: k = H(x ‖ y ‖ msg) reduced mod q.
	k := s.gr.HashToScalar("hybriddkg/schnorr-nonce/v1", priv, y.Bytes(), msg)
	if k.Sign() == 0 {
		k = big.NewInt(1)
	}
	bigR := s.gr.GExp(k)
	c := s.gr.HashToScalar("hybriddkg/schnorr-chal/v1", bigR.Bytes(), y.Bytes(), msg)
	z := s.gr.SubQ(k, s.gr.MulQ(c, x))
	return encodePair(c, z), nil
}

// Verify implements Scheme: recompute R' = g^z · y^c as one two-term
// multi-exponentiation (all operands are public, so the variable-time
// path applies) and check the challenge.
func (s Schnorr) Verify(pub, msg, sigBytes []byte) bool {
	y, err := s.gr.DecodeElement(pub)
	if err != nil {
		return false
	}
	c, z, ok := decodePair(sigBytes)
	if !ok || !s.gr.IsScalar(c) || !s.gr.IsScalar(z) {
		return false
	}
	rPrime := s.gr.VarTimeMultiExp([]group.Element{s.gr.Generator(), y}, []*big.Int{z, c})
	cPrime := s.gr.HashToScalar("hybriddkg/schnorr-chal/v1", rPrime.Bytes(), y.Bytes(), msg)
	return c.Cmp(cPrime) == 0
}

// Ed25519 wraps crypto/ed25519 as a Scheme.
type Ed25519 struct{}

var _ Scheme = Ed25519{}

// Name implements Scheme.
func (Ed25519) Name() string { return "ed25519" }

// GenerateKey implements Scheme.
func (Ed25519) GenerateKey(r io.Reader) ([]byte, []byte, error) {
	pub, priv, err := ed25519.GenerateKey(r)
	if err != nil {
		return nil, nil, err
	}
	return priv, pub, nil
}

// Sign implements Scheme.
func (Ed25519) Sign(priv, msg []byte) ([]byte, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("%w: ed25519 private key size %d", ErrBadKey, len(priv))
	}
	return ed25519.Sign(ed25519.PrivateKey(priv), msg), nil
}

// Verify implements Scheme.
func (Ed25519) Verify(pub, msg, sigBytes []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sigBytes)
}

// Null is an insecure no-op scheme: it exists so benchmarks can
// subtract signature cost from protocol cost. Never use outside
// benchmarks — Verify accepts everything.
type Null struct{}

var _ Scheme = Null{}

// Name implements Scheme.
func (Null) Name() string { return "null" }

// GenerateKey implements Scheme.
func (Null) GenerateKey(io.Reader) ([]byte, []byte, error) {
	return []byte{0}, []byte{0}, nil
}

// Sign implements Scheme.
func (Null) Sign(_, _ []byte) ([]byte, error) { return []byte{0}, nil }

// Verify implements Scheme.
func (Null) Verify(_, _, _ []byte) bool { return true }

// Directory maps node indices to their long-term public keys — the
// paper's "indices and public keys for all nodes are publicly
// available in the form of certificates" (§2.3).
//
// A Directory may optionally memoize verification results (see
// EnableVerifyCache). Signed protocol messages travel as transferable
// proof sets (the R/M sets of Figures 2–3), so the same signature is
// re-verified many times — by every node of an in-process cluster and
// again on every retransmission. A multi-session engine hands one
// cached directory to all of its sessions, making it the shared
// signature verifier of the session-multiplexed runtime, and the
// verification pipeline's workers warm the same memo ahead of the
// state machines (Speculate).
type Directory struct {
	scheme Scheme

	// mu guards keys and the verification memo. A memo entry is
	// created when its verification starts, the signer's key is read
	// after that, and a key change replaces the whole map: a verdict
	// computed across a rotation therefore lives only in an entry
	// nobody can find again (stale verdicts for a revoked key must not
	// be cacheable).
	mu       sync.Mutex
	keys     map[int64][]byte
	cache    map[verifyKey]*verdict
	cacheCap int
	hits     uint64
	misses   uint64
	// specStored counts memo entries whose verification a speculative
	// caller started; specUsed counts those an inline check then read.
	specStored uint64
	specUsed   uint64
}

// verifyKey identifies one (signer, message, signature) verification.
// Messages and signatures are keyed by digest so entries stay small.
type verifyKey struct {
	node int64
	msg  [32]byte
	sig  [32]byte
}

// verdict is one memo entry. It exists from the moment a verification
// starts, so a second caller asking for the same key waits on done
// instead of repeating the work.
type verdict struct {
	done  chan struct{} // closed once valid is set
	valid bool
	// ahead marks an entry a speculative caller started and no inline
	// check has read yet.
	ahead bool
}

// NewDirectory creates an empty directory for the given scheme.
func NewDirectory(scheme Scheme) *Directory {
	return &Directory{scheme: scheme, keys: make(map[int64][]byte)}
}

// EnableVerifyCache turns on verification memoization with the given
// entry capacity (≤ 0 selects a default). When the cache fills it is
// cleared wholesale, bounding memory without eviction bookkeeping.
// Call it during setup, before the directory is shared across
// goroutines: enablement itself is not synchronised with Verify.
func (d *Directory) EnableVerifyCache(capacity int) {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cacheCap = capacity
	d.cache = make(map[verifyKey]*verdict, capacity/4)
}

// VerifyCacheStats reports how many inline checks (Verify,
// VerifyCertificateCached) the memo answered and how many it did not,
// since enablement. Speculative calls are not lookups in this sense.
func (d *Directory) VerifyCacheStats() (hits, misses uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hits, d.misses
}

// SpeculationStats reports how many verdicts speculative callers
// produced and how many of those an inline check went on to read; the
// difference is verification nobody needed.
func (d *Directory) SpeculationStats() (stored, used uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.specStored, d.specUsed
}

// Scheme returns the directory's signature scheme.
func (d *Directory) Scheme() Scheme { return d.scheme }

// Add registers a node's public key.
func (d *Directory) Add(node int64, pub []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.keys[node]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateKey, node)
	}
	cp := make([]byte, len(pub))
	copy(cp, pub)
	d.keys[node] = cp
	return nil
}

// Replace installs a new public key for a node (certificate rotation
// after a trusted reboot, §5.1).
func (d *Directory) Replace(node int64, pub []byte) {
	cp := make([]byte, len(pub))
	copy(cp, pub)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keys[node] = cp
	d.dropCachedLocked()
}

// Remove drops a node from the directory (node removal, §6.3).
func (d *Directory) Remove(node int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.keys, node)
	d.dropCachedLocked()
}

// dropCachedLocked clears memoized verdicts after a key change (stale
// entries would otherwise answer for the old key); verifications still
// in flight finish into the discarded map.
func (d *Directory) dropCachedLocked() {
	if d.cache != nil {
		d.cache = make(map[verifyKey]*verdict, d.cacheCap/4)
	}
}

// PublicKey returns the key registered for node.
func (d *Directory) PublicKey(node int64) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pub, ok := d.keys[node]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, node)
	}
	return pub, nil
}

// Nodes returns the sorted-insertion-free list of registered indices.
func (d *Directory) Nodes() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int64, 0, len(d.keys))
	for n := range d.keys {
		out = append(out, n)
	}
	return out
}

// Verify checks a signature attributed to node, consulting the memo
// first when EnableVerifyCache is active.
func (d *Directory) Verify(node int64, msg, sigBytes []byte) bool {
	return d.verify(node, msg, sigBytes, false)
}

// Speculate runs the same check ahead of the state machine that will
// ask for it, so that Verify finds the verdict in the memo. Without a
// memo there is nowhere to leave the verdict and it does nothing.
func (d *Directory) Speculate(node int64, msg, sigBytes []byte) {
	d.verify(node, msg, sigBytes, true)
}

func (d *Directory) verify(node int64, msg, sigBytes []byte, speculative bool) bool {
	d.mu.Lock()
	pub, ok := d.keys[node]
	cached := d.cache != nil
	d.mu.Unlock()
	if !ok || (speculative && !cached) {
		return false
	}
	if !cached {
		return d.scheme.Verify(pub, msg, sigBytes)
	}
	// Key hashing happens outside the lock; the cache can only be
	// enabled, never disabled, so no re-check is needed.
	key := verifyKey{node: node, msg: sha256.Sum256(msg), sig: sha256.Sum256(sigBytes)}
	return d.memoized(key, speculative, func() bool {
		// Read the key again now that the entry exists: an entry still
		// in the memo then answers for the key that is current.
		pub, err := d.PublicKey(node)
		return err == nil && d.scheme.Verify(pub, msg, sigBytes)
	})
}

// memoized answers key from the memo, or runs check and leaves its
// verdict there. An entry is created when its check starts, so of two
// goroutines asking for one key only the first computes and the second
// waits for that verdict; nothing ever waits on work that has not
// started.
func (d *Directory) memoized(key verifyKey, speculative bool, check func() bool) bool {
	d.mu.Lock()
	if v, hit := d.cache[key]; hit {
		if !speculative {
			d.hits++
			if v.ahead {
				v.ahead = false
				d.specUsed++
			}
		}
		d.mu.Unlock()
		<-v.done
		return v.valid
	}
	if speculative {
		d.specStored++
	} else {
		d.misses++
	}
	if len(d.cache) >= d.cacheCap {
		d.cache = make(map[verifyKey]*verdict, d.cacheCap/4)
	}
	v := &verdict{done: make(chan struct{}), ahead: speculative}
	d.cache[key] = v
	d.mu.Unlock()
	v.valid = check()
	close(v.done)
	return v.valid
}

// --- signature encoding helpers -------------------------------------

func encodePair(a, b *big.Int) []byte {
	ab, bb := a.Bytes(), b.Bytes()
	out := make([]byte, 0, 4+len(ab)+len(bb))
	out = append(out, byte(len(ab)>>8), byte(len(ab)))
	out = append(out, ab...)
	out = append(out, byte(len(bb)>>8), byte(len(bb)))
	out = append(out, bb...)
	return out
}

func decodePair(data []byte) (a, b *big.Int, ok bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	la := int(data[0])<<8 | int(data[1])
	data = data[2:]
	if len(data) < la+2 {
		return nil, nil, false
	}
	a = new(big.Int).SetBytes(data[:la])
	data = data[la:]
	lb := int(data[0])<<8 | int(data[1])
	data = data[2:]
	if len(data) != lb {
		return nil, nil, false
	}
	b = new(big.Int).SetBytes(data)
	return a, b, true
}
