// Package hybriddkg is a Go implementation of "Distributed Key
// Generation for the Internet" (Kate & Goldberg, ICDCS 2009): an
// asynchronous, leader-based distributed key generation protocol for
// the hybrid fault model (t Byzantine nodes plus f crash-recovery
// nodes, n ≥ 3t + 2f + 1), together with the HybridVSS verifiable
// secret sharing it is built on, proactive share renewal, group
// modification (node addition/removal, threshold changes) and the
// threshold-cryptography applications the paper motivates (dealerless
// threshold Schnorr signatures, threshold ElGamal decryption and a
// random beacon).
//
// This package is the high-level façade: New builds a complete
// in-memory deployment of n protocol nodes over the deterministic
// asynchronous network simulator, each running a data-plane service.
// GenerateKey turns one completed DKG session into a long-lived Key
// whose Sign, Decrypt and Beacon methods fan partial-operation
// requests out to the nodes and aggregate a quorum's results:
//
//	net, _ := hybriddkg.New(hybriddkg.Roster{N: 7, T: 2})
//	key, _ := net.GenerateKey(ctx)
//	sig, _ := key.Sign(ctx, []byte("hello"))
//	ok := key.Verify([]byte("hello"), sig)
//
// The protocol state machines live in internal packages and are
// transport-agnostic; Serve (and cmd/dkgnode on top of it) runs the
// same state machines and data-plane service over real TCP
// connections. Both run one profile: the P-256 group, Ed25519 message
// authentication and wire format v2 (deduplicated, compressed
// commitments; coalesced frames over TCP).
package hybriddkg

import (
	"errors"
	"math/big"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
)

// Errors returned by the façade.
var (
	ErrBadOptions = errors.New("hybriddkg: invalid options")
	ErrIncomplete = errors.New("hybriddkg: protocol did not complete")
)

// NodeID is the 1-based node index used throughout the system (the
// paper's public per-node identifying index, §2.3).
type NodeID = msg.NodeID

// Element is an opaque group element (a public key, commitment entry
// or ElGamal ciphertext half): a NIST P-256 curve point.
type Element = group.Element

// Signature is a standard Schnorr signature produced by a threshold
// quorum; any ordinary Schnorr verifier accepts it.
type Signature struct {
	R     Element
	Sigma *big.Int
}

// Ciphertext is an ElGamal ciphertext under a distributed key.
type Ciphertext struct {
	C1, C2 Element
}
