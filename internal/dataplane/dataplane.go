// Package dataplane turns completed DKG sessions into long-lived
// serving keys. The control plane (internal/engine) produces shares
// and commitments; this package is the request-serving layer in front
// of them: a per-node Service answers Sign, Decrypt and Beacon
// requests against installed keys by fanning partial-operation
// requests out to peer share holders, aggregating the partials with
// the internal/thresh primitives, and returning ordinary Schnorr
// signatures, ElGamal plaintexts and beacon outputs. No request starts
// a DKG: every operation runs off the key's own sharing.
//
// Keys have a lifecycle: InstallKey yields a Ready key; the first
// request (or an explicit Activate) moves it to Serving. Signing is
// FROST (Komlo & Goldberg; RFC 9591) with ROAST-style retries: each
// peer keeps, in memory only, a pool of nonce pairs issued to this
// aggregator, whose commitments arrive with a starting batch on first
// contact and then one for each pair spent, riding the partial
// responses. A beacon round is a threshold coin: round r's value is
// H_r^s, combined like a decryption from t+1 DLEQ-proved shares
// H_r^{s_i}, where every peer derives H_r from its own key and r. Retire
// moves the key to Retiring: new requests are
// shed, in-flight ones drain, peer partials are still served so other
// aggregators can finish.
//
// Safety invariant: a nonce pair signs exactly one (m, B). Two answers
// z = d + e·ρ + λ·c·s under one pair solve for the share s, so a signer
// checks that the commitment list B names its pair byte for byte, as
// issued to the asking aggregator, and erases (d, e) before it answers.
// A re-ask of the same (m, B) replays the recorded answer; any other is
// refused, as is every pair a restart has forgotten.
//
// The package is transport-agnostic: peers exchange msg.Body values
// through a caller-supplied send function, so the same Service runs
// over the deterministic simulator (the hybriddkg facade) and over
// TCP sessions (cmd/dkgnode serve). client.go adds the external
// client protocol: length-prefixed frames with a versioned
// ClientHello, served from any node's Service.
package dataplane

import (
	"errors"

	"hybriddkg/internal/msg"
)

// Errors returned by the data plane.
var (
	// ErrUnknownKey: the request names a key this service never
	// installed (or already removed).
	ErrUnknownKey = errors.New("dataplane: unknown key")
	// ErrOverloaded: admission control shed the request (token bucket
	// empty or the per-key pending queue full). Clients should back
	// off and retry.
	ErrOverloaded = errors.New("dataplane: overloaded, request shed")
	// ErrRetiring: the key no longer accepts new requests.
	ErrRetiring = errors.New("dataplane: key is retiring")
	// ErrUnavailable: not enough live, honest share holders answered
	// to reach the t+1 reconstruction threshold.
	ErrUnavailable = errors.New("dataplane: not enough partials")
	// ErrClosed: the service was shut down.
	ErrClosed = errors.New("dataplane: service closed")
)

// PeerSession is the session ID on which data-plane peer traffic
// (partial requests and responses) flows. Bit 63 keeps it disjoint
// from every control-plane DKG session.
const PeerSession msg.SessionID = 1 << 63

// Op codes carried by partial-operation requests.
const (
	OpSign    uint8 = 1 // payload: message bytes; B: commitment list
	OpDecrypt uint8 = 2 // payload: compressed C1 ‖ C2
	OpBeacon  uint8 = 3 // payload: the round, 8 bytes big-endian
)

// Per-item response statuses.
const (
	StOK uint8 = 0
	// 1 meant "beacon session not completed here yet" while beacon
	// rounds were DKGs; it stays reserved.
	StUnknownKey uint8 = 2
	StRefused    uint8 = 3 // nonce pair unknown here, not as issued, or spent on another (m, B)
	StBadOp      uint8 = 4
)
