// Package dataplane turns completed DKG sessions into long-lived
// serving keys. The control plane (internal/engine) produces shares
// and commitments; this package is the request-serving layer in front
// of them: a per-node Service answers Sign, Decrypt and BeaconRound
// requests against installed keys by fanning partial-operation
// requests out to peer share holders, aggregating the partials with
// the internal/thresh primitives, and returning ordinary Schnorr
// signatures, ElGamal plaintexts and beacon outputs.
//
// Keys have a lifecycle: InstallKey yields a Ready key; the first
// request (or an explicit Activate) moves it to Serving. Signing is
// FROST (Komlo & Goldberg; RFC 9591) with ROAST-style retries: each
// peer keeps, in memory only, a pool of nonce pairs issued to this
// aggregator, whose commitments arrive with a starting batch on first
// contact and then one for each pair spent, riding the partial
// responses. Beacon rounds are auxiliary DKGs provisioned in a
// look-ahead window. Retire moves the key to Retiring: new requests are
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
// (partial requests/responses, prepare messages) flows. Bit 63 keeps
// it disjoint from every control-plane DKG session.
const PeerSession msg.SessionID = 1 << 63

// Aux session ID layout. Beacon rounds are auxiliary DKG sessions,
// derived deterministically so that every node submits the same session
// ID for the same round without extra coordination:
//
//	beacon: bit62 | bit61 | key[23:0]<<32 | round[23:0]
//
// The packing bounds primary key session IDs and beacon rounds to 24
// bits, far beyond any deployment this repository targets. The
// derivation masks and does not check: key ids are checked by
// InstallKey, rounds by Beacon.
const (
	auxFlag    uint64 = 1 << 62
	beaconFlag uint64 = 1 << 61
)

// BeaconSID derives the session ID of the beacon DKG for one round of
// a key's beacon sequence. It is owner-independent: all aggregators
// open the same round session and obtain the same output.
func BeaconSID(key msg.SessionID, round uint64) msg.SessionID {
	return msg.SessionID(auxFlag | beaconFlag |
		(uint64(key)&0xFFFFFF)<<32 |
		round&0xFFFFFF)
}

// IsAux reports whether sid is a data-plane auxiliary session. The
// control plane uses it to route completed aux sessions to the
// service instead of announcing them as primary keys.
func IsAux(sid msg.SessionID) bool { return uint64(sid)&auxFlag != 0 && uint64(sid)&(1<<63) == 0 }

// validAux reports whether sid is a session ID BeaconSID can have
// produced, with no stray bits. The service runs and installs no other.
func validAux(sid msg.SessionID) bool {
	return IsBeacon(sid) && sid == BeaconSID(msg.SessionID(AuxKey(sid)), BeaconRound(sid))
}

// IsBeacon reports whether sid is a beacon-round session.
func IsBeacon(sid msg.SessionID) bool { return IsAux(sid) && uint64(sid)&beaconFlag != 0 }

// AuxKey recovers the primary key's low 24 session-ID bits from an
// aux session ID.
func AuxKey(sid msg.SessionID) uint64 { return (uint64(sid) >> 32) & 0xFFFFFF }

// BeaconRound recovers the round from a beacon session ID.
func BeaconRound(sid msg.SessionID) uint64 { return uint64(sid) & 0xFFFFFF }

// Op codes carried by partial-operation requests.
const (
	OpSign    uint8 = 1 // payload: message bytes; B: commitment list
	OpDecrypt uint8 = 2 // payload: compressed C1 ‖ C2
	OpOpen    uint8 = 3 // Sid: beacon session to open
)

// Per-item response statuses.
const (
	StOK         uint8 = 0
	StNotReady   uint8 = 1 // aux session not completed here yet; retry
	StUnknownKey uint8 = 2
	StRefused    uint8 = 3 // nonce pair unknown here, not as issued, or spent on another (m, B)
	StBadOp      uint8 = 4
)
