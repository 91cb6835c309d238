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
// request (or an explicit Activate) moves it to Serving, which
// provisions the auxiliary sessions serving needs — a reservoir of
// pre-generated nonce DKGs (threshold Schnorr consumes one shared
// nonce per signature; generating it per request would put a full DKG
// on the hot path) and a look-ahead window of beacon DKGs. Retire
// moves the key to Retiring: new requests are shed, in-flight ones
// drain, peer partials are still served so other aggregators can
// finish.
//
// Safety invariant: a nonce share signs exactly one request digest.
// Signing two messages with one nonce leaks the key (σ = k + c·s for
// two challenges solves for s), so every node — peer or aggregator —
// consumes its share of a nonce session on first use and afterwards
// only replays the cached partial for the same digest; a request for
// a different digest under a consumed nonce is refused.
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
	"math/bits"

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
	// ErrNoncesExhausted: this node has derived all 2²⁴ nonce ids its
	// aggregator slot holds for the key, so it can sign under it no more
	// (another node can still aggregate; a renewed key id starts over).
	ErrNoncesExhausted = errors.New("dataplane: nonce counter exhausted for this key and aggregator")
)

// PeerSession is the session ID on which data-plane peer traffic
// (partial requests/responses, prepare messages) flows. Bit 63 keeps
// it disjoint from every control-plane DKG session.
const PeerSession msg.SessionID = 1 << 63

// Aux session ID layout. Auxiliary DKG sessions (nonce reservoirs,
// beacon rounds) are derived deterministically so that every node
// submits the same session ID for the same purpose without extra
// coordination:
//
//	nonce:  bit62 | log₂w[2:0]<<56 | key[23:0]<<32 | owner[7:0]<<24 | counter[23:0]
//	beacon: bit62 | bit61 | key[23:0]<<32 | round[23:0]
//
// A nonce DKG session of width w yields w·e nonces, numbered
// counter..counter+w·e−1: e of them are extracted from each coordinate's
// sharings (SessionShape; the i-th output of the session, coordinate-
// major, is nonce counter+i). A nonce is named, in requests and in every
// node's books, by the id with the width bits clear (NonceSID), so a
// session and the first nonce it produces share all but those bits.
//
// The packing bounds primary key session IDs to 24 bits, aggregator
// node IDs to 8 bits and nonce counters / beacon rounds to 24 bits —
// far beyond any deployment this repository targets. The derivations
// mask and do not check: key ids are checked by InstallKey, beacon
// rounds by Beacon, and nonce counters where they are drawn
// (ErrNoncesExhausted).
const (
	auxFlag    uint64 = 1 << 62
	beaconFlag uint64 = 1 << 61
	widthShift        = 56

	// MaxNonceWidth is the widest nonce session (vss.MaxWidth);
	// nonceCounterEnd is one past the last nonce counter.
	MaxNonceWidth          = 16
	nonceCounterEnd uint64 = 1 << 24
)

// NonceSID derives the ID of the counter-th nonce owned by aggregator
// owner for the given key. Partitioning the reservoir by owner lets
// every node aggregate without nonce-assignment races: an aggregator
// only assigns nonces from sessions it derived itself.
func NonceSID(key msg.SessionID, owner msg.NodeID, counter uint64) msg.SessionID {
	return msg.SessionID(auxFlag |
		(uint64(key)&0xFFFFFF)<<32 |
		(uint64(owner)&0xFF)<<24 |
		counter&0xFFFFFF)
}

// NonceSessionSID derives the session ID of the width-w DKG (w a power
// of two) whose first nonce is counter.
func NonceSessionSID(key msg.SessionID, owner msg.NodeID, counter uint64, width int) msg.SessionID {
	return NonceSID(key, owner, counter) | msg.SessionID(bits.TrailingZeros(uint(width)))<<widthShift
}

// AuxWidth reads the width of the session sid names: every node derives
// it from the identifier alone, so no two can disagree. Only nonce
// sessions are ever wider than 1.
func AuxWidth(sid msg.SessionID) int {
	if !IsAux(sid) || IsBeacon(sid) {
		return 1
	}
	return 1 << (uint64(sid) >> widthShift & 7)
}

// SessionShape derives, from a session's identifier and the roster
// alone, the shape of the DKG that runs it — so that every node, and a
// node rebuilding the session after a restart, runs the same one: the
// number of secrets each dealer shares, the number of dealers the agreed
// set holds, and the number of outputs extracted per secret. A nonce
// session waits for n−t−f dealers and takes n−2t−f nonces from each
// coordinate, the most that stay independent with t dealers corrupt
// (dkg.Options.Rows). Every other session is Fig. 2's: t+1 dealers
// summed into one output, which keeps key, beacon, renewal and group
// modification sessions — whose outputs are public keys or are opened —
// byte for byte what they were and no slower to collect their dealers.
func SessionShape(sid msg.SessionID, n, t, f int) (width, qsize, rows int) {
	if !IsAux(sid) || IsBeacon(sid) {
		return 1, t + 1, 1
	}
	return AuxWidth(sid), n - t - f, n - 2*t - f
}

// firstNonce returns the id of the first nonce session sid produces:
// sid with the width bits clear. The counter sits in the low bits, so
// the i-th nonce is firstNonce(sid)+i.
func firstNonce(sid msg.SessionID) msg.SessionID { return sid &^ (7 << widthShift) }

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

// validAux reports whether sid is an auxiliary session ID a derivation
// above can have produced: no stray bits, a width up to MaxNonceWidth on
// nonce sessions only, and every nonce counter inside its 24 bits when
// each coordinate yields rows nonces. The service runs and installs no
// other.
func validAux(sid msg.SessionID, rows int) bool {
	const spare = 3 << 59
	if !IsAux(sid) || uint64(sid)&spare != 0 {
		return false
	}
	if IsBeacon(sid) {
		return sid == BeaconSID(msg.SessionID(AuxKey(sid)), BeaconRound(sid))
	}
	w := AuxWidth(sid)
	return w <= MaxNonceWidth && NonceCounter(sid)+uint64(w*rows) <= nonceCounterEnd
}

// IsBeacon reports whether sid is a beacon-round session.
func IsBeacon(sid msg.SessionID) bool { return IsAux(sid) && uint64(sid)&beaconFlag != 0 }

// AuxKey recovers the primary key's low 24 session-ID bits from an
// aux session ID.
func AuxKey(sid msg.SessionID) uint64 { return (uint64(sid) >> 32) & 0xFFFFFF }

// NonceOwner recovers the owning aggregator from a nonce session ID.
func NonceOwner(sid msg.SessionID) msg.NodeID { return msg.NodeID((uint64(sid) >> 24) & 0xFF) }

// NonceCounter recovers the owner-local counter from a nonce session
// ID. Counters increase monotonically per (key, owner), which is what
// lets consumed-nonce tombstones collapse into a per-owner floor when
// they age out of the bounded tombstone ring.
func NonceCounter(sid msg.SessionID) uint64 { return uint64(sid) & 0xFFFFFF }

// BeaconRound recovers the round from a beacon session ID.
func BeaconRound(sid msg.SessionID) uint64 { return uint64(sid) & 0xFFFFFF }

// Op codes carried by partial-operation requests.
const (
	OpSign    uint8 = 1 // payload: message bytes; Sid: nonce session
	OpDecrypt uint8 = 2 // payload: compressed C1 ‖ C2
	OpOpen    uint8 = 3 // Sid: beacon session to open
)

// Per-item response statuses.
const (
	StOK         uint8 = 0
	StNotReady   uint8 = 1 // aux session not completed here yet; retry
	StUnknownKey uint8 = 2
	StRefused    uint8 = 3 // nonce already consumed for another digest
	StBadOp      uint8 = 4
)
