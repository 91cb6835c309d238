package thresh

import (
	"crypto/sha256"
	"encoding/binary"

	"hybriddkg/internal/group"
)

// The beacon is a threshold coin (Cachin, Kursawe and Shoup; the
// distributed coin tossing of §1) over a key's existing sharing: round
// r's value is H_r^s, where H_r hashes the public key and r to a group
// element and s is the shared secret. Each holder contributes
// D_i = H_r^{s_i} with a DLEQ proof against V(i) — ProveDecryption with
// base H_r — and any t+1 valid contributions combine in the exponent
// (CombineShares), so every aggregator obtains the same value. Nobody
// can compute H_r^s before t+1 holders answer, nor steer it: the value
// is a function of the round and the key alone, fixed when the DKG
// completed, and no round runs a protocol an adversary could abort.

// beaconDomain separates round bases and outputs from every other hash.
const beaconDomain = "hybriddkg/beacon/v2"

// BeaconBase derives round r's base H_r = HashToElement(pk, r).
func BeaconBase(gr *group.Group, pk group.Element, round uint64) group.Element {
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], round)
	return gr.HashToElement(beaconDomain, pk.Bytes(), rb[:])
}

// BeaconOutput derives round r's public random value from the coin
// value H_r^s: SHA-256(domain ‖ r ‖ ParamsID ‖ H_r^s).
func BeaconOutput(gr *group.Group, round uint64, value group.Element) [32]byte {
	h := sha256.New()
	h.Write([]byte(beaconDomain))
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], round)
	h.Write(rb[:])
	h.Write(gr.ParamsID())
	h.Write(value.Bytes())
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// BeaconBit reduces a beacon output to a single coin (the distributed
// coin-tossing primitive of §1).
func BeaconBit(out [32]byte) bool { return out[0]&1 == 1 }
