// Random beacon (the distributed coin-tossing motivation of §1): the
// nodes serve numbered beacon rounds from one long-lived key. Round r's
// value is a threshold coin, H_r^s, where H_r hashes the public key and
// r to a group element and s is the key's shared secret: t+1 nodes each
// contribute H_r^{s_i} with a proof that it matches their public share,
// and the aggregator combines them. Nobody can compute a round's value
// before t+1 nodes answer, nobody can steer it, and every aggregator
// gets the same one. No DKG runs per round.
//
//	go run ./examples/beacon
package main

import (
	"context"
	"fmt"
	"log"

	"hybriddkg"
	"hybriddkg/internal/thresh"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 7, T: 2}, hybriddkg.WithSeed(7))
	if err != nil {
		return err
	}
	defer net.Close()
	ctx := context.Background()

	// One DKG up front; every round reuses the serving quorum.
	key, err := net.GenerateKey(ctx)
	if err != nil {
		return err
	}
	fmt.Println("round | beacon output (first 16 hex) | coin")
	fmt.Println("------+------------------------------+-----")
	heads := 0
	const rounds = 8
	for round := uint64(1); round <= rounds; round++ {
		out, err := key.Beacon(ctx, round)
		if err != nil {
			return err
		}
		// Anyone can audit the round: the output is the hash of the
		// combined coin value.
		if out.Output != thresh.BeaconOutput(net.Group(), round, out.Value) {
			return fmt.Errorf("round %d: output does not match its value", round)
		}
		coin := "tails"
		if thresh.BeaconBit(out.Output) {
			coin = "heads"
			heads++
		}
		fmt.Printf("%5d | %x | %s\n", round, out.Output[:8], coin)
	}
	fmt.Printf("\n%d/%d heads\n", heads, rounds)
	return nil
}
