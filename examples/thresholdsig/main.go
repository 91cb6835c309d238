// Threshold certificate authority (the paper's IBC/threshold-PKC
// motivation, §1): a 10-node CA with t = 2 Byzantine tolerance and
// f = 1 crash allowance signs certificates. No single machine ever
// holds the CA key; signing works even while a node is down.
//
// Certificate requests arrive in bursts, so the CA batches them:
// same-key sign requests coalesce into one partial round-trip across
// the quorum instead of one per certificate.
//
//	go run ./examples/thresholdsig
package main

import (
	"context"
	"fmt"
	"log"

	"hybriddkg"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// n ≥ 3t + 2f + 1 → 10 ≥ 3·2 + 2·1 + 1 = 9 ✓
	net, err := hybriddkg.New(hybriddkg.Roster{N: 10, T: 2, F: 1},
		hybriddkg.WithSeed(11),
		hybriddkg.WithBatchWindow(16))
	if err != nil {
		return err
	}
	defer net.Close()
	ctx := context.Background()

	// Eager serving: fetch the peers' signing commitments before the
	// first certificate request arrives.
	caKey, err := net.GenerateKey(ctx, hybriddkg.WithEagerServing())
	if err != nil {
		return err
	}
	fmt.Printf("threshold CA key generated (public key %s…)\n", caKey.PublicKey().String()[:24])

	// A burst of requests, issued as one batch: one fan-out round
	// trip produces all three signatures.
	certs := [][]byte{
		[]byte("CN=alice,O=example"),
		[]byte("CN=bob,O=example"),
		[]byte("CN=charlie,O=example"),
	}
	sigs, err := caKey.SignBatch(ctx, certs)
	if err != nil {
		return err
	}
	for i, cert := range certs {
		fmt.Printf("  issued %-24s verified=%v\n", cert, caKey.Verify(cert, sigs[i]))
	}
	st := net.ServiceStats(1)
	fmt.Printf("batching: %d certificates served in %d partial round-trip(s)\n",
		st.Items, st.Batches)

	// One node crashes — inside the f budget, the CA keeps issuing.
	fmt.Println("node 10 crashes (within the f = 1 crash budget)…")
	net.Crash(10)
	late := []byte("CN=dave,O=example")
	sig, err := caKey.Sign(ctx, late)
	if err != nil {
		return err
	}
	fmt.Printf("  issued %-24s verified=%v (9 live nodes)\n", late, caKey.Verify(late, sig))

	net.Recover(10)
	fmt.Println("node 10 recovered; back to full strength")
	return nil
}
