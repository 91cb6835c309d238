// Group membership demo (§6 of the paper): agree on modification
// proposals over reliable broadcast, admit a new node mid-phase by
// transferring subshares (no renewal needed), and remove a node at a
// phase boundary with a threshold adjustment.
//
// This example drives the protocol packages directly (the same ones
// the public façade wraps) because membership surgery is an
// operator-level workflow.
//
//	go run ./examples/membership
package main

import (
	"fmt"
	"log"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/groupmod"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n, t = 7, 2
	gr := group.P256() // the group New and Serve run

	fmt.Println("== initial DKG: 7 nodes, t=2 ==")
	dres, err := harness.RunDKG(harness.DKGOptions{N: n, T: t, Seed: 3, Group: gr, DedupDealings: true, CompressedWire: true})
	if err != nil {
		return err
	}
	groupV := dres.Completed[1].V
	fmt.Printf("public key: %s…\n\n", groupV.PublicKey().String()[:24])

	fmt.Println("== §6.1 agreement: propose adding node 8 ==")
	change, err := groupmod.Apply(
		groupmod.Group{N: n, T: t, F: 0, Members: []msg.NodeID{1, 2, 3, 4, 5, 6, 7}},
		[]groupmod.Proposal{{Kind: groupmod.AddNode, Node: 8}},
	)
	if err != nil {
		return err
	}
	fmt.Printf("agreed change: n %d→%d, t %d→%d, f %d→%d\n\n",
		change.Old.N, change.New.N, change.Old.T, change.New.T, change.Old.F, change.New.F)

	fmt.Println("== §6.2 node addition: members push subshares to node 8 ==")
	newIdx := msg.NodeID(8)
	var joined *groupmod.JoinedEvent
	joiner, err := groupmod.NewJoiner(gr, n, t, newIdx, groupV.Eval(int64(newIdx)), func(ev groupmod.JoinedEvent) {
		joined = &ev
	})
	if err != nil {
		return err
	}
	dres.Net.Register(newIdx, joiner)
	for id := range dres.Nodes {
		cfg := groupmod.AdditionConfig{
			DKG: dkg.Params{
				Group: gr, N: n, T: t,
				Directory: dres.Directory, SignKey: dres.Privs[id],
			},
			Tau:      100,
			NewNode:  newIdx,
			CurrentV: groupV,
			Rand:     randutil.NewReader(500 + uint64(id)),
		}
		eng, err := groupmod.NewAdditionEngine(cfg, id, dres.Net.Env(id), dres.Completed[id].Share)
		if err != nil {
			return err
		}
		dres.Net.Register(id, adapter{eng})
		if err := eng.Start(); err != nil {
			return err
		}
	}
	dres.Net.RunUntil(func() bool { return joined != nil }, 0)
	dres.Net.Run(0)
	if joined == nil {
		return fmt.Errorf("joiner never received a share")
	}
	fmt.Printf("node 8 joined; its share verifies against the group commitment: %v\n",
		groupV.VerifyShare(int64(newIdx), joined.Share))
	fmt.Println("existing shares unchanged — no renewal was needed")

	fmt.Println("\n== §6.3/§6.4 removal at phase boundary ==")
	change2, err := groupmod.Apply(
		groupmod.Group{N: 8, T: t, F: 0, Members: []msg.NodeID{1, 2, 3, 4, 5, 6, 7, 8}},
		[]groupmod.Proposal{{Kind: groupmod.RemoveNode, Node: 5, AffectThreshold: true}},
	)
	if err != nil {
		return err
	}
	fmt.Printf("removal agreed: n %d→%d, t %d→%d; survivors renumbered:\n",
		change2.Old.N, change2.New.N, change2.Old.T, change2.New.T)
	for _, m := range change2.New.Members {
		fmt.Printf("  old index %d → new index %d\n", m, change2.IndexMap[m])
	}
	fmt.Println("(the next share renewal under the new roster invalidates node 5's share —")
	fmt.Println(" see groupmod.TestRemovalWithRenewalReindex for the full protocol run)")
	return nil
}

type adapter struct{ eng *groupmod.AdditionEngine }

func (a adapter) HandleMessage(from msg.NodeID, body msg.Body) { a.eng.HandleMessage(from, body) }
func (a adapter) HandleTimer(id uint64)                        { a.eng.HandleTimer(id) }
func (a adapter) HandleRecover()                               { a.eng.HandleRecover() }
