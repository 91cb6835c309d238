package chaos

import (
	"fmt"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/simnet"
)

// Injectable implementation bugs. The lab's acceptance bar is that it
// catches these within a bounded seed sweep and that the failing seed
// replays with an identical trace hash — the same way PR 6's
// startup-race retry-backlog bug and PR 9's fallback arbitration bug
// were found, but replayable instead of probabilistic.
const (
	// InjectDropHelp severs the crash-recovery retransmission path:
	// every help request (VSS and DKG layer) silently vanishes, so a
	// node that recovers after missing protocol traffic never gets the
	// logs replayed to it — the retry-backlog bug class from PR 6.
	// Scenarios with churn + unlucky timing stall on it; the liveness
	// invariant catches the stall.
	InjectDropHelp = "drop-help"
	// InjectDropRecoverEcho drops echoes sent to recovered nodes'
	// dealerless sessions… kept simple: it drops every echo addressed
	// to node 1, starving one node's quorum participation — a
	// targeted-starvation regression the agreement+liveness pair flags.
	InjectDropEchoTo1 = "drop-echo-to-1"
)

// installInject wires a named injected bug into the build. Lost-traffic
// bugs are fault filters: their drops acknowledge AllowDrop
// mechanically (they model what an implementation bug would lose), but
// the spec still asserts liveness — that mismatch is exactly what makes
// the lab flag the bug.
func installInject(b *build, name string) error {
	switch name {
	case InjectDropHelp:
		b.filters = append(b.filters, func(_ msg.SessionID, _, _ msg.NodeID, body msg.Body) simnet.Verdict {
			switch body.MsgType() {
			case msg.TVSSHelp, msg.TDKGHelp:
				return simnet.Verdict{Drop: true, AllowDrop: true}
			}
			return simnet.Verdict{}
		})
	case InjectDropEchoTo1:
		b.filters = append(b.filters, func(_ msg.SessionID, from, to msg.NodeID, body msg.Body) simnet.Verdict {
			if to == 1 && from != 1 {
				switch body.MsgType() {
				case msg.TVSSEcho, msg.TDKGEcho:
					return simnet.Verdict{Drop: true, AllowDrop: true}
				}
			}
			return simnet.Verdict{}
		})
	default:
		return fmt.Errorf("chaos: unknown injected bug %q", name)
	}
	return nil
}
