package harness

import (
	"fmt"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/store"
)

// Journal is the exported kill-and-restart handle built on the same
// machinery as RunRestartDKG, but driveable from scenario scripts: a
// chaos schedule can SIGKILL the victim at an arbitrary virtual time
// and later rebuild it purely from its durable store, all mid-run.
// Unlike simnet Crash/Recover (which keeps the node object alive), a
// Journal restore discards the in-memory incarnation entirely — the
// rolling-restart churn model exercises the WAL/snapshot path with it.
type Journal struct {
	res    *DKGResult
	st     *store.Store
	codec  *msg.Codec
	sid    msg.SessionID
	tau    uint64
	victim msg.NodeID
	jh     *journalHandler

	// Restores counts completed Restore calls; LastRestore reports the
	// most recent restore's provenance.
	Restores    int
	LastRestore RestartResult
}

// AttachJournal wraps the victim's handler with write-ahead journaling
// into a store rooted at stateDir, snapshotting every snapshotEvery
// delivered frames (0 = WAL-only). Must be called after SetupDKG and
// before any events are run. The caller owns neither the store nor the
// handler swap: Close releases the store.
func AttachJournal(res *DKGResult, stateDir string, victim msg.NodeID, snapshotEvery int) (*Journal, error) {
	if victim == 0 || res.Nodes[victim] == nil {
		return nil, fmt.Errorf("harness: journal victim %d is not an honest node", victim)
	}
	codec, err := sessionCodec(res.Opts.Group)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(stateDir, store.Options{})
	if err != nil {
		return nil, err
	}
	const tau = 1
	sid := msg.SessionID(tau)
	jh := &journalHandler{
		st: st, sid: sid, victim: victim, every: snapshotEvery,
		inner: &dkgAdapter{node: res.Nodes[victim]}, node: res.Nodes[victim],
	}
	res.Net.Register(victim, jh)
	return &Journal{res: res, st: st, codec: codec, sid: sid, tau: tau, victim: victim, jh: jh}, nil
}

// Victim returns the journaled node's id.
func (j *Journal) Victim() msg.NodeID { return j.victim }

// Kill SIGKILLs the victim: the network treats it as crashed and its
// in-memory state is considered lost (Restore is the only way back).
func (j *Journal) Kill() { j.res.Net.Crash(j.victim) }

// Restore rebuilds the victim from its durable store (latest snapshot
// + WAL tail), swaps the fresh incarnation into the cluster, and
// rejoins it to the network through the protocol's recover path.
func (j *Journal) Restore() error {
	res := j.res
	params := dkgParamsOf(res.Opts, res.Directory, res.Privs[j.victim])
	params.Trace = res.Tracer
	victim := j.victim
	nd, rep, err := restoreFromStore(j.st, j.codec, j.sid, params, j.tau, victim, res.Net.Env(victim), res.nodeOptions(victim))
	if err != nil {
		return err
	}
	j.LastRestore = *rep
	j.Restores++
	res.Nodes[victim] = nd
	j.jh.swap(nd)
	res.Net.Recover(victim)
	return nil
}

// Errs reports any journaling/snapshot errors accumulated so far.
func (j *Journal) Errs() []error { return j.jh.errs }

// Close releases the underlying store.
func (j *Journal) Close() error { return j.st.Close() }
