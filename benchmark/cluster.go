package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybriddkg"
)

// Deadlines: every wait in the rig is bounded, so a hang becomes a
// counted failure and a non-zero exit, never a stall.
const (
	dkgTimeout = 60 * time.Second
	opTimeout  = 20 * time.Second
)

// errDeadline marks a wait that ran out; main dumps every node's
// stats when it sees one.
var errDeadline = errors.New("deadline exceeded")

// A session whose n Starts the rig could not issue together is the
// load generator's failure, not the program's (see startTogether). The
// loop over the Starts takes about 5 µs; when it took more than
// maxStartSkew the rig was interrupted inside it, and a node started
// after its peers' first frames (a dealing's computation later, some
// 200 µs) has lost them for good. Such a session is given skewGrace to
// end and counts like any other when it does; when it does not,
// runSession returns errSkewStrand and the session is reported as a
// generator fault (loadgen.skew_strands), not as a failed operation.
const maxStartSkew = 100 * time.Microsecond

var skewGrace = 3 * time.Second // a test shortens it

var errSkewStrand = errors.New("the rig issued the session's Starts too far apart, and a late node was stranded")

// stallStart, when set by a test, runs after the Start of node i
// (0-based) has been queued: a stand-in for the operating system
// taking the processor from the rig at that point.
var stallStart func(i int)

// clusterSpec is what varies between clusters. Everything else is
// what `dkgnode serve` ships: p256, ed25519 rings, dedup dealings and
// compressed wire, flood mode, one verify worker per CPU, session
// lanes on.
type clusterSpec struct {
	n, t     int
	stateDir string // durable state root ("" = in-memory); one sub-directory per node
	metrics  bool   // MetricsListen on every node (traced runs)
}

// nodeEvent is one node's completion of one session.
type nodeEvent struct {
	node int // 0-based
	ev   hybriddkg.SessionEvent
	at   time.Time
}

type nodeFailure struct {
	node int
	fl   hybriddkg.SessionFailure
}

// cluster is n hybriddkg.Serve nodes in this process on 127.0.0.1.
type cluster struct {
	spec    clusterSpec
	nodes   []*hybriddkg.Server
	serveMs []float64 // wall time of each Serve call
	events  chan nodeEvent
	fails   chan nodeFailure
	done    chan struct{}
	pumps   sync.WaitGroup
}

// freePorts reserves k loopback ports by binding :0 and closing. The
// window between close and Serve's own bind is why newCluster retries.
func freePorts(k int) ([]string, error) {
	addrs := make([]string, 0, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		defer ln.Close()
	}
	return addrs, nil
}

// newCluster builds the cluster, retrying the whole build up to three
// times when a node fails to come up (a reserved port taken in the
// close-to-bind window). tr may be nil.
func newCluster(spec clusterSpec, tr *tracer) (*cluster, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var c *cluster
		if c, err = buildCluster(spec, tr); err == nil {
			return c, nil
		}
		fmt.Fprintf(os.Stderr, "cluster build attempt %d: %v\n", attempt+1, err)
	}
	return nil, fmt.Errorf("cluster build: %w", err)
}

func buildCluster(spec clusterSpec, tr *tracer) (*cluster, error) {
	addrs, err := freePorts(spec.n)
	if err != nil {
		return nil, err
	}
	rings, err := hybriddkg.NewKeyRings(spec.n, "ed25519")
	if err != nil {
		return nil, err
	}
	peers := make([]hybriddkg.PeerAddr, spec.n)
	for i, a := range addrs {
		peers[i] = hybriddkg.PeerAddr{ID: hybriddkg.NodeID(i + 1), Addr: a}
	}
	c := &cluster{
		spec:   spec,
		events: make(chan nodeEvent, 4*spec.n), // a session's n events never block the pumps
		fails:  make(chan nodeFailure, 4*spec.n),
		done:   make(chan struct{}),
	}
	for i := 0; i < spec.n; i++ {
		cfg := hybriddkg.ServerConfig{
			Self:          hybriddkg.NodeID(i + 1),
			Roster:        hybriddkg.Roster{N: spec.n, T: spec.t},
			Listen:        addrs[i],
			Peers:         peers,
			Keys:          rings[i],
			VerifyWorkers: runtime.NumCPU(),
			ShardSessions: true,
			Logf:          func(string, ...any) {}, // the StateDir/ShardSessions notice, n times per cluster
		}
		if i == 0 {
			cfg.ClientListen = "127.0.0.1:0"
		}
		if spec.stateDir != "" {
			cfg.StateDir = fmt.Sprintf("%s/node%d", spec.stateDir, i+1)
		}
		if spec.metrics {
			cfg.MetricsListen = "127.0.0.1:0"
		}
		sp := tr.begin("facade.serve", 0, uint64(i+1))
		t0 := time.Now()
		srv, err := hybriddkg.Serve(cfg, hybriddkg.WithGroup(groupName),
			hybriddkg.WithDedupDealings(), hybriddkg.WithCompressedWire())
		c.serveMs = append(c.serveMs, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("serve node %d: %w", i+1, err)
		}
		c.nodes = append(c.nodes, srv)
		c.pumps.Add(1)
		go c.pump(i, srv)
	}
	return c, nil
}

// pump forwards one node's events and failures, stamped on arrival,
// until the cluster closes.
func (c *cluster) pump(i int, srv *hybriddkg.Server) {
	defer c.pumps.Done()
	for {
		select {
		case ev := <-srv.Events():
			select {
			case c.events <- nodeEvent{node: i, ev: ev, at: time.Now()}:
			case <-c.done:
				return
			}
		case fl := <-srv.Failures():
			select {
			case c.fails <- nodeFailure{node: i, fl: fl}:
			case <-c.done:
				return
			}
		case <-c.done:
			return
		}
	}
}

// close stops every node, joins the pumps and removes durable state.
func (c *cluster) close() {
	close(c.done)
	for _, srv := range c.nodes {
		srv.Close()
	}
	c.pumps.Wait()
	if c.spec.stateDir != "" {
		os.RemoveAll(c.spec.stateDir)
	}
}

// startTogether issues Start(sid) on every node before any node can
// act on it, and returns when the first Start went out and how long
// the n calls took. Start only queues the session on the node's event
// loop, and a node drops frames for a session it has not registered
// yet: when the operating system takes the processor from the rig for
// a millisecond between two Starts (once in a few thousand sessions on
// the reference box), the late nodes lose their peers' dealings, the
// others complete without them and the session never ends there. Real
// deployments start their sessions at boot, before the mesh is up.
// Here a spinning goroutine occupies every other P for the few
// microseconds of the loop, so no event loop runs until all n Starts
// are queued. That holds while the rig is off the processor for less
// than the Go runtime's 10 ms preemption slice; beyond it the spinners
// are preempted too and about one such stall in a hundred still
// strands a node, which runSession reports as errSkewStrand.
func (c *cluster) startTogether(sid uint64) (first time.Time, skew time.Duration) {
	others := int32(runtime.GOMAXPROCS(0) - 1)
	var spinning atomic.Int32
	var release atomic.Bool
	for i := int32(0); i < others; i++ {
		go func() {
			spinning.Add(1)
			for !release.Load() {
			}
		}()
	}
	for spinning.Load() < others {
	}
	first = time.Now()
	for i, srv := range c.nodes {
		srv.Start(sid)
		if stallStart != nil {
			stallStart(i)
		}
	}
	skew = time.Since(first)
	release.Store(true)
	return first, skew
}

// runSession starts session sid on every node and waits for all n
// completions. It returns the events in node order, the time of the
// first Start and how long issuing the n Starts took. A session that
// fails or misses its deadline is an error; errSkewStrand when the
// Starts went out more than maxStartSkew apart and the session did not
// end within skewGrace.
func (c *cluster) runSession(sid uint64, tr *tracer, parent uint64) (evs []nodeEvent, started time.Time, skew time.Duration, err error) {
	t0, skew := c.startTogether(sid)
	spans := make([]uint64, len(c.nodes))
	for i := range spans {
		spans[i] = tr.beginAt("facade.start→event", parent, sid, t0)
	}
	out := make([]nodeEvent, len(c.nodes))
	wait := dkgTimeout
	if skew > maxStartSkew {
		wait = skewGrace
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for got := 0; got < len(c.nodes); {
		select {
		case ne := <-c.events:
			if ne.ev.Session != sid {
				continue // a straggler of a session that already missed its deadline
			}
			tr.endAt(spans[ne.node], ne.at)
			out[ne.node] = ne
			got++
		case nf := <-c.fails:
			if nf.fl.Session != sid {
				continue
			}
			return nil, t0, skew, fmt.Errorf("session %d failed on node %d (starts spread over %v): %w", sid, nf.node+1, skew, nf.fl.Err)
		case <-deadline.C:
			cause := errDeadline
			if skew > maxStartSkew {
				cause = errSkewStrand
			}
			return nil, t0, skew, fmt.Errorf("session %d: %d of %d nodes done (starts spread over %v): %w", sid, got, len(c.nodes), skew, cause)
		}
	}
	return out, t0, skew, nil
}

// dumpStats prints what each node was doing, for a deadline miss.
func (c *cluster) dumpStats() {
	for i, srv := range c.nodes {
		fmt.Fprintf(os.Stderr, "node %d: engine %+v service %+v\n", i+1, srv.EngineStats(), srv.ServiceStats())
	}
}

// counters is the sum of the public stats surfaces over all nodes,
// plus node 1's completed-session count.
type counters struct {
	frames, flushes, msgs int
	frameBytes            int64
	completed1            int
	svc                   hybriddkg.ServiceStats
}

func (c *cluster) counters() counters {
	var out counters
	for i, srv := range c.nodes {
		if ws, ok := srv.WireStats(); ok {
			out.frames += ws.Frames
			out.frameBytes += ws.FrameBytes
			out.flushes += ws.CoalesceFlushes
			for _, k := range ws.MsgCount {
				out.msgs += k
			}
		}
		if i == 0 {
			out.completed1 = srv.EngineStats().Completed
		}
		s := srv.ServiceStats()
		out.svc.Requests += s.Requests
		out.svc.Shed += s.Shed
		out.svc.Batches += s.Batches
		out.svc.Items += s.Items
		out.svc.PeerItems += s.PeerItems
		out.svc.PeerCacheHits += s.PeerCacheHits
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
