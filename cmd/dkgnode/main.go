// Command dkgnode runs one DKG participant over real TCP — the
// deployment form of the protocol (one process per node, §7 system
// design). A cluster is prepared with `dkgnode keygen` (generates the
// signature-key directory all nodes need) and then one `dkgnode run`
// (single DKG, exit when done) or `dkgnode serve` (long-running
// session-multiplexed service) per node. A serving cluster is a
// threshold data plane: `dkgnode client` connects to any node's
// -client-listen endpoint and requests signatures, decryptions and
// beacon rounds under completed keys.
//
// Example 4-node cluster on one machine, two concurrent sessions:
//
//	dkgnode keygen -n 4 -out keys.json
//	for i in 1 2 3 4; do
//	  dkgnode serve -id $i -listen 127.0.0.1:900$i \
//	    -client-listen 127.0.0.1:910$i \
//	    -peers "1=127.0.0.1:9001,2=127.0.0.1:9002,3=127.0.0.1:9003,4=127.0.0.1:9004" \
//	    -keys keys.json -n 4 -t 1 -sessions 2 &
//	done
//	dkgnode client -addr 127.0.0.1:9101 -key 1 -sign "hello" -decrypt -beacon 3
//
// `run` prints a JSON document with the public key and the node's
// share when the DKG completes. `serve` multiplexes S concurrent DKG
// sessions over one set of TCP links through the session engine,
// prints one JSON line per completed session, accepts further
// `start <session-id>` requests on stdin, and exits non-zero if any
// requested session has not completed within -timeout. Every command
// is built on the hybriddkg façade; the protocol internals stay
// internal.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers for -pprof
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"hybriddkg"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: dkgnode <keygen|run|serve|client|top> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "keygen":
		err = keygen(os.Args[2:])
	case "run":
		err = runNode(os.Args[2:])
	case "serve":
		err = serve(os.Args[2:])
	case "client":
		err = client(os.Args[2:])
	case "top":
		err = top(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dkgnode:", err)
		os.Exit(1)
	}
}

// keyFile is the operator-distributed key directory. In a real
// deployment each node receives only its own private key plus all
// public keys (the paper's certificate model, §2.3); the single file
// keeps the demo simple. Scheme is always "ed25519"; a file that names
// any other is refused, and one that names none means ed25519.
type keyFile struct {
	Scheme string     `json:"scheme"`
	Secret string     `json:"transportSecret"`
	Nodes  []keyEntry `json:"nodes"`
}

type keyEntry struct {
	ID   int64  `json:"id"`
	Pub  string `json:"pub"`
	Priv string `json:"priv"`
}

func keygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	n := fs.Int("n", 4, "number of nodes")
	out := fs.String("out", "keys.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rings, err := hybriddkg.NewKeyRings(*n, keyScheme)
	if err != nil {
		return err
	}
	kf := keyFile{
		Scheme: keyScheme,
		Secret: hex.EncodeToString(rings[0].TransportSecret),
	}
	for i, ring := range rings {
		id := int64(i + 1)
		kf.Nodes = append(kf.Nodes, keyEntry{
			ID:   id,
			Pub:  hex.EncodeToString(ring.Public[hybriddkg.NodeID(id)]),
			Priv: hex.EncodeToString(ring.Private),
		})
	}
	data, err := json.MarshalIndent(kf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o600); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d nodes, scheme %s)\n", *out, *n, keyScheme)
	return nil
}

// keyScheme is the one signature scheme nodes authenticate with.
const keyScheme = "ed25519"

// loadKeyRing reads the key directory file and assembles this node's
// authentication material.
func loadKeyRing(path string, self int64) (hybriddkg.KeyRing, error) {
	var ring hybriddkg.KeyRing
	data, err := os.ReadFile(path)
	if err != nil {
		return ring, err
	}
	var kf keyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return ring, fmt.Errorf("parse %s: %w", path, err)
	}
	if kf.Scheme != "" && kf.Scheme != keyScheme {
		return ring, fmt.Errorf("%s: signature scheme %q (only %s is accepted)", path, kf.Scheme, keyScheme)
	}
	ring.Public = make(map[hybriddkg.NodeID][]byte, len(kf.Nodes))
	for _, e := range kf.Nodes {
		pub, err := hex.DecodeString(e.Pub)
		if err != nil {
			return ring, err
		}
		ring.Public[hybriddkg.NodeID(e.ID)] = pub
		if e.ID == self {
			if ring.Private, err = hex.DecodeString(e.Priv); err != nil {
				return ring, err
			}
		}
	}
	if ring.Private == nil {
		return ring, fmt.Errorf("no private key for node %d in %s", self, path)
	}
	if ring.TransportSecret, err = hex.DecodeString(kf.Secret); err != nil || len(ring.TransportSecret) == 0 {
		return ring, fmt.Errorf("bad transport secret in %s", path)
	}
	return ring, nil
}

// clusterFlags bundles the flags shared by the run and serve
// subcommands: node identity, cluster shape, key material, peer
// directory and certificate mode.
type clusterFlags struct {
	id        *int64
	listen    *string
	peersSpec *string
	keysPath  *string
	n, t, f   *int
	timeout   *time.Duration
	leader    *int64
	certs     *bool
}

func newClusterFlags(fs *flag.FlagSet) *clusterFlags {
	return &clusterFlags{
		id:        fs.Int64("id", 0, "this node's index (1-based)"),
		listen:    fs.String("listen", "", "listen address host:port"),
		peersSpec: fs.String("peers", "", "comma-separated id=host:port list for all nodes"),
		keysPath:  fs.String("keys", "keys.json", "key directory file from `dkgnode keygen`"),
		n:         fs.Int("n", 0, "group size"),
		t:         fs.Int("t", 0, "Byzantine threshold"),
		f:         fs.Int("f", 0, "crash limit"),
		timeout:   fs.Duration("timeout", 5*time.Minute, "overall deadline"),
		leader:    fs.Int64("leader", 1, "initial leader index"),
		certs: fs.Bool("certificates", false,
			"replace echo/ready floods with relay-assembled quorum certificates (subquadratic messaging at large n; falls back to flooding on certificate timeout)"),
	}
}

// serverConfig validates the parsed flags and assembles the façade
// server configuration plus its protocol options.
func (c *clusterFlags) serverConfig() (hybriddkg.ServerConfig, []hybriddkg.Option, error) {
	var cfg hybriddkg.ServerConfig
	if *c.id < 1 || *c.listen == "" || *c.peersSpec == "" || *c.n == 0 {
		return cfg, nil, fmt.Errorf("missing -id/-listen/-peers/-n")
	}
	ring, err := loadKeyRing(*c.keysPath, *c.id)
	if err != nil {
		return cfg, nil, err
	}
	peers, err := parsePeers(*c.peersSpec)
	if err != nil {
		return cfg, nil, err
	}
	cfg = hybriddkg.ServerConfig{
		Self:          hybriddkg.NodeID(*c.id),
		Roster:        hybriddkg.Roster{N: *c.n, T: *c.t, F: *c.f},
		Listen:        *c.listen,
		Peers:         peers,
		Keys:          ring,
		InitialLeader: hybriddkg.NodeID(*c.leader),
	}
	var opts []hybriddkg.Option
	if *c.certs {
		opts = append(opts, hybriddkg.WithCertificates())
	}
	return cfg, opts, nil
}

func runNode(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cf := newClusterFlags(fs)
	tau := fs.Uint64("tau", 1, "session counter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, opts, err := cf.serverConfig()
	if err != nil {
		return err
	}
	srv, err := hybriddkg.Serve(cfg, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Start(*tau)
	fmt.Fprintf(os.Stderr, "node %d listening on %s, session %d, waiting for DKG…\n", *cf.id, srv.Addr(), *tau)

	select {
	case ev := <-srv.Events():
		out := map[string]any{
			"node":      *cf.id,
			"session":   ev.Session,
			"finalView": ev.FinalView,
			"publicKey": ev.PublicKey.String(),
			"share":     ev.Share.Text(16),
			"qset":      ev.Q,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case fl := <-srv.Failures():
		return fmt.Errorf("session %d: %w", fl.Session, fl.Err)
	case <-time.After(*cf.timeout):
		return fmt.Errorf("timed out after %v", *cf.timeout)
	}
}

// serve runs the long-running session-multiplexed service: S initial
// DKG sessions through the engine over one transport endpoint, plus
// any sessions requested later via `start <id>` lines on stdin. It
// exits zero once every requested session completed, non-zero on the
// deadline or a failed session. With -client-listen the node also
// serves the threshold data plane to external clients.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cf := newClusterFlags(fs)
	var (
		sessions     = fs.Int("sessions", 1, "number of initial concurrent DKG sessions")
		base         = fs.Uint64("session-base", 1, "first session id (τ) to run")
		workers      = fs.Int("workers", 0, "bound on concurrently active sessions (0 = unbounded)")
		stateDir     = fs.String("state-dir", "", "durable state directory (WAL + snapshots); enables restart recovery")
		snapEvery    = fs.Int("snapshot-every", 64, "events between periodic state snapshots (with -state-dir)")
		syncEvery    = fs.Int("sync-every", 1, "fsync the WAL every N appends (with -state-dir; negative = page cache only)")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
		verWorkers   = fs.Int("verify-workers", runtime.NumCPU(), "worker goroutines that verify live sessions' signatures ahead of the state machines and run batch flushes (0 = everything inline)")
		shard        = fs.Bool("shard-sessions", true, "per-session dispatch lanes so concurrent sessions occupy multiple cores; incompatible with -state-dir (durable checkpoints need the single event loop), which forces it off with a startup warning")
		clientListen = fs.String("client-listen", "", "serve the client request protocol (sign/decrypt/beacon) on this address (empty = off)")
		linger       = fs.Bool("linger", false, "keep serving after all initial sessions complete (until -timeout or a signal); implied by -client-listen")
		metricsAddr  = fs.String("metrics-listen", "", "serve /metrics, /sessions and /keys introspection on this address (empty = telemetry off)")
		wireJSON     = fs.String("wire-stats-json", "", "additionally write the wire books as JSON to this file on shutdown (text stays on stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, opts, err := cf.serverConfig()
	if err != nil {
		return err
	}
	if *sessions < 0 || *base == 0 {
		return fmt.Errorf("bad -sessions/-session-base")
	}
	if *pprofAddr != "" {
		// Live-cluster profiling endpoint: `go tool pprof
		// http://<addr>/debug/pprof/profile` against a serving node.
		// Failure to bind is reported but not fatal — profiling must
		// never take a DKG participant down.
		//
		// With profiling requested, also sample contention: mutex
		// events at 1-in-5 and blocking events above 100µs, cheap
		// enough to leave on while serving and exactly what the
		// /debug/pprof/{mutex,block} endpoints need to be non-empty.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(int(100 * time.Microsecond))
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "node %d: pprof listen %s: %v\n", *cf.id, *pprofAddr, err)
		} else {
			fmt.Fprintf(os.Stderr, "node %d: pprof on http://%s/debug/pprof/\n", *cf.id, ln.Addr())
			go func() {
				if err := http.Serve(ln, nil); err != nil {
					fmt.Fprintf(os.Stderr, "node %d: pprof server: %v\n", *cf.id, err)
				}
			}()
		}
	}
	if *shard && *stateDir != "" {
		fmt.Fprintf(os.Stderr, "node %d: -shard-sessions disabled: durable state checkpoints require the single event loop\n", *cf.id)
		*shard = false
	}
	cfg.MaxActive = *workers
	cfg.VerifyWorkers = *verWorkers
	cfg.ShardSessions = *shard
	cfg.StateDir = *stateDir
	cfg.SnapshotEvery = *snapEvery
	cfg.SyncEvery = *syncEvery
	cfg.ClientListen = *clientListen
	cfg.MetricsListen = *metricsAddr
	srv, err := hybriddkg.Serve(cfg, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	if addr := srv.MetricsAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "node %d: metrics on http://%s/metrics\n", *cf.id, addr)
	}

	id := cf.id
	expected := make(map[uint64]bool)
	initial := make(map[uint64]bool)

	// Resume journaled sessions before submitting anything new.
	// Sessions that restore as already-completed fire their events
	// during Restore, so keep draining while waiting — with more
	// restored-done sessions than channel capacity, a blocking wait
	// would deadlock the transport event loop.
	var pendingResults []hybriddkg.SessionEvent
	var pendingFailures []hybriddkg.SessionFailure
	if *stateDir != "" {
		type restoreOutcome struct {
			sids []uint64
			err  error
		}
		restoreCh := make(chan restoreOutcome, 1)
		go func() {
			sids, err := srv.Restore()
			restoreCh <- restoreOutcome{sids: sids, err: err}
		}()
		var outcome restoreOutcome
		for waiting := true; waiting; {
			select {
			case outcome = <-restoreCh:
				waiting = false
			case res := <-srv.Events():
				pendingResults = append(pendingResults, res)
			case fl := <-srv.Failures():
				pendingFailures = append(pendingFailures, fl)
			}
		}
		if outcome.err != nil {
			return fmt.Errorf("restore from %s: %w", *stateDir, outcome.err)
		}
		for _, sid := range outcome.sids {
			expected[sid] = true
			initial[sid] = true
		}
		if len(outcome.sids) > 0 {
			fmt.Fprintf(os.Stderr, "node %d: restored %d session(s) from %s\n", *id, len(outcome.sids), *stateDir)
		}
	}
	for s := 0; s < *sessions; s++ {
		sid := *base + uint64(s)
		if expected[sid] {
			continue // already resumed from durable state
		}
		srv.Start(sid)
		expected[sid] = true
		initial[sid] = true
	}
	fmt.Fprintf(os.Stderr, "node %d serving on %s: %d session(s) starting at τ=%d (workers=%d)\n",
		*id, srv.Addr(), *sessions, *base, *workers)
	if addr := srv.ClientAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "node %d: client protocol on %s\n", *id, addr)
	}

	// Graceful shutdown: on SIGTERM/SIGINT, checkpoint every live
	// session (with -state-dir), close cleanly and exit 0. Without
	// durable state or a client endpoint the signals keep their
	// default fatal behaviour — exiting 0 with in-flight sessions and
	// nothing persisted would fool supervisor restart policies.
	sigCh := make(chan os.Signal, 2)
	stayUp := *linger || *clientListen != ""
	if *stateDir != "" || stayUp {
		signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
		defer signal.Stop(sigCh)
	}

	// Session requests: `start <id>` lines on stdin.
	requests := make(chan uint64, 16)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) == 2 && fields[0] == "start" {
				if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil && v > 0 {
					requests <- v
				}
			}
		}
	}()

	enc := json.NewEncoder(os.Stdout)
	completed := 0
	deadline := time.After(*cf.timeout)
	// dumpWire prints the cumulative bytes-on-wire books on clean
	// shutdown: total frames/bytes, then per message type and per
	// session, so operators can compare wire-format configurations
	// across runs.
	dumpWire := func() {
		ws, ok := srv.WireStats()
		if !ok {
			return
		}
		if *wireJSON != "" {
			// Machine-readable twin of the stderr text below, for
			// harnesses that diff wire books across runs.
			if data, err := json.MarshalIndent(ws, "", "  "); err == nil {
				if err := os.WriteFile(*wireJSON, append(data, '\n'), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "node %d: wire-stats-json %s: %v\n", *id, *wireJSON, err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "node %d: wire: %d frames, %d bytes sent\n", *id, ws.Frames, ws.FrameBytes)
		types := make([]int, 0, len(ws.MsgCount))
		for tt := range ws.MsgCount {
			types = append(types, int(tt))
		}
		sort.Ints(types)
		for _, ti := range types {
			tt := hybriddkg.WireMsgType(ti)
			fmt.Fprintf(os.Stderr, "node %d: wire:   type %-12v %6d msgs %10d bytes\n",
				*id, tt, ws.MsgCount[tt], ws.MsgBytes[tt])
		}
		sids := make([]uint64, 0, len(ws.SessionBytes))
		for sid := range ws.SessionBytes {
			sids = append(sids, uint64(sid))
		}
		sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
		for _, sv := range sids {
			sid := hybriddkg.SessionID(sv)
			fmt.Fprintf(os.Stderr, "node %d: wire:   session %d: %d frames %d bytes\n",
				*id, sv, ws.SessionFrames[sid], ws.SessionBytes[sid])
		}
	}
	handleResult := func(res hybriddkg.SessionEvent) error {
		out := map[string]any{
			"node":      *id,
			"session":   res.Session,
			"finalView": res.FinalView,
			"publicKey": res.PublicKey.String(),
			"share":     res.Share.Text(16),
			"qset":      res.Q,
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
		if expected[res.Session] {
			completed++
		}
		return nil
	}
	handleFailure := func(fl hybriddkg.SessionFailure) error {
		if initial[fl.Session] {
			// A failed initial session can never satisfy the exit
			// condition; fail fast instead of idling to -timeout.
			return fmt.Errorf("session %v failed: %w", fl.Session, fl.Err)
		}
		fmt.Fprintf(os.Stderr, "node %d: session %v rejected: %v\n", *id, fl.Session, fl.Err)
		delete(expected, fl.Session)
		return nil
	}
	// Events drained while waiting for Restore are processed first.
	for _, res := range pendingResults {
		if err := handleResult(res); err != nil {
			return err
		}
	}
	for _, fl := range pendingFailures {
		if err := handleFailure(fl); err != nil {
			return err
		}
	}
	announced := false
	for {
		if len(expected) > 0 && completed == len(expected) && !stayUp {
			fmt.Fprintf(os.Stderr, "node %d: all %d session(s) completed\n", *id, completed)
			dumpWire()
			return nil
		}
		if len(expected) > 0 && completed == len(expected) && stayUp && !announced {
			// Data-plane mode: keys are installed, keep serving
			// client requests until a signal or the deadline.
			fmt.Fprintf(os.Stderr, "node %d: all %d session(s) completed, serving data plane\n", *id, completed)
			announced = true
		}
		select {
		case res := <-srv.Events():
			if err := handleResult(res); err != nil {
				return err
			}
		case fl := <-srv.Failures():
			if err := handleFailure(fl); err != nil {
				return err
			}
		case v := <-requests:
			if expected[v] {
				continue
			}
			srv.Start(v)
			expected[v] = true
		case s := <-sigCh:
			if err := srv.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "node %d: checkpoint on %v: %v\n", *id, s, err)
			}
			st := srv.ServiceStats()
			fmt.Fprintf(os.Stderr, "node %d: %v: exiting cleanly (%d/%d sessions completed; data plane: %d requests, %d batches, %d peer items)\n",
				*id, s, completed, len(expected), st.Requests, st.Batches, st.PeerItems)
			dumpWire()
			return nil
		case <-deadline:
			if completed == len(expected) {
				// No outstanding sessions (e.g. -sessions 0 with no
				// stdin requests, or data-plane mode running out its
				// lease): the service ran out with all work done.
				fmt.Fprintf(os.Stderr, "node %d: deadline reached with all %d requested session(s) completed\n", *id, completed)
				dumpWire()
				return nil
			}
			return fmt.Errorf("timed out after %v with %d/%d sessions completed (engine: %+v)",
				*cf.timeout, completed, len(expected), srv.EngineStats())
		}
	}
}

// client exercises a serving cluster's data plane from outside: it
// holds no key material, connects to one node's -client-listen
// endpoint, requests operations under an installed key and verifies
// every result it can check publicly (signatures against the key,
// beacon outputs against their openings, decryptions by round-trip).
func client(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "", "a serving node's -client-listen address")
		key     = fs.Uint64("key", 1, "key (session) identifier")
		signMsg = fs.String("sign", "", "message to sign (empty = skip)")
		decrypt = fs.Bool("decrypt", false, "run an encrypt/decrypt round-trip")
		beacon  = fs.Uint64("beacon", 0, "open beacon rounds 1..N (0 = skip)")
		timeout = fs.Duration("timeout", time.Minute, "per-operation deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("missing -addr")
	}
	cl, err := hybriddkg.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	info, err := cl.KeyInfo(ctx, *key)
	if err != nil {
		return fmt.Errorf("keyinfo: %w", err)
	}
	n, t := cl.Roster()
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{
		"op": "keyinfo", "key": info.ID, "group": cl.GroupName(),
		"n": n, "t": t, "state": info.State.String(),
		"publicKey": info.PublicKey.String(),
	}); err != nil {
		return err
	}

	if *signMsg != "" {
		opCtx, opCancel := context.WithTimeout(context.Background(), *timeout)
		sig, err := cl.Sign(opCtx, *key, []byte(*signMsg))
		opCancel()
		if err != nil {
			return fmt.Errorf("sign: %w", err)
		}
		if !cl.Verify(info.PublicKey, []byte(*signMsg), sig) {
			return fmt.Errorf("sign: signature fails verification")
		}
		if err := enc.Encode(map[string]any{
			"op": "sign", "key": *key, "message": *signMsg,
			"r": sig.R.String(), "sigma": sig.Sigma.Text(16), "verified": true,
		}); err != nil {
			return err
		}
	}

	if *decrypt {
		plain, err := cl.RandomElement()
		if err != nil {
			return err
		}
		ct, err := cl.Encrypt(info.PublicKey, plain)
		if err != nil {
			return fmt.Errorf("encrypt: %w", err)
		}
		opCtx, opCancel := context.WithTimeout(context.Background(), *timeout)
		got, err := cl.Decrypt(opCtx, *key, ct)
		opCancel()
		if err != nil {
			return fmt.Errorf("decrypt: %w", err)
		}
		if !got.Equal(plain) {
			return fmt.Errorf("decrypt: round-trip mismatch")
		}
		if err := enc.Encode(map[string]any{
			"op": "decrypt", "key": *key, "roundTrip": true,
		}); err != nil {
			return err
		}
	}

	for round := uint64(1); round <= *beacon; round++ {
		opCtx, opCancel := context.WithTimeout(context.Background(), *timeout)
		out, err := cl.Beacon(opCtx, *key, round)
		opCancel()
		if err != nil {
			return fmt.Errorf("beacon round %d: %w", round, err)
		}
		if err := enc.Encode(map[string]any{
			"op": "beacon", "key": *key, "round": out.Round,
			"output": hex.EncodeToString(out.Output[:]), "verified": true,
		}); err != nil {
			return err
		}
	}
	return nil
}

// top is the one-shot operator view of a serving node: it fetches the
// introspection endpoint (/sessions, /keys, /metrics) and renders the
// session table, the key table and the scalar series as aligned text.
func top(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "", "a serving node's -metrics-listen address")
	showAll := fs.Bool("all", false, "print every series, not just nonzero ones")
	timeout := fs.Duration("timeout", 5*time.Second, "fetch deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("missing -addr")
	}
	cli := &http.Client{Timeout: *timeout}
	get := func(path string) ([]byte, error) {
		resp, err := cli.Get("http://" + *addr + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}

	raw, err := get("/sessions")
	if err != nil {
		return err
	}
	var sessions []struct {
		Session   uint64 `json:"sid"`
		State     string `json:"state"`
		View      int    `json:"view"`
		Leader    int64  `json:"leader"`
		LeaderChg int    `json:"leader_changes"`
		Events    int    `json:"events"`
		LastKind  string `json:"last_kind"`
		LastWhat  string `json:"last_detail"`
	}
	if err := json.Unmarshal(raw, &sessions); err != nil {
		return fmt.Errorf("parse /sessions: %w", err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "SESSION\tSTATE\tVIEW\tLEADER\tLDRCHG\tEVENTS\tLAST\n")
	for _, s := range sessions {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%s %s\n",
			s.Session, s.State, s.View, s.Leader, s.LeaderChg, s.Events, s.LastKind, s.LastWhat)
	}
	if len(sessions) == 0 {
		fmt.Fprintf(w, "(none)\t\t\t\t\t\t\n")
	}
	w.Flush()

	raw, err = get("/keys")
	if err != nil {
		return err
	}
	var keys []struct {
		ID          uint64 `json:"id"`
		State       string `json:"state"`
		QueueDepth  int    `json:"queue_depth"`
		Inflight    int    `json:"inflight"`
		Commitments int    `json:"commitments"`
		Requests    uint64 `json:"requests_total"`
	}
	if err := json.Unmarshal(raw, &keys); err != nil {
		return fmt.Errorf("parse /keys: %w", err)
	}
	fmt.Println()
	w = tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "KEY\tSTATE\tQUEUE\tINFLIGHT\tCOMMITS\tREQUESTS\n")
	for _, k := range keys {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n",
			k.ID, k.State, k.QueueDepth, k.Inflight, k.Commitments, k.Requests)
	}
	if len(keys) == 0 {
		fmt.Fprintf(w, "(none)\t\t\t\t\t\n")
	}
	w.Flush()

	raw, err = get("/metrics")
	if err != nil {
		return err
	}
	fmt.Println()
	w = tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "SERIES\tVALUE\n")
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") ||
			strings.Contains(line, "_bucket{") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if !*showAll && (line[sp+1:] == "0" || line[sp+1:] == "0.0") {
			continue
		}
		fmt.Fprintf(w, "%s\t%s\n", line[:sp], line[sp+1:])
	}
	return w.Flush()
}

func parsePeers(spec string) ([]hybriddkg.PeerAddr, error) {
	var out []hybriddkg.PeerAddr
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("bad peer spec %q (want id=host:port)", part)
		}
		var id int64
		if _, err := fmt.Sscanf(part[:eq], "%d", &id); err != nil {
			return nil, fmt.Errorf("bad peer id in %q", part)
		}
		out = append(out, hybriddkg.PeerAddr{ID: hybriddkg.NodeID(id), Addr: part[eq+1:]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty peer list")
	}
	return out, nil
}
