package transport

import (
	"math/big"
	"sync"
	"testing"
	"time"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/vss"
)

// chanSink hands every delivered message to a channel.
type chanSink chan msg.Body

func (c chanSink) HandleMessage(_ msg.NodeID, body msg.Body) { c <- body }
func (chanSink) HandleTimer(uint64)                          {}
func (chanSink) HandleRecover()                              {}

// coalesceLink starts a coalescing sender (node 1) and a receiver
// (node 2) whose default-session messages land on the returned channel.
func coalesceLink(t *testing.T) (*Node, *Node, chanSink) {
	t.Helper()
	codec, secret := fuzzCodec(t), []byte("coalesce-link")
	got := make(chanSink, 512)
	recv, err := Listen(Config{Self: 2, Listen: "127.0.0.1:0", Codec: codec, Secret: secret, Handler: got})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	send, err := Listen(Config{
		Self: 1, Listen: "127.0.0.1:0", Peers: []Peer{{ID: 2, Addr: recv.Addr()}},
		Codec: codec, Secret: secret, Coalesce: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	return send, recv, got
}

// share tags a test envelope with its sender and sequence number.
func share(sender, seq int) *vss.RecShareMsg {
	return &vss.RecShareMsg{Session: vss.SessionID{Dealer: msg.NodeID(sender), Tau: uint64(seq)}, Share: big.NewInt(int64(seq + 1))}
}

// receive takes want messages off got; the deadline only keeps a lost
// message from hanging the test.
func receive(t *testing.T, got chanSink, want int) []*vss.RecShareMsg {
	t.Helper()
	out := make([]*vss.RecShareMsg, 0, want)
	deadline := time.After(20 * time.Second)
	for len(out) < want {
		select {
		case body := <-got:
			out = append(out, body.(*vss.RecShareMsg))
		case <-deadline:
			t.Fatalf("delivered %d/%d messages", len(out), want)
		}
	}
	return out
}

// TestCoalesceQueuedBeforeFlushLeaveAsOneFrame: the flush goroutine the
// first envelope starts takes every envelope queued before it gets the
// queue's lock — here, k envelopes queued while the test holds that
// lock, as a sender does while a frame is being written — and they
// leave as one batch frame, in order.
func TestCoalesceQueuedBeforeFlushLeaveAsOneFrame(t *testing.T) {
	const k = 12
	send, _, got := coalesceLink(t)
	q := send.destQ(2)
	q.mu.Lock()
	for i := 0; i < k; i++ {
		m := share(1, i)
		payload, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		send.queueLocked(2, q, 0, pendingEnv{typ: m.MsgType(), payload: payload})
	}
	if !q.flushing || q.retry != nil || len(q.envs) != k {
		t.Fatalf("before unlock: flushing=%v retry=%v queued=%d", q.flushing, q.retry != nil, len(q.envs))
	}
	q.mu.Unlock()
	for i, m := range receive(t, got, k) {
		if m.Session.Tau != uint64(i) {
			t.Fatalf("message %d arrived at position %d", m.Session.Tau, i)
		}
	}
	if ws := send.WireStats(); ws.Frames != 1 || ws.CoalesceFlushes != 1 {
		t.Fatalf("%d envelopes left in %d frames (%d flushes), want 1", k, ws.Frames, ws.CoalesceFlushes)
	}
}

// TestCoalesceIdleLinkFlushesWithoutTimer: one envelope on an idle link
// starts its flush at once; no timer is armed for it to wait on.
func TestCoalesceIdleLinkFlushesWithoutTimer(t *testing.T) {
	send, _, got := coalesceLink(t)
	send.Send(2, share(1, 0))
	q := send.destQ(2)
	q.mu.Lock()
	armed, pending := q.retry != nil, q.flushing || len(q.envs) == 0
	q.mu.Unlock()
	if armed || !pending {
		t.Fatalf("after one send: retry timer armed=%v, flush started=%v", armed, pending)
	}
	receive(t, got, 1)
	if ws := send.WireStats(); ws.Frames != 1 {
		t.Fatalf("one envelope left in %d frames", ws.Frames)
	}
}

// TestCoalesceConcurrentSendersKeepOrder: senders racing on one
// destination, each in its own session so that session switches seal
// frames between them, see their own messages delivered in the order
// they sent them.
func TestCoalesceConcurrentSendersKeepOrder(t *testing.T) {
	const senders, each = 4, 60
	send, recv, got := coalesceLink(t)
	ports := make([]*SessionPort, senders)
	for g := range ports {
		sid := msg.SessionID(g + 1)
		if _, err := recv.RegisterSession(sid, got); err != nil {
			t.Fatal(err)
		}
		port, err := send.RegisterSession(sid, chanSink(nil))
		if err != nil {
			t.Fatal(err)
		}
		ports[g] = port
	}
	var wg sync.WaitGroup
	for g, port := range ports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				port.Send(2, share(g+1, i))
			}
		}()
	}
	wg.Wait()
	next := make(map[msg.NodeID]uint64)
	for _, m := range receive(t, got, senders*each) {
		if m.Session.Tau != next[m.Session.Dealer] {
			t.Fatalf("sender %d: message %d arrived, want %d", m.Session.Dealer, m.Session.Tau, next[m.Session.Dealer])
		}
		next[m.Session.Dealer]++
	}
}
