package transport

import (
	"fmt"

	"hybriddkg/internal/telemetry"
)

// RetryBacklog reports the coalescing layer's retry state: frames
// sealed but not yet written (peer connection failing) and their
// total bytes. Scrape-time only — it walks every destination queue.
func (n *Node) RetryBacklog() (frames int, bytes int) {
	n.mu.Lock()
	queues := make([]*destQueue, 0, len(n.outQ))
	for _, q := range n.outQ {
		queues = append(queues, q)
	}
	n.mu.Unlock()
	for _, q := range queues {
		q.mu.Lock()
		frames += len(q.backlog)
		bytes += q.backlogBytes
		q.mu.Unlock()
	}
	return frames, bytes
}

// RegisterMetrics exposes the node's send-side wire books and retry
// backlog as scrape-time telemetry samples, subsuming the WireStats
// text dump: frames and bytes on the wire, messages by count and
// bytes, coalesce flushes, retry-backlog depth, the early-frame
// buffer's books and per-session byte totals.
func (n *Node) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		ws := n.WireStats()
		emit(telemetry.Sample{Name: "transport_frames_total", Help: "Physical frames written", Kind: telemetry.KindCounter, Value: float64(ws.Frames)})
		emit(telemetry.Sample{Name: "transport_frame_bytes_total", Help: "Bytes on the wire including frame overhead", Kind: telemetry.KindCounter, Value: float64(ws.FrameBytes)})
		emit(telemetry.Sample{Name: "transport_coalesce_flushes_total", Help: "Batch frames sealed by the coalescing layer", Kind: telemetry.KindCounter, Value: float64(ws.CoalesceFlushes)})
		var msgs, msgBytes int64
		for _, c := range ws.MsgCount {
			msgs += int64(c)
		}
		for _, b := range ws.MsgBytes {
			msgBytes += b
		}
		emit(telemetry.Sample{Name: "transport_messages_total", Help: "Protocol envelopes sent", Kind: telemetry.KindCounter, Value: float64(msgs)})
		emit(telemetry.Sample{Name: "transport_message_bytes_total", Help: "Envelope payload bytes sent", Kind: telemetry.KindCounter, Value: float64(msgBytes)})
		frames, bytes := n.RetryBacklog()
		emit(telemetry.Sample{Name: "transport_retry_backlog_frames", Help: "Sealed frames awaiting retransmission", Kind: telemetry.KindGauge, Value: float64(frames)})
		emit(telemetry.Sample{Name: "transport_retry_backlog_bytes", Help: "Bytes awaiting retransmission", Kind: telemetry.KindGauge, Value: float64(bytes)})
		ds := n.DemuxStats()
		for _, c := range []struct {
			name, help string
			v          int
		}{
			{"held", "Frames held for a session not registered yet", ds.EarlyHeld},
			{"released", "Held frames handed to their session when it registered", ds.EarlyReleased},
			{"expired", "Held frames dropped because their session never registered in time", ds.EarlyExpired},
			{"overflow", "Early frames dropped because a per-session, per-sender or total budget was full", ds.EarlyOverflow},
		} {
			emit(telemetry.Sample{Name: "transport_early_" + c.name + "_total", Help: c.help, Kind: telemetry.KindCounter, Value: float64(c.v)})
		}
		for sid, b := range ws.SessionBytes {
			emit(telemetry.Sample{
				Name:  fmt.Sprintf("transport_session_bytes_total{session=%q}", fmt.Sprintf("%d", uint64(sid))),
				Help:  "Frame bytes attributed to one protocol session",
				Kind:  telemetry.KindCounter,
				Value: float64(b),
			})
		}
	})
}
