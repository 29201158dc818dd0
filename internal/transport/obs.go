package transport

import (
	"net"
	"sync/atomic"

	"fedsz/internal/obs"
)

// Transport metrics: bytes on the wire by direction, frames by
// message type and direction, and the resilient-client retry plane.
//
// Byte accounting happens in a net.Conn wrapper underneath the bufio
// pair, so it sees exactly what crosses the socket (including framing
// overhead the message layer never materializes). Per-message-type TX
// bytes are exact — each connection has a single writer and writeMsg
// flushes once per message, so a pre/post-flush delta attributes every
// buffered byte to its message. RX bytes are only counted as a
// direction total: the 64 KiB read buffer prefetches across message
// boundaries, so attributing received bytes to a type would be a
// guess. Frame counts carry the per-type RX signal instead.
var (
	obsBytes = obs.Default.CounterVec("fedsz_transport_bytes_total",
		"Bytes crossing TCP sockets, by direction.", "dir")
	obsFrames = obs.Default.CounterVec("fedsz_transport_frames_total",
		"Protocol messages processed, by message type and direction.", "type", "dir")
	obsMsgTxBytes = obs.Default.CounterVec("fedsz_transport_msg_tx_bytes_total",
		"Bytes written per protocol message type (socket-level, measured at flush).", "type")

	obsBytesRx = obsBytes.With("rx")
	obsBytesTx = obsBytes.With("tx")

	// Resilient-client retry plane (satellite: these events used to be
	// silent unless a Logf callback was wired).
	obsClientSessions = obs.Default.Counter("fedsz_client_sessions_total",
		"Client sessions started (first connection and every reconnect).")
	obsClientRetries = obs.Default.Counter("fedsz_client_retries_total",
		"Session failures that triggered a retry.")
	obsClientReconnects = obs.Default.Counter("fedsz_client_reconnects_total",
		"Successful re-dials after a session failure.")
	obsClientBackoffNs = obs.Default.Counter("fedsz_client_backoff_ns_total",
		"Nanoseconds spent sleeping in retry backoff.")
	obsClientGiveups = obs.Default.Counter("fedsz_client_giveups_total",
		"Clients that exhausted their retry budget without progress.")

	// Edge-tier fan-in.
	obsEdgeMembers = obs.Default.Gauge("fedsz_edge_members",
		"Clients currently joined to this edge aggregator.")
	obsEdgeRounds = obs.Default.Counter("fedsz_edge_rounds_total",
		"Regional rounds folded and forwarded upstream.")
	obsEdgeEmptyRounds = obs.Default.Counter("fedsz_edge_empty_rounds_total",
		"Regional rounds withdrawn upstream because no member update survived.")
)

// String names a protocol message for metrics labels and logs.
func (t MsgType) String() string {
	switch t {
	case MsgJoin:
		return "join"
	case MsgGlobalModel:
		return "global_model"
	case MsgUpdate:
		return "update"
	case MsgShutdown:
		return "shutdown"
	case MsgJoinEdge:
		return "join_edge"
	case MsgPartialSum:
		return "partial_sum"
	case MsgRoundTrace:
		return "round_trace"
	case MsgGlobalFrame:
		return "global_frame"
	default:
		return "unknown"
	}
}

// Frame counters are pre-resolved per (type, dir) at init so the
// per-message cost is one atomic increment, no map lookups.
var (
	framesRx [msgTypes]*obs.Counter
	framesTx [msgTypes]*obs.Counter
	msgTxVec [msgTypes]*obs.Counter
)

func init() {
	for t := MsgType(0); t < msgTypes; t++ {
		name := t.String()
		framesRx[t] = obsFrames.With(name, "rx")
		framesTx[t] = obsFrames.With(name, "tx")
		msgTxVec[t] = obsMsgTxBytes.With(name)
	}
}

func frameCounter(t MsgType, rx bool) *obs.Counter {
	if int(t) >= len(framesRx) {
		t = 0 // "unknown"
	}
	if rx {
		return framesRx[t]
	}
	return framesTx[t]
}

func msgTxCounter(t MsgType) *obs.Counter {
	if int(t) >= len(msgTxVec) {
		t = 0
	}
	return msgTxVec[t]
}

// countingConn counts socket-level bytes into per-connection atomics
// (feeding round-span per-client accounting) and the global direction
// totals. It sits underneath the bufio pair, so buffered writes are
// counted when they flush and readahead is counted when it lands.
type countingConn struct {
	net.Conn
	rx, tx atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rx.Add(int64(n))
		obsBytesRx.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.tx.Add(int64(n))
		obsBytesTx.Add(int64(n))
	}
	return n, err
}
