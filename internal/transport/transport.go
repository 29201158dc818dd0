// Package transport runs federated rounds over real TCP sockets with a
// pipelined streaming protocol, optionally rate-limited to emulate
// constrained WANs. It is the wire-level counterpart of the in-process
// simulation in package fl. The paper's APPFL deployment used gRPC; the
// protocol here is a minimal stdlib-only equivalent.
//
// There is one round engine (tier.go): a connection registry with a
// join loop, a concurrent downlink broadcast, a concurrent gather that
// decodes each uplink straight into a sharded aggregator and cuts
// stragglers at a deadline, and the round's trace span. Both servers
// are thin owners of it that differ only in their sink — where a
// round's inputs come from, who participates, what a drop notifies and
// what finishing means. Orchestrated mints the inputs, samples
// participants from an orchestrator.Coordinator and commits the new
// global model; Edge relays its upstream's inputs to every region
// member and finishes by forwarding the region's partial sum. Tiers
// nest: an edge is one participant of the tier above it.
//
// Messages are a type byte followed by a self-delimiting streamed
// body: the global model streams out entry by entry, and client
// updates stream through the codec's EncodeTo/DecodeFrom pair, so a
// FedSZ uplink pushes each tensor's section onto the wire while the
// next tensor is still compressing (and the server decompresses and
// folds sections as they arrive). Neither side ever materializes the
// full wire image of an update, and compression time hides behind
// transmission time — the system-level payoff of the paper's Eqn. 1.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/model"
)

// MsgType identifies a message.
type MsgType uint8

// Protocol messages.
const (
	MsgJoin        MsgType = iota + 1 // client → server: hello
	MsgGlobalModel                    // server → client: streamed global state
	MsgUpdate                         // client → server: sample count + streamed update + empty prior trailer
	MsgShutdown                       // server → client: training complete
	_                                 // reserved: was a round error-bound directive; readers reject it
	MsgJoinEdge                       // edge → server: hello from a regional edge aggregator
	MsgPartialSum                     // edge → server: one region's folded partial sum (hier wire format)
	_                                 // reserved: was a merged plan prior; readers reject it
	MsgRoundTrace                     // server → client/edge: round trace context (uvarint len + trace ID, uvarint round)
	MsgGlobalFrame                    // server → client/edge: the global state as one frame of the tier's codec (the error-bounded downlink)

	msgTypes // one past the last message type
)

// connStream bundles the buffered halves of one connection. The
// reader is shared by every streaming decode on the connection, so
// readahead stays coherent across messages; the writer batches the
// many small section writes of a streamed frame into few syscalls and
// is flushed once per message.
type connStream struct {
	conn net.Conn
	cc   *countingConn // the byte-counting layer under the buffers
	r    *bufio.Reader
	w    *bufio.Writer
}

func newConnStream(conn net.Conn) *connStream {
	cc := &countingConn{Conn: conn}
	return &connStream{
		conn: conn,
		cc:   cc,
		r:    bufio.NewReaderSize(cc, 64<<10),
		w:    bufio.NewWriterSize(cc, 64<<10),
	}
}

// bytesRead and bytesWritten report the socket-level byte totals for
// this connection (round spans use the deltas across a round).
func (cs *connStream) bytesRead() int64    { return cs.cc.rx.Load() }
func (cs *connStream) bytesWritten() int64 { return cs.cc.tx.Load() }

// writeMsg writes the type byte, streams the body (nil for bodyless
// messages) and flushes. Each connection has a single writer and the
// buffer drains exactly once per message, so the pre/post tx delta
// attributes this message's socket bytes to its type.
func (cs *connStream) writeMsg(t MsgType, body func(w io.Writer) error) error {
	txBefore := cs.cc.tx.Load()
	if err := cs.w.WriteByte(byte(t)); err != nil {
		return fmt.Errorf("transport: write message type: %w", err)
	}
	if body != nil {
		if err := body(cs.w); err != nil {
			return err
		}
	}
	if err := cs.w.Flush(); err != nil {
		return fmt.Errorf("transport: flush message: %w", err)
	}
	frameCounter(t, false).Inc()
	msgTxCounter(t).Add(cs.cc.tx.Load() - txBefore)
	return nil
}

// readMsgType reads the next message's type byte.
func (cs *connStream) readMsgType() (MsgType, error) {
	b, err := cs.r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("transport: read message type: %w", err)
	}
	frameCounter(MsgType(b), true).Inc()
	return MsgType(b), nil
}

// MaxFrameSize bounds a frame payload (1 GiB) to fail fast on
// corruption.
const MaxFrameSize = 1 << 30

// writeRoundTrace writes a MsgRoundTrace body: length-prefixed trace
// ID plus the round number. The coordinator stamps one per round and
// broadcasts it ahead of the model so every tier tags its spans with
// the same ID; peers that don't trace drain and ignore it.
func writeRoundTrace(w io.Writer, traceID string, round int) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(traceID)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("transport: write trace id length: %w", err)
	}
	if _, err := io.WriteString(w, traceID); err != nil {
		return fmt.Errorf("transport: write trace id: %w", err)
	}
	n = binary.PutUvarint(hdr[:], uint64(round))
	if _, err := w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("transport: write trace round: %w", err)
	}
	return nil
}

// readRoundTrace reads a writeRoundTrace body.
func readRoundTrace(r *bufio.Reader) (traceID string, round int, err error) {
	n, err := binary.ReadUvarint(r)
	if err != nil || n > 256 {
		return "", 0, fmt.Errorf("%w: trace id length", ErrProtocol)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(r, id); err != nil {
		return "", 0, fmt.Errorf("transport: read trace id: %w", err)
	}
	rd, err := binary.ReadUvarint(r)
	if err != nil || rd > math.MaxInt32 {
		return "", 0, fmt.Errorf("%w: trace round", ErrProtocol)
	}
	return string(id), int(rd), nil
}

// maxPriorSize caps MsgUpdate's prior trailer. This module's clients
// send it empty (one 0x00 length byte); it once carried a plan prior a
// few tens of bytes per tensor long, so 1 MiB is generous for any
// model.
const maxPriorSize = 1 << 20

// emptyPrior is the prior trailer this module's clients send.
var emptyPrior = []byte{0}

// skipPrior reads MsgUpdate's length-prefixed prior trailer and
// discards it, failing on a length past maxPriorSize or a short body.
func skipPrior(r *bufio.Reader) error {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("%w: prior length", ErrProtocol)
	}
	if n > maxPriorSize {
		return fmt.Errorf("%w: prior size %d", ErrProtocol, n)
	}
	if _, err := r.Discard(int(n)); err != nil {
		return fmt.Errorf("transport: read prior: %w", err)
	}
	return nil
}

// ErrProtocol reports a framing violation.
var ErrProtocol = errors.New("transport: protocol error")

// downlink is one round's inputs as they travel down the tree, in wire
// order: MsgRoundTrace → the model, as MsgGlobalModel (raw) or
// MsgGlobalFrame (one frame of the tier's codec). Only the model is
// mandatory; it closes the sequence.
type downlink struct {
	traceID string // round trace context ("" from a pre-tracing upstream)
	round   int    // the coordinator's round number, carried by the trace
	global  *model.StateDict
	// frame, when non-nil, is the model as it travels this round: the
	// tier's Eqn. 1 gate encoded global once (tier.frameDownlink), or an
	// edge received these bytes and relays them untouched, so every leaf
	// under every region decodes the same bits. It aliases a buffer the
	// tier reuses next round. Below the tier that encoded it, global is
	// the frame's decoded image, not the exact model.
	frame []byte
}

// writeTo sends the round's inputs on cs, one message per present
// field. The trace context leads so every tier below tags its spans
// with it. The global dict is immutable for the round, safe to stream
// from many goroutines.
func (d *downlink) writeTo(cs *connStream) error {
	if d.traceID != "" {
		err := cs.writeMsg(MsgRoundTrace, func(w io.Writer) error {
			return writeRoundTrace(w, d.traceID, d.round)
		})
		if err != nil {
			return err
		}
	}
	if d.frame != nil {
		return cs.writeMsg(MsgGlobalFrame, func(w io.Writer) error {
			_, err := w.Write(d.frame)
			return err
		})
	}
	return cs.writeMsg(MsgGlobalModel, func(w io.Writer) error {
		return core.MarshalStateDictTo(w, d.global)
	})
}

// readDownlink reads the next round's inputs from cs — what writeTo
// sent — and reports done instead when the upstream sent MsgShutdown.
// Leaf clients and edges both sit behind it. prev, when non-nil, is a
// model the caller is done with (a leaf's previous global): the new one
// is decoded into its storage wherever the shapes still agree, and prev
// must not be read again. A MsgGlobalFrame is decoded through codec —
// the tier's, which is the caller's too — and, when relay is non-nil,
// its bytes are also kept there (replacing what relay held) and returned
// as d.frame for an edge to pass on. A model cut short leaves prev
// partly overwritten either way; the session ends with the error.
func readDownlink(cs *connStream, codec fl.Codec, prev *model.StateDict, relay *bytes.Buffer) (d downlink, done bool, err error) {
	for {
		var t MsgType
		if t, err = cs.readMsgType(); err != nil {
			return d, false, err
		}
		switch t {
		case MsgShutdown:
			return d, true, nil
		case MsgRoundTrace:
			if d.traceID, d.round, err = readRoundTrace(cs.r); err != nil {
				return d, false, err
			}
		case MsgGlobalModel:
			d.global, err = core.UnmarshalStateDictInto(cs.r, prev)
			return d, false, err
		case MsgGlobalFrame:
			if relay == nil {
				d.global, err = fl.DecodeInto(codec, cs.r, prev)
				return d, false, err
			}
			relay.Reset()
			d.global, err = fl.DecodeInto(codec, &teeReader{r: cs.r, to: relay}, prev)
			d.frame = relay.Bytes()
			return d, false, err
		default:
			return d, false, fmt.Errorf("%w: unexpected message %v", ErrProtocol, t)
		}
	}
}

// teeReader copies what a frame decoder reads into to. It forwards
// ReadByte as well as Read: handed a plain io.Reader the decoder would
// buffer it, read ahead, and take bytes of the next message with it.
type teeReader struct {
	r  *bufio.Reader
	to *bytes.Buffer
}

func (t *teeReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.to.Write(p[:n])
	return n, err
}

func (t *teeReader) ReadByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err == nil {
		t.to.WriteByte(b)
	}
	return b, err
}

// TrainFunc produces a client's update for one round: given the global
// model it returns the locally trained state dict and sample count.
//
// The session owns global and lends it for the round: it is valid until
// the update this call returns has been sent, after which the next
// round's model is decoded into the same tensors. A TrainFunc may train
// in place and return global itself; one that wants a round's model
// afterwards keeps a Clone.
type TrainFunc func(round int, global *model.StateDict) (*model.StateDict, int, error)

// RunClient participates in federated rounds over conn until the
// server sends MsgShutdown. Updates stream through codec.EncodeTo:
// each tensor's compressed section leaves as soon as it is ready, so
// on a slow uplink compression time hides behind transmission time.
func RunClient(conn net.Conn, codec fl.Codec, train TrainFunc) error {
	if codec == nil {
		codec = fl.PlainCodec{}
	}
	_, err := runClientSession(newConnStream(conn), codec, train, 0, 0)
	return err
}

// runClientSession joins and runs federated rounds on one connection
// until MsgShutdown (nil error) or a failure. It returns the number
// of rounds whose update was fully written, so a resilient caller can
// distinguish a session that made progress from one that never got
// off the ground; train sees round numbers starting at baseRound.
// When writeTimeout > 0 every protocol write runs under a deadline.
func runClientSession(cs *connStream, codec fl.Codec, train TrainFunc, baseRound int, writeTimeout time.Duration) (int, error) {
	write := func(t MsgType, payload func(io.Writer) error) error {
		if writeTimeout > 0 {
			_ = cs.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			defer cs.conn.SetWriteDeadline(time.Time{})
		}
		return cs.writeMsg(t, payload)
	}
	if err := write(MsgJoin, nil); err != nil {
		return 0, err
	}
	// The session holds one model: each round's global lands in the dict
	// the previous round left behind (its update is on the wire by then).
	var global *model.StateDict
	for round := 0; ; round++ {
		// Leaf clients have no spans of their own, so the trace context
		// is drained and dropped here.
		down, done, err := readDownlink(cs, codec, global, nil)
		if done || err != nil {
			return round, err
		}
		global = down.global
		update, samples, err := train(baseRound+round, down.global)
		if err != nil {
			return round, fmt.Errorf("transport: client train: %w", err)
		}
		err = write(MsgUpdate, func(w io.Writer) error {
			var hdr [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(hdr[:], uint64(samples))
			if _, err := w.Write(hdr[:n]); err != nil {
				return fmt.Errorf("transport: write sample count: %w", err)
			}
			if _, err := codec.EncodeTo(w, update); err != nil {
				return err
			}
			_, err := w.Write(emptyPrior)
			return err
		})
		if err != nil {
			return round, err
		}
	}
}
