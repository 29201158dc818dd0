package orchestrator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/model"
)

// Checkpoint is a durable snapshot of everything a coordinator needs
// to resume after a crash or restart: the aggregation counters, the
// global model, and the server-side error-feedback residuals. Rounds
// in flight are not captured — a checkpoint is taken between rounds
// (the transport server does this after each commit), and a restore
// resumes at the next round boundary, which is exactly the semantics a
// dropped round already has.
type Checkpoint struct {
	// Commits is the number of committed aggregation steps.
	Commits int
	// Version is the global model version. A coordinator commits one
	// version per round, so it writes Version equal to Commits and
	// resumes only from a checkpoint where they are equal (the file
	// keeps both fields).
	Version int
	// Global is the committed global model.
	Global *model.StateDict
	// Residuals is the per-client error-feedback state, keyed by
	// client ID then tensor name (nil when the server keeps none).
	Residuals map[string]map[string][]float32
}

// Checkpoint captures the coordinator's committed state. It must be
// called between rounds (after Commit / outside StartRound..Commit);
// the round in flight, if any, is deliberately not captured. The
// caller attaches Residuals itself — residual state lives in the
// driver (transport server), not the coordinator.
func (c *Coordinator) Checkpoint() *Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Checkpoint{
		Commits: c.version, // each commit made one version
		Version: c.version,
		Global:  c.global,
	}
}

// NewCoordinatorFromCheckpoint builds a coordinator resuming from a
// checkpoint: the global model and the version (which numbers the next
// round) pick up where the snapshot left them. Every commit
// makes one version, so a checkpoint whose Commits and Version differ
// is ErrBadCheckpoint. The client registry starts empty — clients
// re-register on reconnect.
func NewCoordinatorFromCheckpoint(cfg Config, ck *Checkpoint) (*Coordinator, error) {
	if ck == nil {
		return nil, errors.New("orchestrator: nil checkpoint")
	}
	if ck.Commits != ck.Version {
		return nil, fmt.Errorf("%w: %d commits but model version %d", ErrBadCheckpoint, ck.Commits, ck.Version)
	}
	c, err := NewCoordinator(cfg, ck.Global)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.version = ck.Version
	c.mu.Unlock()
	return c, nil
}

// Checkpoint file format ("FSCK" v1):
//
//	magic "FSCK" | version byte 1
//	uvarint commits | uvarint modelVersion
//	uvarint len | MarshalStateDict(Global)
//	uvarint len | reserved blob, always empty (it held a deleted
//	    bound scheduler's state; a non-empty one is rejected)
//	uvarint nClients, then per client:
//	    string id, uvarint nTensors, then per tensor:
//	        string name, uvarint n, n × float32 LE
//	crc32c over everything above (big-endian trailer)
//
// Strings are uvarint length + bytes. The trailing CRC32C makes a
// torn or bit-rotted snapshot a load error instead of a silently
// wrong resume — the same Castagnoli polynomial the checksummed
// frame format uses.
const checkpointVersion = 1

var checkpointMagic = []byte("FSCK")

// ErrBadCheckpoint reports a snapshot file that is structurally
// invalid or failed its integrity check.
var ErrBadCheckpoint = errors.New("orchestrator: bad checkpoint")

// MarshalCheckpoint serializes a checkpoint to the FSCK v1 format.
func MarshalCheckpoint(ck *Checkpoint) ([]byte, error) {
	if ck == nil || ck.Global == nil {
		return nil, errors.New("orchestrator: cannot marshal nil checkpoint or global model")
	}
	global, err := core.MarshalStateDict(ck.Global)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: marshal global model: %w", err)
	}
	out := append([]byte(nil), checkpointMagic...)
	out = append(out, checkpointVersion)
	out = binary.AppendUvarint(out, uint64(ck.Commits))
	out = binary.AppendUvarint(out, uint64(ck.Version))
	out = binary.AppendUvarint(out, uint64(len(global)))
	out = append(out, global...)
	out = binary.AppendUvarint(out, 0) // the reserved blob
	out = binary.AppendUvarint(out, uint64(len(ck.Residuals)))
	for _, id := range sortedKeys(ck.Residuals) {
		res := ck.Residuals[id]
		out = appendCkString(out, id)
		out = binary.AppendUvarint(out, uint64(len(res)))
		for _, name := range sortedKeys(res) {
			data := res[name]
			out = appendCkString(out, name)
			out = binary.AppendUvarint(out, uint64(len(data)))
			for _, v := range data {
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
			}
		}
	}
	crc := crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli))
	out = binary.BigEndian.AppendUint32(out, crc)
	return out, nil
}

// UnmarshalCheckpoint parses and integrity-checks an FSCK v1 blob.
func UnmarshalCheckpoint(raw []byte) (*Checkpoint, error) {
	if len(raw) < len(checkpointMagic)+1+4 {
		return nil, fmt.Errorf("%w: truncated", ErrBadCheckpoint)
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	crc := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	if binary.BigEndian.Uint32(trailer) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	if string(body[:len(checkpointMagic)]) != string(checkpointMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if body[len(checkpointMagic)] != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, body[len(checkpointMagic)])
	}
	r := ckReader{buf: body[len(checkpointMagic)+1:]}
	ck := &Checkpoint{
		Commits: int(r.uvarint()),
		Version: int(r.uvarint()),
	}
	globalRaw := r.bytes(int(r.uvarint()))
	if n := r.uvarint(); n != 0 {
		return nil, fmt.Errorf("%w: %d-byte bound-scheduler state, which nothing restores", ErrBadCheckpoint, n)
	}
	nClients := int(r.uvarint())
	if nClients > 0 {
		ck.Residuals = make(map[string]map[string][]float32, nClients)
	}
	for i := 0; i < nClients && r.err == nil; i++ {
		id := r.string()
		nTensors := int(r.uvarint())
		res := make(map[string][]float32, nTensors)
		for j := 0; j < nTensors && r.err == nil; j++ {
			name := r.string()
			n := int(r.uvarint())
			data := make([]float32, 0, min(n, len(r.buf)/4))
			for k := 0; k < n && r.err == nil; k++ {
				data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(r.bytes(4))))
			}
			res[name] = data
		}
		ck.Residuals[id] = res
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, r.err)
	}
	global, err := core.UnmarshalStateDict(globalRaw)
	if err != nil {
		return nil, fmt.Errorf("%w: global model: %v", ErrBadCheckpoint, err)
	}
	ck.Global = global
	return ck, nil
}

// SaveCheckpoint atomically writes the checkpoint to path: marshal,
// write to a temp file in the same directory, fsync, rename. A crash
// at any point leaves either the previous snapshot or the new one,
// never a torn file.
func SaveCheckpoint(path string, ck *Checkpoint) (err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			obsCkptFailures.With("save").Inc()
			return
		}
		obsCkptSaveSeconds.Observe(time.Since(start).Seconds())
	}()
	raw, err := MarshalCheckpoint(ck)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("orchestrator: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("orchestrator: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("orchestrator: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("orchestrator: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("orchestrator: install checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and verifies a snapshot written by
// SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	start := time.Now()
	raw, err := os.ReadFile(path)
	if err != nil {
		obsCkptFailures.With("restore").Inc()
		return nil, fmt.Errorf("orchestrator: read checkpoint: %w", err)
	}
	ck, err := UnmarshalCheckpoint(raw)
	if err != nil {
		obsCkptFailures.With("restore").Inc()
		return nil, err
	}
	obsCkptLoadSeconds.Observe(time.Since(start).Seconds())
	return ck, nil
}

func appendCkString(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

// ckReader is a cursor over a checkpoint body that latches the first
// structural error instead of forcing error checks at every read.
type ckReader struct {
	buf []byte
	err error
}

func (r *ckReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errors.New("truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *ckReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = errors.New("truncated field")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *ckReader) string() string { return string(r.bytes(int(r.uvarint()))) }

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
