package orchestrator

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/model"
)

// Checkpoint is a durable snapshot of everything a coordinator needs
// to resume after a crash or restart: the commit counter and the
// global model. Rounds in flight are not captured — a checkpoint is
// taken between rounds (the transport server does this after each
// commit), and a restore resumes at the next round boundary, which is
// exactly the semantics a dropped round already has.
type Checkpoint struct {
	// Commits is the number of committed rounds. Every commit makes
	// one model version, so it is also the global model's version.
	Commits int
	// Global is the committed global model.
	Global *model.StateDict
}

// Checkpoint captures the coordinator's committed state. It must be
// called between rounds (after Commit / outside StartRound..Commit);
// the round in flight, if any, is deliberately not captured.
func (c *Coordinator) Checkpoint() *Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Checkpoint{Commits: c.version, Global: c.global}
}

// NewCoordinatorFromCheckpoint builds a coordinator resuming from a
// checkpoint: the global model and the version (which numbers the next
// round) pick up where the snapshot left them. The client registry
// starts empty — clients re-register on reconnect.
func NewCoordinatorFromCheckpoint(cfg Config, ck *Checkpoint) (*Coordinator, error) {
	if ck == nil {
		return nil, errors.New("orchestrator: nil checkpoint")
	}
	c, err := NewCoordinator(cfg, ck.Global)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.version = ck.Commits
	c.mu.Unlock()
	return c, nil
}

// Checkpoint file format ("FSCK" v1):
//
//	magic "FSCK" | version byte 1
//	uvarint commits | uvarint commits again (the model version, which
//	    every commit advances with it; copies that differ are rejected)
//	uvarint len | MarshalStateDict(Global)
//	uvarint len | reserved blob, always empty (it held a deleted
//	    bound scheduler's state; a non-empty one is rejected)
//	uvarint 0 (the client count of a deleted error-feedback residual
//	    section; a non-zero count is rejected)
//	crc32c over everything above (big-endian trailer)
//
// Every uvarint is minimal and every field is in its canonical
// encoding, so a blob that loads re-marshals to the same bytes. The
// trailing CRC32C makes a torn or bit-rotted snapshot a load error
// instead of a silently wrong resume — the same Castagnoli polynomial
// the checksummed frame format uses.
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
	out = binary.AppendUvarint(out, uint64(ck.Commits)) // the model version
	out = binary.AppendUvarint(out, uint64(len(global)))
	out = append(out, global...)
	out = binary.AppendUvarint(out, 0) // the reserved blob
	out = binary.AppendUvarint(out, 0) // the residual client count
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
	commits, version := r.uvarint(), r.uvarint()
	globalRaw := r.bytes(r.uvarint())
	bound, residuals := r.uvarint(), r.uvarint()
	switch {
	case r.err != nil:
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, r.err)
	case len(r.buf) != 0:
		return nil, fmt.Errorf("%w: %d bytes after the last section", ErrBadCheckpoint, len(r.buf))
	case commits != version:
		return nil, fmt.Errorf("%w: %d commits but model version %d", ErrBadCheckpoint, commits, version)
	case commits > math.MaxInt:
		return nil, fmt.Errorf("%w: %d commits overflow int", ErrBadCheckpoint, commits)
	case bound != 0:
		return nil, fmt.Errorf("%w: %d-byte bound-scheduler state, which nothing restores", ErrBadCheckpoint, bound)
	case residuals != 0:
		return nil, fmt.Errorf("%w: residuals for %d clients, which nothing restores", ErrBadCheckpoint, residuals)
	}
	global, err := core.UnmarshalStateDict(globalRaw)
	if err != nil {
		return nil, fmt.Errorf("%w: global model: %v", ErrBadCheckpoint, err)
	}
	// The state-dict decoder accepts non-minimal headers; a checkpoint
	// holds only the canonical encoding.
	if canon, err := core.MarshalStateDict(global); err != nil || !bytes.Equal(canon, globalRaw) {
		return nil, fmt.Errorf("%w: global model is not canonically encoded", ErrBadCheckpoint)
	}
	return &Checkpoint{Commits: int(commits), Global: global}, nil
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
	if n != core.UvarintLen(v) {
		r.err = errors.New("non-minimal varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *ckReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.err = errors.New("truncated field")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}
