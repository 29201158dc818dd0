// Package model provides the PyTorch-state-dict analogue that FedSZ
// operates on: an ordered collection of named parameter tensors and
// non-tensor metadata, plus shape-exact builders for the three
// architectures the paper evaluates (AlexNet, MobileNetV2, ResNet50)
// with realistic "pretrained-like" weight distributions.
package model

import (
	"fmt"
	"strings"

	"fedsz/internal/tensor"
)

// DType identifies an entry's element type.
type DType int

const (
	// Float32 entries carry a tensor.
	Float32 DType = iota + 1
	// Int64 entries carry integer metadata (e.g. BatchNorm's
	// num_batches_tracked).
	Int64
)

// Entry is one state-dict item.
type Entry struct {
	Name   string
	DType  DType
	Tensor *tensor.Tensor // set when DType == Float32
	Ints   []int64        // set when DType == Int64

	// Redo marks a lent entry: a streaming decoder reconstructed Tensor
	// into scratch it reuses, so Tensor is valid only until the emit
	// callback that received the entry returns; a consumer that needs
	// the values again keeps Redo. Nil on an owned entry, whose Tensor
	// stays valid and is its own redo source.
	Redo Redoer
}

// Redoer reproduces a lent tensor from what its decoder kept of it.
type Redoer interface {
	// Redo reconstructs the same values, bit for bit, and lends them to
	// use until it returns. It returns use's error, or its own, without
	// calling use, when the values cannot be reproduced.
	Redo(use func(data []float32) error) error
}

// NumElements returns the entry's element count.
func (e Entry) NumElements() int {
	switch e.DType {
	case Float32:
		if e.Tensor == nil {
			return 0
		}
		return e.Tensor.NumElements()
	case Int64:
		return len(e.Ints)
	default:
		return 0
	}
}

// SizeBytes returns the entry's payload size.
func (e Entry) SizeBytes() int {
	switch e.DType {
	case Float32:
		return e.NumElements() * 4
	case Int64:
		return e.NumElements() * 8
	default:
		return 0
	}
}

// IsWeightNamed reports whether the entry name contains "weight" —
// the name test of the paper's Algorithm 1 line 4.
func (e Entry) IsWeightNamed() bool { return strings.Contains(e.Name, "weight") }

// StateDict is an insertion-ordered map of entries, mirroring
// collections.OrderedDict semantics of torch state_dicts.
type StateDict struct {
	entries []Entry
	index   map[string]int
}

// NewStateDict returns an empty state dict.
func NewStateDict() *StateDict {
	return &StateDict{index: make(map[string]int)}
}

// Add appends an entry; duplicate names and lent entries are rejected.
func (sd *StateDict) Add(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("model: empty entry name")
	}
	if _, ok := sd.index[e.Name]; ok {
		return fmt.Errorf("model: duplicate entry %q", e.Name)
	}
	if e.DType != Float32 && e.DType != Int64 {
		return fmt.Errorf("model: entry %q has invalid dtype %d", e.Name, e.DType)
	}
	if e.Redo != nil {
		return fmt.Errorf("model: entry %q is lent: its tensor dies with the emit call, clone it to keep it", e.Name)
	}
	sd.index[e.Name] = len(sd.entries)
	sd.entries = append(sd.entries, e)
	return nil
}

// Get returns the entry with the given name.
func (sd *StateDict) Get(name string) (Entry, bool) {
	i, ok := sd.index[name]
	if !ok {
		return Entry{}, false
	}
	return sd.entries[i], true
}

// Len returns the number of entries.
func (sd *StateDict) Len() int { return len(sd.entries) }

// At returns the i-th entry in insertion order, without Entries' copy.
func (sd *StateDict) At(i int) Entry { return sd.entries[i] }

// Entries returns the entries in insertion order. The returned slice
// is a copy; the tensors are shared.
func (sd *StateDict) Entries() []Entry {
	return append([]Entry(nil), sd.entries...)
}

// Names returns entry names in insertion order.
func (sd *StateDict) Names() []string {
	out := make([]string, len(sd.entries))
	for i, e := range sd.entries {
		out[i] = e.Name
	}
	return out
}

// NumElements returns the total element count across entries.
func (sd *StateDict) NumElements() int64 {
	var n int64
	for _, e := range sd.entries {
		n += int64(e.NumElements())
	}
	return n
}

// SizeBytes returns the total payload size across entries — the
// uncompressed client-update size S of the paper's Eqn. 1.
func (sd *StateDict) SizeBytes() int64 {
	var n int64
	for _, e := range sd.entries {
		n += int64(e.SizeBytes())
	}
	return n
}

// Clone returns a deep copy of the state dict.
func (sd *StateDict) Clone() *StateDict {
	out := NewStateDict()
	for _, e := range sd.entries {
		cp := e
		if e.Tensor != nil {
			cp.Tensor = e.Tensor.Clone()
		}
		if e.Ints != nil {
			cp.Ints = append([]int64(nil), e.Ints...)
		}
		if err := out.Add(cp); err != nil {
			panic(err) // impossible: source was valid
		}
	}
	return out
}

// FlatWeights concatenates all Float32 entries into one slice in
// insertion order — used by the Fig. 2/3 characterizations.
func (sd *StateDict) FlatWeights() []float32 {
	var n int
	for _, e := range sd.entries {
		if e.DType == Float32 {
			n += e.Tensor.NumElements()
		}
	}
	out := make([]float32, 0, n)
	for _, e := range sd.entries {
		if e.DType == Float32 {
			out = append(out, e.Tensor.Data()...)
		}
	}
	return out
}
