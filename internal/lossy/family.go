package lossy

import (
	"fmt"
	"sort"
	"sync"
)

// A Family is one registered compressor: the error-bounded lossy
// compressors (sz2, sz3, szx, zfp), the sparsifying families (topk,
// randk), the quantizing family (qsgd) and the gradient-aware predictor
// (pred) each register one. The frame wire format records only the
// name, and every payload is self-describing, so the registered
// compressor's Decompress decodes any payload its family produced.
type Family struct {
	// Name is the registry name recorded in frame sections.
	Name string
	// Bounded reports whether the compressor New builds honours the
	// absolute error bound resolved from Params. A frame of an
	// unbounded compressor (fractional sparsification, fixed-width
	// quantization) is never a whole image, so it never carries a
	// global model.
	Bounded bool
	// New builds the compressor.
	New func() Compressor
}

var (
	familyMu       sync.RWMutex
	familyRegistry = map[string]Family{}
	familyVariant  = map[string]bool{}
)

// RegisterFamily makes f available to FamilyByName (and, through it,
// to New and frame decoding) under f.Name. Registering an empty name,
// a nil factory or a name that is already taken is an error; a process
// registers each family exactly once (typically from init).
func RegisterFamily(f Family) error {
	return registerFamily(f, false)
}

func registerFamily(f Family, variant bool) error {
	if f.Name == "" {
		return fmt.Errorf("lossy: register: empty family name")
	}
	if f.New == nil {
		return fmt.Errorf("lossy: register %q: nil factory", f.Name)
	}
	familyMu.Lock()
	defer familyMu.Unlock()
	if _, dup := familyRegistry[f.Name]; dup {
		return fmt.Errorf("lossy: register %q: already registered", f.Name)
	}
	familyRegistry[f.Name] = f
	familyVariant[f.Name] = variant
	return nil
}

// MustRegisterFamily registers f or panics — the init-time form of
// RegisterFamily for built-in family packages.
func MustRegisterFamily(f Family) {
	if err := RegisterFamily(f); err != nil {
		panic(err)
	}
}

// MustRegisterFamilyVariant registers a non-canonical family (e.g. the
// "adaptive" wrapper or "szx-artifact") or panics: it resolves through
// FamilyByName like any other name but is excluded from Families, so
// sweeps iterate only canonical families.
func MustRegisterFamilyVariant(f Family) {
	if err := registerFamily(f, true); err != nil {
		panic(err)
	}
}

// FamilyByName returns the family registered under name.
func FamilyByName(name string) (Family, error) {
	familyMu.RLock()
	f, ok := familyRegistry[name]
	familyMu.RUnlock()
	if !ok {
		return Family{}, fmt.Errorf("lossy: unknown compressor %q", name)
	}
	return f, nil
}

// New constructs the compressor registered under name. This is the
// resolution path frame decoding uses: payloads are self-describing,
// so the registered compressor decodes every payload of its family.
func New(name string) (Compressor, error) {
	f, err := FamilyByName(name)
	if err != nil {
		return nil, err
	}
	return f.New(), nil
}

// Families lists every canonical registered family name in sorted
// order. Variant registrations are omitted.
func Families() []string {
	familyMu.RLock()
	defer familyMu.RUnlock()
	out := make([]string, 0, len(familyRegistry))
	for name := range familyRegistry {
		if !familyVariant[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
