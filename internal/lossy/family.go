package lossy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// A compressor family groups every configuration of one compression
// technique behind a single registry name: the four error-bounded
// lossy compressors (sz2, sz3, szx, zfp), the sparsifying families
// (topk, randk), quantizing families (qsgd) and the gradient-aware
// predictor (pred) all implement Family. The frame wire format records
// only the family name — each payload is self-describing, so one
// Decompress per family decodes every Setting.

// Family kind labels, reported by Family.Kind. Kinds classify how a
// family trades fidelity for bytes; CLI listings group by them and
// Names() keeps its historical contract by listing only KindEBLC
// families (the paper's Table I sweep).
const (
	// KindEBLC marks error-bounded lossy compressors: every value is
	// reproduced within the absolute bound resolved from Params.
	KindEBLC = "eblc"
	// KindSparse marks sparsifying families that transmit a subset of
	// values and zero the rest.
	KindSparse = "sparse"
	// KindQuant marks quantizing families that transmit low-precision
	// codes for every value.
	KindQuant = "quant"
	// KindPred marks prediction-based gradient-aware families: error
	// bounded like KindEBLC but outside the paper's Table I suite, so
	// excluded from Names().
	KindPred = "pred"
)

// Setting is one point on a Family's parameter grid. The fields form
// a small union across family kinds — a family reads the fields its
// kind defines and ignores the rest — and the zero Setting is every
// family's default configuration, so single-configuration compressors
// (NewSingle) need no grid at all. The error bound is not a Setting:
// it travels through Params on every Compress call as it always has.
type Setting struct {
	// Fraction is the kept fraction for sparsifying families in
	// (0, 1). 0 selects the family's bound-derived default (for topk:
	// threshold sparsification at the absolute bound, which is error
	// bounded).
	Fraction float64
	// Bits is the code width for quantizing families. 0 derives the
	// width from the error bound (which makes the setting error
	// bounded); a fixed positive width trades fidelity for a known
	// ratio.
	Bits int
}

// IsZero reports whether s is the default setting.
func (s Setting) IsZero() bool { return s.Fraction == 0 && s.Bits == 0 }

// String renders the setting as a short stable label ("default",
// "frac=0.05", "bits=8") for logs, bench tables and CLI listings.
func (s Setting) String() string {
	var parts []string
	if s.Fraction != 0 {
		parts = append(parts, fmt.Sprintf("frac=%g", s.Fraction))
	}
	if s.Bits != 0 {
		parts = append(parts, fmt.Sprintf("bits=%d", s.Bits))
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, ",")
}

// Family is the typed contract every compressor family implements.
// Implementations register through RegisterFamily; frames recording
// the family name decode through the same lookup built-ins use.
type Family interface {
	// Name is the registry name recorded in frame sections.
	Name() string
	// Kind classifies the family (KindEBLC, KindSparse, KindQuant,
	// KindPred, or a custom label).
	Kind() string
	// Grid returns the family's candidate settings (the paper
	// experiments sweep them). A nil or empty grid means the family has
	// exactly one configuration: the zero Setting.
	Grid() []Setting
	// Bounded reports whether compressing at s honours the absolute
	// error bound resolved from Params. Unbounded settings (fractional
	// sparsification, fixed-width quantization) are typically paired
	// with error feedback so the dropped signal re-enters later
	// updates.
	Bounded(s Setting) bool
	// Compressor returns a Compressor encoding at setting s. Settings
	// outside the family's domain are an error. Decompress must accept
	// any payload the family ever produced regardless of s: payloads
	// are self-describing, and frame decoding always resolves the zero
	// Setting.
	Compressor(s Setting) (Compressor, error)
}

// NewSingle returns a family with one configuration, the zero
// Setting: a KindEBLC family whose compressor factory builds; bounded
// says whether that compressor honours the absolute bound resolved
// from Params. The Table I compressors, szx-artifact and the adaptive
// wrapper register as one.
func NewSingle(name string, bounded bool, factory func() Compressor) Family {
	return single{name: name, bounded: bounded, factory: factory}
}

type single struct {
	name    string
	bounded bool
	factory func() Compressor
}

func (f single) Name() string         { return f.name }
func (f single) Kind() string         { return KindEBLC }
func (f single) Grid() []Setting      { return nil }
func (f single) Bounded(Setting) bool { return f.bounded }
func (f single) Compressor(s Setting) (Compressor, error) {
	if !s.IsZero() || f.factory == nil {
		return nil, fmt.Errorf("lossy: compressor %q has no setting %v", f.name, s)
	}
	return f.factory(), nil
}

var (
	familyMu       sync.RWMutex
	familyRegistry = map[string]Family{}
	familyVariant  = map[string]bool{}
)

// RegisterFamily makes f available to FamilyByName (and, through it,
// to New and frame decoding) under f.Name(). Registering a nil
// family, an empty name or a name that is already taken is an error;
// a process registers each family exactly once (typically from init).
func RegisterFamily(f Family) error {
	return registerFamily(f, false)
}

// RegisterFamilyVariant registers a non-canonical family (e.g. the
// "adaptive" wrapper or "szx-artifact"): it resolves through
// FamilyByName like any other name but is excluded from Families and
// Names, so sweeps iterate only canonical families.
func RegisterFamilyVariant(f Family) error {
	return registerFamily(f, true)
}

func registerFamily(f Family, variant bool) error {
	if f == nil {
		return fmt.Errorf("lossy: register: nil family")
	}
	name := f.Name()
	if name == "" {
		return fmt.Errorf("lossy: register: empty family name")
	}
	familyMu.Lock()
	defer familyMu.Unlock()
	if _, dup := familyRegistry[name]; dup {
		return fmt.Errorf("lossy: register %q: already registered", name)
	}
	familyRegistry[name] = f
	familyVariant[name] = variant
	return nil
}

// MustRegisterFamily registers f or panics — the init-time form of
// RegisterFamily for built-in family packages.
func MustRegisterFamily(f Family) {
	if err := RegisterFamily(f); err != nil {
		panic(err)
	}
}

// MustRegisterFamilyVariant is the init-time form of
// RegisterFamilyVariant.
func MustRegisterFamilyVariant(f Family) {
	if err := RegisterFamilyVariant(f); err != nil {
		panic(err)
	}
}

// FamilyByName returns the family registered under name.
func FamilyByName(name string) (Family, error) {
	familyMu.RLock()
	f, ok := familyRegistry[name]
	familyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("lossy: unknown compressor %q", name)
	}
	return f, nil
}

// New constructs the compressor registered under name at its family's
// default setting. This is the resolution path frame decoding uses:
// payloads are self-describing, so the default-setting Decompress
// decodes every Setting of the family.
func New(name string) (Compressor, error) {
	f, err := FamilyByName(name)
	if err != nil {
		return nil, err
	}
	return f.Compressor(Setting{})
}

// Names lists the canonical registered KindEBLC compressor names in
// sorted order (for the built-ins that is the paper's Table I order:
// sz2, sz3, szx, zfp). Variant registrations and non-EBLC families
// are omitted — use Families for the full cross-kind listing.
func Names() []string {
	return listFamilies(func(f Family) bool { return f.Kind() == KindEBLC })
}

// Families lists every canonical registered family name in sorted
// order, across all kinds. Variant registrations are omitted. Compare
// Names, which keeps its historical contract of listing only the
// KindEBLC families (the paper's Table I sweep).
func Families() []string {
	return listFamilies(func(Family) bool { return true })
}

// listFamilies returns the sorted canonical family names keep accepts.
func listFamilies(keep func(Family) bool) []string {
	familyMu.RLock()
	defer familyMu.RUnlock()
	out := make([]string, 0, len(familyRegistry))
	for name, f := range familyRegistry {
		if !familyVariant[name] && keep(f) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// GridOf returns f's probe grid, normalizing a nil/empty grid to the
// single zero Setting so callers can range without special cases.
func GridOf(f Family) []Setting {
	if g := f.Grid(); len(g) > 0 {
		return g
	}
	return []Setting{{}}
}
